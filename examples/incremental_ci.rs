//! Incremental (per-commit) analysis, as in a CI hook (§8.6).
//!
//! Generates a small synthetic application with a full commit history,
//! walks the history forward once with `Repository::replay`, and runs each
//! of the most recent commits through `analyze_commit_in` against its own
//! tree and blame, printing the findings each commit introduces and the
//! per-commit analysis time — the integration mode the paper measures in
//! Table 7's last column.
//!
//! ```sh
//! cargo run --release --example incremental_ci
//! ```

use std::time::Instant;

use valuecheck::{incremental::analyze_commit_in, prune::PruneConfig, rank::RankConfig};
use vc_ir::Program;
use vc_obs::ObsSession;
use vc_workload::{
    generate,
    AppProfile, //
};

fn main() {
    let profile = AppProfile::openssl().scaled(0.25);
    let app = generate(&profile);
    println!(
        "generated `{}`: {} files, {} LOC, {} commits",
        profile.name,
        app.sources.len(),
        app.loc(),
        app.repo.commits().len()
    );

    // Gate the last 10 commits as a CI hook would, in one forward walk:
    // each commit is analysed against its own tree and blame.
    let commits = app.repo.commits();
    let recent = &commits[commits.len().saturating_sub(10)..];
    let first = recent.first().expect("the history has commits").id;

    let obs = ObsSession::new();
    let _guard = obs.install();
    let mut total = 0.0f64;
    app.repo
        .replay(recent[recent.len() - 1].id, |repo_at, tree| {
            let id = repo_at.head().expect("the replay visits each commit");
            if id < first {
                return;
            }
            let t0 = Instant::now();
            let sources: Vec<(&str, &str)> = tree.iter().map(|(p, s)| (*p, *s)).collect();
            let prog = Program::build(&sources, &app.defines).expect("snapshot builds");
            let findings = analyze_commit_in(
                &prog,
                repo_at,
                id,
                &PruneConfig::default(),
                &RankConfig::default(),
            );
            let dt = t0.elapsed().as_secs_f64();
            total += dt;
            let commit = repo_at.commit_info(id);
            println!(
                "commit #{:<4} by {:<22} {:<40} functions analysed: {:>3}  findings: {}  ({:.3}s)",
                id.0,
                repo_at.author(commit.author).name,
                truncate(&commit.message, 38),
                findings.analysed_functions,
                findings.findings.len(),
                dt
            );
            for f in &findings.findings {
                println!(
                    "    -> {} `{}` in {} (cross-scope unused definition)",
                    f.item.candidate.func_name,
                    f.item.candidate.var_name,
                    findings.changed_files.join(", ")
                );
            }
        });
    println!(
        "average per-commit analysis time: {:.3}s",
        total / recent.len() as f64
    );
    println!(
        "{} functions analysed in total, {} poisoned",
        obs.registry.counter("incremental.functions_analysed"),
        obs.registry.counter("harden.poisoned.detect"),
    );
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n])
    }
}
