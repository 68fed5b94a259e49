//! Round-trip of the CLI data path: a generated workload exported to disk
//! in `vcheck`'s project layout (sources + history.json), re-loaded through
//! `valuecheck::project::load_dir`, and analysed — the findings must match
//! the in-memory pipeline exactly.

use std::{fs, path::PathBuf, process::Command, sync::OnceLock};

use valuecheck::{
    pipeline::{
        run,
        Options, //
    },
    project::load_dir,
};
use vc_ir::Program;
use vc_vcs::{
    spec::{CommitSpec, WriteSpec},
    HistorySpec,
};
use vc_workload::{
    generate,
    AppProfile, //
};

#[test]
fn exported_project_reanalyzes_identically() {
    let app = generate(&AppProfile::nfs_ganesha().scaled(0.12));

    // In-memory analysis.
    let prog = Program::build(&app.source_refs(), &app.defines).unwrap();
    let mem = run(&prog, &app.repo, &Options::paper());

    // Export to disk exactly as `genapp` does.
    let dir = std::env::temp_dir().join(format!("vc_roundtrip_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    for (path, content) in &app.sources {
        let full = dir.join(path);
        fs::create_dir_all(full.parent().unwrap()).unwrap();
        fs::write(&full, content).unwrap();
    }
    let spec = HistorySpec::from_repo(&app.repo);
    fs::write(dir.join("history.json"), spec.to_json()).unwrap();

    // Re-load through the CLI path and re-analyse.
    let project = load_dir(&dir).unwrap();
    assert!(project.has_history);
    assert_eq!(project.sources.len(), app.sources.len());
    let prog2 = Program::build(&project.source_refs(), &app.defines).unwrap();
    let disk = run(&prog2, &project.repo, &Options::paper());

    let ids = |a: &valuecheck::Analysis| -> Vec<(String, String)> {
        a.report
            .rows
            .iter()
            .map(|r| (r.function.clone(), r.variable.clone()))
            .collect()
    };
    assert_eq!(mem.raw_candidates, disk.raw_candidates);
    assert_eq!(mem.cross_scope_candidates, disk.cross_scope_candidates);
    assert_eq!(ids(&mem), ids(&disk));

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn history_spec_preserves_blame() {
    let app = generate(&AppProfile::openssl().scaled(0.1));
    let rebuilt = HistorySpec::from_repo(&app.repo).build();
    // Spot-check blame equality over every file's first and last lines.
    for path in app.repo.paths() {
        let n = app.repo.line_count(path) as u32;
        for line in [1, n.max(1)] {
            let a = app
                .repo
                .blame(path, line)
                .map(|b| app.repo.author(b.author).name.clone());
            let b = rebuilt
                .blame(path, line)
                .map(|b| rebuilt.author(b.author).name.clone());
            assert_eq!(a, b, "{path}:{line}");
        }
    }
}

/// The `vcheck` binary. It belongs to another workspace package, so cargo
/// does not hand this test its path: build it into this test's own target
/// directory once.
fn vcheck() -> Command {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    let bin = BIN.get_or_init(|| {
        let exe = std::env::current_exe().unwrap();
        let profile_dir = exe.parent().unwrap().parent().unwrap().to_path_buf();
        let mut build = Command::new(env!("CARGO"));
        build.args(["build", "-q", "-p", "valuecheck", "--bin", "vcheck"]);
        if profile_dir.ends_with("release") {
            build.arg("--release");
        }
        assert!(build.status().unwrap().success(), "building vcheck");
        profile_dir.join("vcheck")
    });
    Command::new(bin)
}

/// A project on disk whose history is `commits` (author, content of
/// `a.c`), with the last commit's content as the working tree.
fn history_project(name: &str, commits: &[(&str, &str)]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vc_cli_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let spec = HistorySpec {
        commits: commits
            .iter()
            .map(|(author, content)| CommitSpec {
                author: author.to_string(),
                timestamp: 1,
                message: "edit".into(),
                writes: vec![WriteSpec {
                    path: "a.c".into(),
                    content: content.to_string(),
                }],
            })
            .collect(),
    };
    fs::write(dir.join("history.json"), spec.to_json()).unwrap();
    fs::write(dir.join("a.c"), commits.last().unwrap().1).unwrap();
    dir
}

/// A two-commit project on disk: alice writes `f`, bob overwrites `x`.
fn two_commit_project(name: &str) -> PathBuf {
    let v1 = "void f(void) {\nint x = 1;\nuse(x);\n}\n";
    let v2 = "void f(void) {\nint x = 1;\nx = 2;\nuse(x);\n}\n";
    history_project(name, &[("alice", v1), ("bob", v2)])
}

#[test]
fn a_broken_past_revision_costs_its_function_not_the_run() {
    // The middle commit adds a function that does not parse; the last
    // reverts it. Both subcommands scan that revision like `vcheck <dir>`
    // would: the broken function is skipped, counted and listed, the run
    // goes on.
    let v1 = "void f(void) {\nint x = 1;\nx = 2;\nuse(x);\n}\n";
    let broken = format!("{v1}void g(void) {{\nint x = ;\n}}\n");
    let dir = history_project("broken", &[("alice", v1), ("bob", &broken), ("alice", v1)]);
    let metrics = dir.join("metrics.json");
    let runs: [&[&str]; 2] = [&["history"], &["delta", "--from", "1", "--to", "2"]];
    for run in runs {
        let out = vcheck()
            .arg(run[0])
            .arg(&dir)
            .args(&run[1..])
            .arg("--metrics-json")
            .arg(&metrics)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            matches!(out.status.code(), Some(0 | 1)),
            "{run:?} must exit by its findings: {stderr}"
        );
        let snapshot = vc_obs::json::parse(&fs::read_to_string(&metrics).unwrap()).unwrap();
        let parse_failures = snapshot
            .get("counters")
            .and_then(|c| c.get("harden.parse_failures"))
            .and_then(|n| n.as_i64());
        assert_eq!(parse_failures, Some(1), "{run:?}");
        // The skipped function is named on stderr, under its revision.
        let listed = format!("vcheck {}: commit 1:   [parse] g in a.c:", run[0]);
        assert!(stderr.contains(&listed), "{run:?}: {stderr}");
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn delta_and_history_accept_the_shared_analysis_flags() {
    let dir = two_commit_project("shared");
    let shared = ["--all", "--no-prune", "--define", "X"];
    let delta = vcheck()
        .arg("delta")
        .arg(&dir)
        .args(["--from", "HEAD~1", "--to", "HEAD"])
        .args(shared)
        .output()
        .unwrap();
    let history = vcheck()
        .arg("history")
        .arg(&dir)
        .args(shared)
        .output()
        .unwrap();
    for out in [delta, history] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(matches!(out.status.code(), Some(0 | 1)), "stderr: {stderr}");
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_subcommand_exits_two_on_an_unknown_flag() {
    let dir = two_commit_project("unknown");
    let cases: [(&[&str], &str); 7] = [
        (&[], "--bogus"),
        (&["delta"], "--bogus"),
        (&["history"], "--bogus"),
        (&["serve"], "--bogus"),
        (&["tail"], "--bogus"),
        // Shared flags only where the subcommand takes them.
        (&["serve"], "--jobs"),
        (&["tail"], "--define"),
    ];
    for (sub, flag) in cases {
        let out = vcheck().args(sub).arg(&dir).arg(flag).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{sub:?} {flag}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown argument `{flag}`")),
            "{stderr}"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}
