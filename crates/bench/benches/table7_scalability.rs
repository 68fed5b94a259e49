//! Table 7 as a bench: whole-application analysis time and per-commit
//! incremental time, per application profile.
//!
//! Run with `cargo bench -p vc-bench --bench table7_scalability`; results
//! print as a table and land in `BENCH_table7_scalability.json`.

use valuecheck::{
    incremental::analyze_commit,
    pipeline::{
        run,
        Options, //
    },
    prune::PruneConfig,
    rank::RankConfig,
};
use vc_bench::harness::Harness;
use vc_ir::Program;
use vc_workload::{
    generate,
    AppProfile, //
};

/// Bench scale: small enough for repeated sampling.
const SCALE: f64 = 0.1;

fn main() {
    let mut h = Harness::new("table7_scalability");

    h.group("table7_full_analysis").sample_size(10);
    for profile in AppProfile::all() {
        let profile = profile.scaled(SCALE);
        let app = generate(&profile);
        let sources = app.source_refs();
        let prog = Program::build(&sources, &app.defines).expect("workload builds");
        h.bench(&profile.name, || run(&prog, &app.repo, &Options::paper()));
    }

    h.group("table7_incremental").sample_size(10);
    for profile in AppProfile::all() {
        let profile = profile.scaled(SCALE);
        let app = generate(&profile);
        let head = app.repo.head().expect("non-empty history");
        h.bench(&profile.name, || {
            analyze_commit(
                &app.repo,
                head,
                &app.defines,
                &PruneConfig::default(),
                &RankConfig::default(),
            )
        });
    }

    h.finish();
}
