//! Degenerate-CFG coverage: the shapes that historically hang or blow up
//! static analyzers must terminate — within budget — through all four
//! analysis entry points (liveness, reaching definitions, Andersen
//! points-to, alias uses) and the full hardened detector.

use valuecheck::{
    detect::{
        detect_program_hardened,
        DetectConfig, //
    },
    harden::{
        Budget,
        HardenConfig, //
    },
    pipeline::{
        run_with_obs,
        Options, //
    },
};
use vc_dataflow::{
    live_variables,
    reaching::{
        reaching_definitions,
        reaching_definitions_budgeted, //
    },
};
use vc_ir::{
    cfg::Cfg,
    Program, //
};
use vc_pointer::{
    Config as PtConfig,
    PointsTo, //
};

/// Runs every analysis entry point over every function of `src` and the
/// hardened detector over the whole program, all under `budget`.
fn grind(src: &str, budget: Budget) {
    let prog = Program::build(&[("degenerate.c", src)], &[]).unwrap();
    for f in &prog.funcs {
        let cfg = Cfg::new(f);
        let live = live_variables(f, &cfg);
        assert!(live.iterations > 0 || f.blocks.is_empty() || !live.exhausted);
        let reach = reaching_definitions(f, &cfg);
        assert!(!reach.entry.is_empty() || f.blocks.is_empty());
    }
    let pts = PointsTo::solve_with(
        &prog,
        PtConfig {
            budget,
            ..PtConfig::default()
        },
    );
    assert!(
        !(budget.is_unlimited() && pts.exhausted()),
        "an unlimited solve never runs out of budget"
    );
    let out = detect_program_hardened(
        &prog,
        DetectConfig::default(),
        HardenConfig {
            liveness_budget: budget,
            pointer_budget: budget,
            ..HardenConfig::default()
        },
    );
    assert!(out.failures.is_empty(), "no poisoning expected: {out:?}");
}

#[test]
fn empty_function_terminates() {
    grind("void empty(void) { }", Budget::UNLIMITED);
    grind("void empty(void) { }", Budget::steps(10_000));
}

#[test]
fn single_block_self_loop_terminates() {
    let src = "void spin(int n) { while (1) { n = n + 1; } }";
    grind(src, Budget::UNLIMITED);
    grind(src, Budget::steps(10_000));
}

#[test]
fn unreachable_blocks_terminate() {
    let src = "int dead_tail(int n) {\n\
               return n;\n\
               n = 5;\n\
               use(n);\n\
               }";
    grind(src, Budget::UNLIMITED);
    grind(src, Budget::steps(10_000));
}

#[test]
fn deeply_nested_loops_terminate() {
    let mut body = String::from("int x = 0;\n");
    for i in 0..32 {
        body.push_str(&format!("while (x < {i}) {{\n"));
    }
    body.push_str("x = x + 1;\n");
    for _ in 0..32 {
        body.push_str("}\n");
    }
    body.push_str("use(x);\n");
    let src = format!("void nested(void) {{\n{body}}}\n");
    grind(&src, Budget::UNLIMITED);
    grind(&src, Budget::millis(10_000));
}

fn straight_line_10k() -> String {
    // Each `if` contributes multiple CFG blocks: ~10k blocks total.
    let mut body = String::new();
    for _ in 0..5_000 {
        body.push_str("if (n) { n = n - 1; }\n");
    }
    format!("void stress(int n) {{\n{body}use(n);\n}}\n")
}

#[test]
fn ten_thousand_block_straight_line_terminates_within_budget() {
    // At this size the set-valued fixpoints (reaching definitions and the
    // detector's define-set liveness) turn quadratic — facts grow with the
    // block count — which is exactly the shape the budgets exist for. The
    // linear entry points must complete outright; the quadratic ones must
    // terminate promptly *by exhausting their budget* and degrade instead
    // of hanging.
    let src = straight_line_10k();
    let prog = Program::build(&[("stress.c", src.as_str())], &[]).unwrap();
    let f = &prog.funcs[0];
    let cfg = Cfg::new(f);
    assert!(cfg.len() >= 10_000, "blocks: {}", cfg.len());

    let live = live_variables(f, &cfg);
    assert!(!live.exhausted, "plain liveness is linear at 10k blocks");

    let reach = reaching_definitions_budgeted(f, &cfg, Budget::steps(1_000));
    assert!(
        reach.exhausted,
        "quadratic reaching must be cut by its budget, not run to death"
    );

    let pts = PointsTo::solve_with(
        &prog,
        PtConfig {
            budget: Budget::steps(2_000_000),
            ..PtConfig::default()
        },
    );
    assert!(!pts.exhausted(), "the points-to graph here is tiny");

    let out = detect_program_hardened(
        &prog,
        DetectConfig::default(),
        HardenConfig {
            liveness_budget: Budget::steps(1_000),
            pointer_budget: Budget::steps(2_000_000),
            ..HardenConfig::default()
        },
    );
    assert!(out.failures.is_empty(), "degradation is not failure");
    assert_eq!(
        out.liveness_degraded, 1,
        "the stress function exhausts the define-set budget and degrades"
    );
}

#[test]
fn budget_exhaustion_on_stress_degrades_but_still_reports() {
    // The stress function exhausts a tight liveness budget; the small buggy
    // function next to it still finishes and must still be reported. The
    // empty repo means authorship is unknown — kept cross-scope by the
    // conservative default.
    let src = format!(
        "int lib_fetch(void);\n\
         void buggy(void) {{\n\
         int got = lib_fetch();\n\
         got = 2;\n\
         use(got);\n\
         }}\n{}",
        straight_line_10k()
    );
    let prog = Program::build(&[("stress.c", src.as_str())], &[]).unwrap();
    let repo = vc_vcs::Repository::new();
    let opts = Options {
        harden: HardenConfig {
            liveness_budget: Budget::steps(2_000),
            ..HardenConfig::default()
        },
        ..Options::paper()
    };
    let obs = vc_obs::ObsSession::new();
    let analysis = run_with_obs(&prog, &repo, &opts, obs.clone());
    assert!(
        obs.registry.counter("harden.degraded.liveness") >= 1,
        "the stress function must exhaust its liveness budget"
    );
    assert!(
        analysis
            .report
            .rows
            .iter()
            .any(|r| r.function == "buggy" && r.variable == "got"),
        "degraded run still reports the small function's finding: {:?}",
        analysis.report.rows
    );
    assert!(analysis.report.failures.is_empty());
}
