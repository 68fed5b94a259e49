//! `e2ebench` — the end-to-end benchmark of `vcheck` on generated trees
//! that ship `history.json`.
//!
//! ```text
//! e2ebench --vcheck PATH --workload NAME --seed N --seconds S --trace 0|1
//!          [--work DIR]
//! ```
//!
//! Workloads (each one closed-loop client; see README.md for why each
//! exists):
//!
//! - `cli_scan`: one cold `vcheck <tree>` process per op, rotating over
//!   the four full-scale profile trees;
//! - `serve_rescan`: `{"op":"scan"}` with nothing changed, against one
//!   `vcheck serve` on the linux tree;
//! - `serve_commit`: one seeded edit committed into `history.json`, then
//!   `{"op":"update"}`, against the same daemon;
//! - `delta_gate`: one `vcheck delta <linux> --from HEAD~20 --to HEAD`
//!   process per op.
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it measures the per-layer metrics (`traced.rs`) and writes
//! its spans as a Chrome trace under the work directory. The last line
//! of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod check;
mod e2e;
mod edits;
mod proc;
mod spans;
mod stats;
mod traced;
mod trees;

use std::{path::PathBuf, process::ExitCode};

use vc_obs::Json;

use crate::{
    check::Tally,
    e2e::{Ctx, E2e},
    stats::{median, nearest_rank, tail_percentile},
};

/// The same allocator `vcheck` runs with, so in-process layer times match
/// the binary's.
#[global_allocator]
static ALLOC: vc_obs::CountingAlloc = vc_obs::CountingAlloc;

const WORKLOADS: [&str; 4] = ["cli_scan", "serve_rescan", "serve_commit", "delta_gate"];

/// Samples the tail percentile must leave above it.
const TAIL_BEYOND: usize = 10;

struct Args {
    vcheck: PathBuf,
    work: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut vcheck = None;
    let mut work = PathBuf::from(".bench_work");
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--vcheck" => vcheck = Some(PathBuf::from(value()?)),
            "--work" => work = PathBuf::from(value()?),
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed needs a number")?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds needs a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        vcheck: vcheck.ok_or("missing --vcheck")?,
        work,
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn metric(name: &str, value: f64, unit: &str) -> (String, Json) {
    (
        name.to_string(),
        Json::Obj(vec![
            ("value".into(), Json::Float(value)),
            ("unit".into(), Json::Str(unit.into())),
        ]),
    )
}

fn result_line(tally: &Tally, metrics: Vec<(String, Json)>) -> String {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(tally.failed == 0)),
        ("attempted".into(), Json::Int(tally.attempted as i64)),
        ("failed".into(), Json::Int(tally.failed as i64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .to_string()
}

/// The end-to-end metrics of one untraced run.
fn e2e_metrics(workload: &str, run: &E2e) -> Vec<(String, Json)> {
    let lat = &run.latencies_ms;
    let n = lat.len();
    let p50 = median(lat).expect("a run has at least one op");
    let (tail_p, tail) = match tail_percentile(n, TAIL_BEYOND) {
        Some(p) => (
            format!("p{p}"),
            nearest_rank(lat, f64::from(p)).expect("nonempty"),
        ),
        None => (
            "max".to_string(),
            nearest_rank(lat, 100.0).expect("nonempty"),
        ),
    };
    let setups: Vec<f64> = run.setups.iter().map(|d| d.as_secs_f64()).collect();
    let setup = median(&setups).expect("at least one set-up");
    let ops_per_s = run.tally.attempted as f64 / run.measured.as_secs_f64();
    println!(
        "{workload}: {} ops in {:.2} s, {} failed (failed_ratio {:.4})",
        run.tally.attempted,
        run.measured.as_secs_f64(),
        run.tally.failed,
        run.tally.failed_ratio()
    );
    println!(
        "latency_tail_ms is the nearest-rank {tail_p} of n={n} op latencies \
         (the highest percentile with at least {TAIL_BEYOND} samples beyond it)"
    );
    vec![
        metric("latency_p50_ms", p50, "ms"),
        metric("latency_tail_ms", tail, "ms"),
        metric("ops_per_s", ops_per_s, "1/s"),
        metric("setup_s", setup, "s"),
        metric("peak_rss_mb", run.peak_rss_mb, "MB"),
    ]
}

fn run(args: &Args) -> Result<(Tally, Vec<(String, Json)>), String> {
    std::fs::create_dir_all(&args.work).map_err(|e| format!("{}: {e}", args.work.display()))?;
    let ctx = Ctx {
        vcheck: args.vcheck.clone(),
        work: args.work.clone(),
        seed: args.seed,
        seconds: args.seconds,
        ops: e2e::op_count(&args.workload, args.seconds),
    };
    if !args.trace {
        let run = match args.workload.as_str() {
            "cli_scan" => e2e::cli_scan(&ctx)?,
            "serve_rescan" => e2e::serve(&ctx, false)?,
            "serve_commit" => e2e::serve(&ctx, true)?,
            _ => e2e::delta_gate(&ctx)?,
        };
        let metrics = e2e_metrics(&args.workload, &run);
        return Ok((run.tally, metrics));
    }
    let run = match args.workload.as_str() {
        "cli_scan" => traced::cli_scan(&ctx)?,
        "serve_rescan" => traced::serve(&ctx, false)?,
        "serve_commit" => traced::serve(&ctx, true)?,
        _ => traced::delta_gate(&ctx)?,
    };
    let trace_path = args
        .work
        .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&trace_path, run.rec.to_chrome_json().to_string())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    println!(
        "{}: {} traced ops, {} failed; spans in {}",
        args.workload,
        run.tally.attempted,
        run.tally.failed,
        trace_path.display()
    );
    let metrics = run
        .acc
        .metrics()
        .into_iter()
        .map(|(name, unit, v)| metric(name, v, unit))
        .collect();
    Ok((run.tally, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((tally, metrics)) => {
            for (name, m) in &metrics {
                let v = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                println!("  {name:<30} {v:>14.4} {unit}");
            }
            for r in &tally.reasons {
                println!("  failure: {r}");
            }
            println!("{}", result_line(&tally, metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::from(1)
        }
    }
}
