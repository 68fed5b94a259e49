//! The end-to-end runs: the release `vcheck` driven from outside, one
//! closed-loop client, no tracing.

use std::{
    path::{Path, PathBuf},
    time::{Duration, Instant},
};

use vc_obs::Json;

use crate::{
    check::{self, Tally},
    edits::Editor,
    proc::{run_cli, CliRun, Daemon},
    stats::median,
    trees::{generate_app, App, WorkDir, PROFILES},
};

/// Set-up is repeated this many times per run, each on a freshly written
/// copy of the trees, and reported as the median.
pub const SETUP_REPS: usize = 3;

/// The revision range `delta_gate` compares.
pub const DELTA_ARGS: [&str; 4] = ["--from", "HEAD~20", "--to", "HEAD"];

pub const SCAN: &str = "{\"op\":\"scan\"}";

/// What one run needs to know.
pub struct Ctx {
    pub vcheck: PathBuf,
    pub work: PathBuf,
    pub seed: u64,
    /// How long a traced run measures.
    pub seconds: f64,
    /// How many ops an end-to-end run makes.
    pub ops: usize,
}

/// Raw samples of one end-to-end run.
pub struct E2e {
    pub latencies_ms: Vec<f64>,
    pub measured: Duration,
    pub setups: Vec<Duration>,
    pub peak_rss_mb: f64,
    pub tally: Tally,
}

/// Ops per second of `--seconds` each workload makes. A run makes a
/// fixed number of ops, so that the tail percentile always sits at the
/// same rank; at these rates a run takes about `--seconds` on the 2-core
/// host the benchmark was tuned on.
const OPS_PER_SECOND: [(&str, f64); 4] = [
    ("cli_scan", 2.2),
    ("serve_rescan", 3.2),
    ("serve_commit", 2.8),
    ("delta_gate", 1.4),
];

/// The op count of one run of `workload`. `cli_scan` makes whole
/// rotations over its four trees.
pub fn op_count(workload: &str, seconds: f64) -> usize {
    let rate = OPS_PER_SECOND
        .iter()
        .find(|(w, _)| *w == workload)
        .map_or(1.0, |(_, r)| *r);
    let ops = (seconds * rate).round().max(1.0) as usize;
    if workload == "cli_scan" {
        ops.div_ceil(PROFILES.len()) * PROFILES.len()
    } else {
        ops
    }
}

/// Runs `ops` ops; each call of `op` runs one batch (a whole rotation
/// over the trees for `cli_scan`) and returns its op latencies.
fn measure(
    ops: usize,
    tally: &mut Tally,
    mut op: impl FnMut(&mut Tally) -> Result<Vec<Duration>, String>,
) -> Result<(Vec<f64>, Duration), String> {
    let start = Instant::now();
    let mut latencies = Vec::new();
    while latencies.len() < ops {
        latencies.extend(op(tally)?.iter().map(|d| d.as_secs_f64() * 1e3));
    }
    Ok((latencies, start.elapsed()))
}

/// A cold scan must exit 1 (findings present) and score exactly against
/// the ground truth.
pub fn check_cli_scan(app: &App, run: &CliRun) -> Result<(), String> {
    if run.code != 1 {
        return Err(format!("{}: vcheck exited {}", app.name, run.code));
    }
    check::score_scan(
        &run.stdout,
        &app.truth,
        app.expect_reported,
        app.expect_confirmed,
    )
    .map_err(|e| format!("{}: {e}", app.name))
}

/// `cli_scan`: one cold `vcheck <tree>` per op, rotating over the four
/// full-scale trees.
pub fn cli_scan(ctx: &Ctx) -> Result<E2e, String> {
    let apps: Vec<App> = PROFILES.iter().map(|p| generate_app(p, ctx.seed)).collect();
    let work = WorkDir::create(&ctx.work, "cli_scan").map_err(|e| e.to_string())?;
    let mut tally = Tally::default();
    let mut errors = Vec::new();
    let mut setups = Vec::new();
    let mut reference: Vec<String> = Vec::new();
    let mut root = PathBuf::new();
    for k in 0..SETUP_REPS {
        if k > 0 {
            let _ = std::fs::remove_dir_all(&root);
        }
        root = work.join(&format!("copy{k}"));
        for app in &apps {
            app.write_to(&root.join(&app.name))
                .map_err(|e| e.to_string())?;
        }
        let t = Instant::now();
        let runs = apps
            .iter()
            .map(|a| run_cli(&ctx.vcheck, &[root.join(&a.name)]))
            .collect::<Result<Vec<_>, _>>()?;
        setups.push(t.elapsed());
        for (i, (app, run)) in apps.iter().zip(&runs).enumerate() {
            if let Err(e) = check_cli_scan(app, run) {
                errors.push(format!("set-up: {e}"));
            }
            match reference.get(i) {
                None => reference.push(run.stdout.clone()),
                Some(r) if *r != run.stdout => errors.push(format!(
                    "set-up: {} output differs between copies",
                    app.name
                )),
                Some(_) => {}
            }
        }
    }
    let mut peaks: Vec<Vec<f64>> = vec![Vec::new(); apps.len()];
    let (latencies_ms, measured) = measure(ctx.ops, &mut tally, |tally| {
        let mut lat = Vec::new();
        for ((app, want), peaks) in apps.iter().zip(&reference).zip(&mut peaks) {
            let run = run_cli(&ctx.vcheck, &[root.join(&app.name)])?;
            lat.push(run.wall);
            peaks.push(run.peak_rss_mb);
            tally.record(check_cli_scan(app, &run).and_then(|()| {
                if run.stdout == *want {
                    Ok(())
                } else {
                    Err(format!("{}: output differs from set-up", app.name))
                }
            }));
        }
        Ok(lat)
    })?;
    for e in errors {
        tally.fail_last(e);
    }
    Ok(E2e {
        latencies_ms,
        measured,
        setups,
        // The heaviest tree's median: one op's peak varies with how the
        // allocator spreads the worker threads' memory.
        peak_rss_mb: peaks.iter().filter_map(|p| median(p)).fold(0.0, f64::max),
        tally,
    })
}

/// Spawns a daemon on a fresh copy of `app` and times spawn to the first
/// `scan` reply, `SETUP_REPS` times; the last daemon stays up. Each
/// first reply must equal a cold CLI scan of its tree, which is checked
/// against the ground truth. Returns the daemon, its tree, the reference
/// CSV and the set-up times.
pub fn serve_setup(
    ctx: &Ctx,
    app: &App,
    work: &WorkDir,
    errors: &mut Vec<String>,
) -> Result<(Daemon, PathBuf, String, Vec<Duration>), String> {
    let mut setups = Vec::new();
    let mut last: Option<(Daemon, PathBuf, String)> = None;
    for k in 0..SETUP_REPS {
        if let Some((daemon, dir, _)) = last.take() {
            if let Err(e) = daemon.shutdown() {
                errors.push(format!("set-up: {e}"));
            }
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = work.join(&format!("copy{k}"));
        app.write_to(&dir).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let mut daemon = Daemon::spawn(&ctx.vcheck, &dir)?;
        let (reply, _) = daemon.request(SCAN)?;
        setups.push(t.elapsed());
        let cold = run_cli(&ctx.vcheck, &[&dir])?;
        if let Err(e) = check_cli_scan(app, &cold) {
            errors.push(format!("set-up: {e}"));
        }
        match check::check_scan_reply(&reply) {
            Ok(csv) if csv == cold.stdout => {}
            Ok(_) => errors.push("set-up: first scan reply differs from a cold scan".into()),
            Err(e) => errors.push(format!("set-up: {e}")),
        }
        last = Some((daemon, dir, cold.stdout));
    }
    let (daemon, dir, reference) = last.expect("at least one set-up");
    Ok((daemon, dir, reference, setups))
}

/// The `update` request for one edited file.
pub fn update_request(file: &str) -> String {
    Json::Obj(vec![
        ("op".into(), Json::Str("update".into())),
        ("files".into(), Json::Arr(vec![Json::Str(file.into())])),
    ])
    .to_string()
}

/// `serve_rescan` (`commit == false`) and `serve_commit`: one daemon on the
/// linux tree, one request per op.
pub fn serve(ctx: &Ctx, commit: bool) -> Result<E2e, String> {
    let app = generate_app("linux", ctx.seed);
    let work = WorkDir::create(
        &ctx.work,
        if commit {
            "serve_commit"
        } else {
            "serve_rescan"
        },
    )
    .map_err(|e| e.to_string())?;
    let mut tally = Tally::default();
    let mut errors = Vec::new();
    let (mut daemon, dir, reference, setups) = serve_setup(ctx, &app, &work, &mut errors)?;
    let (latencies_ms, measured) = if commit {
        let rows = check::parse_csv(&reference)?;
        let mut editor = Editor::new(&app.sources, &app.history, &rows, ctx.seed)?;
        let (mut saw_new, mut saw_fixed) = (false, false);
        let mut last_csv = reference.clone();
        let out = measure(ctx.ops, &mut tally, |tally| {
            let edit = editor.next_edit();
            editor.write(&dir, &edit).map_err(|e| e.to_string())?;
            let (reply, wall) = daemon.request(&update_request(&edit.file))?;
            saw_new |= check::delta_len(&reply, "new") > 0;
            saw_fixed |= check::delta_len(&reply, "fixed") > 0;
            tally.record(check_commit_reply(&reply, &edit, &mut last_csv));
            Ok(vec![wall])
        })?;
        let cold = run_cli(&ctx.vcheck, &[&dir])?;
        if cold.stdout != last_csv {
            errors.push("last reply differs from a cold scan of the final tree".into());
        }
        if tally.attempted >= 2 && !(saw_new && saw_fixed) {
            errors.push("the run's deltas never showed both new and fixed".into());
        }
        out
    } else {
        measure(ctx.ops, &mut tally, |tally| {
            let (reply, wall) = daemon.request(SCAN)?;
            tally.record(check::check_scan_reply(&reply).and_then(|csv| {
                if csv != reference {
                    Err("rescan reply differs from the cold scan".to_string())
                } else if check::delta_len(&reply, "new") + check::delta_len(&reply, "fixed") > 0 {
                    Err("rescan of an unchanged tree reports new or fixed".to_string())
                } else {
                    Ok(())
                }
            }));
            Ok(vec![wall])
        })?
    };
    let peak_rss_mb = daemon.peak_rss_mb()?;
    if let Err(e) = daemon.shutdown() {
        errors.push(e);
    }
    for e in errors {
        tally.fail_last(e);
    }
    Ok(E2e {
        latencies_ms,
        measured,
        setups,
        peak_rss_mb,
        tally,
    })
}

/// An `update` reply after one edit: balanced, and the edited finding
/// shows up as `fixed` (a fix) or `new` (a revert).
pub fn check_commit_reply(
    reply: &Json,
    edit: &crate::edits::Edit,
    last_csv: &mut String,
) -> Result<(), String> {
    let csv = check::check_scan_reply(reply)?;
    *last_csv = csv.to_string();
    let class = if edit.fixes { "fixed" } else { "new" };
    if !check::delta_has(reply, class, &edit.function, &edit.variable) {
        return Err(format!(
            "edit of {} did not report {}/{} as {class}",
            edit.file, edit.function, edit.variable
        ));
    }
    Ok(())
}

/// Checks one `vcheck delta` run against the cold scan at `HEAD`: every
/// finding at `HEAD` is new or persisting, and the exit code is 1 exactly
/// when some are new.
pub fn check_delta(run: &CliRun, head_rows: usize) -> Result<(), String> {
    let mut new = 0;
    let mut persisting = 0;
    for line in run.stdout.lines().skip(1) {
        match line.split(',').next() {
            Some("new") => new += 1,
            Some("persisting") => persisting += 1,
            _ => {}
        }
    }
    let want_code = i32::from(new > 0);
    if run.code != want_code {
        return Err(format!("delta exited {} with {new} new", run.code));
    }
    if new + persisting != head_rows {
        return Err(format!(
            "delta has {new} new + {persisting} persisting, the scan at HEAD {head_rows} rows"
        ));
    }
    Ok(())
}

pub fn delta_args(dir: &Path) -> Vec<std::ffi::OsString> {
    let mut args = vec!["delta".into(), dir.as_os_str().to_owned()];
    args.extend(DELTA_ARGS.iter().map(Into::into));
    args
}

/// `delta_gate`: one `vcheck delta <linux> --from HEAD~20 --to HEAD`
/// process per op.
pub fn delta_gate(ctx: &Ctx) -> Result<E2e, String> {
    let app = generate_app("linux", ctx.seed);
    let work = WorkDir::create(&ctx.work, "delta_gate").map_err(|e| e.to_string())?;
    let mut tally = Tally::default();
    let mut errors = Vec::new();
    let mut setups = Vec::new();
    let mut reference: Option<(String, usize)> = None;
    let mut dir = PathBuf::new();
    for k in 0..SETUP_REPS {
        if k > 0 {
            let _ = std::fs::remove_dir_all(&dir);
        }
        dir = work.join(&format!("copy{k}"));
        app.write_to(&dir).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let run = run_cli(&ctx.vcheck, &delta_args(&dir))?;
        setups.push(t.elapsed());
        let cold = run_cli(&ctx.vcheck, &[&dir])?;
        if let Err(e) = check_cli_scan(&app, &cold) {
            errors.push(format!("set-up: {e}"));
        }
        let head_rows = check::parse_csv(&cold.stdout).map_or(0, |r| r.len());
        if let Err(e) = check_delta(&run, head_rows) {
            errors.push(format!("set-up: {e}"));
        }
        match &reference {
            None => reference = Some((run.stdout, head_rows)),
            Some((r, _)) if *r != run.stdout => {
                errors.push("set-up: delta output differs between copies".into())
            }
            Some(_) => {}
        }
    }
    let (want, head_rows) = reference.expect("at least one set-up");
    let args = delta_args(&dir);
    let mut peaks = Vec::new();
    let (latencies_ms, measured) = measure(ctx.ops, &mut tally, |tally| {
        let run = run_cli(&ctx.vcheck, &args)?;
        peaks.push(run.peak_rss_mb);
        tally.record(check_delta(&run, head_rows).and_then(|()| {
            if run.stdout == want {
                Ok(())
            } else {
                Err("delta output differs from set-up".to_string())
            }
        }));
        Ok(vec![run.wall])
    })?;
    for e in errors {
        tally.fail_last(e);
    }
    Ok(E2e {
        latencies_ms,
        measured,
        setups,
        peak_rss_mb: median(&peaks).expect("at least one op"),
        tally,
    })
}
