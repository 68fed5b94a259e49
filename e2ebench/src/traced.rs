//! The traced run: per-layer times and counts.
//!
//! Each op is made three ways. `U` is the untraced op through the real
//! binary (a `vcheck` process, or a request to a `vcheck serve` daemon);
//! its output is checked like in the end-to-end run and its counters come
//! from `--metrics-json` or the daemon's replies. `P` and `T` make the
//! same public library calls in-process, in the order the binary makes
//! them; `T` wraps each call in a span and `P` does not, so the two give
//! the tracing overhead. `T`'s report bytes must equal `U`'s stdout.
//!
//! Some layers run inside a single public call that has no span of its
//! own (`json::parse` and `HistorySpec::{from_json, build}` inside
//! `load_dir_or_empty`; lexing and parsing inside
//! `Program::build_recovering`). After each op those inner calls are
//! timed again on the same input, outside the op, as `probe.*` spans; the
//! enclosing call's remaining self time is reported as its own layer
//! (`project.read_ms`, `frontend.lower_ms`).

use std::{
    collections::{BTreeMap, HashSet},
    fs,
    path::Path,
    time::{Duration, Instant},
};

use valuecheck::{
    delta::{classify, fingerprint_ranked, side_sentinel},
    harden::{FailStage, FailureRecord},
    pipeline::{run_sentinel, Options},
    project::{load_dir, load_dir_or_empty},
    sentinel::{salt_strings, SentinelConfig},
    serve::{ServeConfig, ServeEngine},
};
use vc_ir::{
    lexer::{lex, lex_recovering},
    parser::{parse, parse_with_recovery},
    program::{BuildError, RecoverStats},
    FileId, Program,
};
use vc_obs::{json, names, Json, ObsSession};
use vc_vcs::HistorySpec;

use crate::{
    check::{self, Tally},
    e2e::{self, Ctx, SCAN},
    edits::Editor,
    proc::{run_cli, Daemon},
    spans::{Recorder, SpanId},
    stats::median,
    trees::{generate_app, App, WorkDir, PROFILES},
};

/// Every per-layer metric, with its unit and whether lower is better.
pub const PER_LAYER: &[(&str, &str, bool)] = &[
    ("json.parse_ms", "ms", true),
    ("json.mb_per_s", "MB/s", false),
    ("history.decode_ms", "ms", true),
    ("history.replay_ms", "ms", true),
    ("history.bytes", "bytes", true),
    ("history.commits", "count", true),
    ("vcs.checkout_ms", "ms", true),
    ("project.load_ms", "ms", true),
    ("project.read_ms", "ms", true),
    ("frontend.lex_ms", "ms", true),
    ("frontend.parse_ms", "ms", true),
    ("frontend.lower_ms", "ms", true),
    ("frontend.tokens", "count", true),
    ("frontend.functions", "count", true),
    ("frontend.insts", "count", true),
    ("stage.detect_ms", "ms", true),
    ("summary.built", "count", true),
    ("summary.reused", "count", false),
    ("summary.eliminated", "count", false),
    ("dataflow.solves", "count", true),
    ("dataflow.fixpoint_iterations", "count", true),
    ("sentinel.units", "count", true),
    ("stage.authorship_ms", "ms", true),
    ("stage.prune_ms", "ms", true),
    ("funnel.raw", "count", true),
    ("funnel.cross_scope", "count", true),
    ("funnel.pruned", "count", false),
    ("funnel.reported", "count", true),
    ("prune.report_ratio", "ratio", true),
    ("stage.rank_ms", "ms", true),
    ("report.encode_ms", "ms", true),
    ("serve.scan_ms", "ms", true),
    ("serve.reply_ms", "ms", true),
    ("serve.unit_hit_rate", "ratio", false),
    ("serve.unit_misses", "count", true),
    ("serve.dirty_ratio", "ratio", true),
    ("delta.revision_from_ms", "ms", true),
    ("delta.revision_to_ms", "ms", true),
    ("delta.classify_ms", "ms", true),
    ("process.overhead_ms", "ms", true),
    ("trace.unattributed_pct", "%", true),
    ("trace.overhead_pct", "%", true),
];

/// Counters read from the binary's metrics export, per op.
const COUNTERS: [&str; 9] = [
    names::SUMMARY_BUILT,
    names::SUMMARY_REUSED,
    names::SUMMARY_ELIMINATED,
    names::DATAFLOW_SOLVES,
    names::DATAFLOW_FIXPOINT_ITERATIONS,
    names::SENTINEL_UNITS,
    names::FUNNEL_RAW,
    names::FUNNEL_CROSS_SCOPE,
    names::FUNNEL_REPORTED,
];

/// Per-op samples of one traced run plus the sums behind its ratios.
#[derive(Default)]
pub struct Acc {
    samples: BTreeMap<&'static str, Vec<f64>>,
    sums: BTreeMap<&'static str, f64>,
}

impl Acc {
    fn push(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_default() += v;
    }

    fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Every [`PER_LAYER`] metric: times are the median over ops, counts
    /// the mean per op, ratios are taken over the run's sums. A layer the
    /// workload never reaches reads 0.
    pub fn metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let plain = self.samples.get("wall.plain").and_then(|s| median(s));
        let traced = self.samples.get("wall.traced").and_then(|s| median(s));
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| {
                let v = match name {
                    "json.mb_per_s" => {
                        ratio(self.sum("json.bytes") / 1e6, self.sum("json.parse_s"))
                    }
                    "prune.report_ratio" => {
                        ratio(self.sum("funnel.reported"), self.sum("funnel.cross_scope"))
                    }
                    "serve.unit_hit_rate" => ratio(
                        self.sum("unit.hits"),
                        self.sum("unit.hits") + self.sum("unit.misses"),
                    ),
                    "trace.unattributed_pct" => {
                        100.0 * ratio(self.sum("op.unattributed_ns"), self.sum("op.ns"))
                    }
                    "trace.overhead_pct" => match (plain, traced) {
                        (Some(p), Some(t)) => 100.0 * ratio(t - p, p),
                        _ => 0.0,
                    },
                    _ => match self.samples.get(name) {
                        None => 0.0,
                        Some(s) if name.ends_with("_ms") => median(s).unwrap_or(0.0),
                        Some(s) => s.iter().sum::<f64>() / s.len() as f64,
                    },
                };
                (name, unit, v)
            })
            .collect()
    }
}

/// Result of one traced run.
pub struct TracedRun {
    pub acc: Acc,
    pub tally: Tally,
    pub rec: Recorder,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ms_d(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Optional span recording: `Tr(None)` makes the same calls untraced.
struct Tr<'a>(Option<&'a mut Recorder>);

impl Tr<'_> {
    fn begin(&mut self, name: &str) -> Option<SpanId> {
        self.0.as_mut().map(|r| r.begin(name))
    }

    fn end(&mut self, id: Option<SpanId>) {
        if let (Some(r), Some(id)) = (self.0.as_mut(), id) {
            r.end(id);
        }
    }

    fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Imports the program spans recorded since `*seen` under `parent`,
    /// anchored at the parent's start.
    fn import(&mut self, obs: &ObsSession, seen: &mut usize, anchor: &str, parent: Option<SpanId>) {
        let records = obs.tracer.records();
        if let (Some(r), Some(parent)) = (self.0.as_mut(), parent) {
            let at = r.span(parent).start_ns;
            r.import(&records[*seen..], anchor, at, parent);
        }
        *seen = records.len();
    }
}

/// The scan sentinel configuration `vcheck` uses with no options.
fn sentinel_config() -> SentinelConfig {
    SentinelConfig {
        fingerprint_salt: salt_strings(&[]),
        ..SentinelConfig::default()
    }
}

/// The front-end counters `vcheck` records before the pipeline runs.
fn record_recover(obs: &ObsSession, errors: &[BuildError], stats: &RecoverStats) {
    let r = &obs.registry;
    r.add(names::HARDEN_PARSE_FAILURES, errors.len() as u64);
    r.add(names::RECOVER_LEX_ERRORS, stats.lex_errors);
    r.add(names::RECOVER_PARSE_ERRORS, stats.parse_errors);
    r.add(names::RECOVER_POISONED_STMTS, stats.poisoned_stmts);
    r.add(names::RECOVER_FUNCTIONS_DROPPED, stats.functions_dropped);
    r.add(names::RECOVER_FILES_DROPPED, stats.files_dropped);
}

struct ScanOp {
    csv: String,
    wall: Duration,
    sources: Vec<(String, String)>,
    functions: usize,
    insts: usize,
}

/// `vcheck <dir>` in-process: the calls `scan_main` makes, in its order.
fn scan_op(dir: &Path, mut tr: Tr) -> Result<ScanOp, String> {
    let t = Instant::now();
    let root = tr.begin("cli.op");
    let project = tr
        .time("project.load", || load_dir_or_empty(dir))
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    let obs = ObsSession::new();
    let parse_mem = vc_obs::MemScope::enter(vc_obs::alloc::SCOPE_PARSE);
    let (prog, errors, stats) = tr.time("frontend.build", || {
        Program::build_recovering(&project.source_refs(), &[])
    });
    {
        let _guard = obs.install();
        parse_mem.finish();
    }
    record_recover(&obs, &errors, &stats);
    let pipe = tr.begin("pipeline.run_sentinel");
    let mut analysis = run_sentinel(
        &prog,
        &project.repo,
        &Options::paper(),
        &sentinel_config(),
        obs.clone(),
    );
    tr.end(pipe);
    let front: Vec<FailureRecord> = errors
        .iter()
        .map(|e| FailureRecord {
            stage: FailStage::Parse,
            file: e.file().to_string(),
            function: e.function().map(str::to_string),
            message: e.to_string(),
        })
        .collect();
    analysis.report.failures.splice(0..0, front);
    let csv = tr.time("report.encode", || analysis.report.to_csv());
    tr.end(root);
    let wall = t.elapsed();
    tr.import(&obs, &mut 0, "pipeline.run", pipe);
    Ok(ScanOp {
        csv,
        wall,
        functions: prog.funcs.len(),
        insts: prog.inst_count(),
        sources: project.sources,
    })
}

/// Times `json::parse`, `HistorySpec::from_json` and `HistorySpec::build`
/// on the tree's history; returns the decode and replay times.
fn history_probes(rec: &mut Recorder, acc: &mut Acc, dir: &Path) -> Result<(u64, u64), String> {
    let text = rec
        .time("probe.history.read", || {
            fs::read_to_string(dir.join("history.json"))
        })
        .map_err(|e| e.to_string())?;
    let id = rec.begin("probe.json.parse");
    let doc = json::parse(&text);
    let parse_ns = rec.end(id);
    drop(doc.map_err(|e| e.to_string())?);
    let id = rec.begin("probe.history.decode");
    let spec = HistorySpec::from_json(&text);
    let decode_ns = rec.end(id);
    let spec = spec?;
    let id = rec.begin("probe.history.replay");
    let repo = spec.build();
    let replay_ns = rec.end(id);
    drop(repo);
    acc.push("json.parse_ms", ms(parse_ns));
    acc.add("json.bytes", text.len() as f64);
    acc.add("json.parse_s", parse_ns as f64 / 1e9);
    acc.push("history.decode_ms", ms(decode_ns));
    acc.push("history.replay_ms", ms(replay_ns));
    acc.push("history.bytes", text.len() as f64);
    acc.push("history.commits", spec.commits.len() as f64);
    Ok((decode_ns, replay_ns))
}

/// Times lexing and parsing of `files` (`(file id, source)`) the way the
/// front end does it: with recovery for scans, strictly for revisions.
/// Returns the lex time, the parse time (which lexes again) and tokens.
fn frontend_probes(rec: &mut Recorder, files: &[(u32, &str)], strict: bool) -> (u64, u64, usize) {
    let id = rec.begin("probe.frontend.lex");
    let tokens: usize = files
        .iter()
        .map(|&(i, src)| {
            if strict {
                lex(FileId(i), src).map_or(0, |t| t.len())
            } else {
                lex_recovering(FileId(i), src).0.len()
            }
        })
        .sum();
    let lex_ns = rec.end(id);
    let id = rec.begin("probe.frontend.parse");
    for &(i, src) in files {
        if strict {
            drop(parse(FileId(i), src));
        } else {
            drop(parse_with_recovery(FileId(i), src));
        }
    }
    let parse_ns = rec.end(id);
    (lex_ns, parse_ns, tokens)
}

/// Pushes the front-end layer split of one op: `build_ns` is the whole
/// front-end call, the probes its lexing and parsing.
fn push_frontend(acc: &mut Acc, build_ns: u64, (lex_ns, parse_ns, tokens): (u64, u64, usize)) {
    acc.push("frontend.lex_ms", ms(lex_ns));
    acc.push("frontend.parse_ms", ms(parse_ns.saturating_sub(lex_ns)));
    acc.push("frontend.lower_ms", ms(build_ns.saturating_sub(parse_ns)));
    acc.push("frontend.tokens", tokens as f64);
}

fn push_load(acc: &mut Acc, load_ns: u64, (decode_ns, replay_ns): (u64, u64)) {
    acc.push("project.load_ms", ms(load_ns));
    acc.push(
        "project.read_ms",
        ms(load_ns.saturating_sub(decode_ns + replay_ns)),
    );
}

fn push_stages(acc: &mut Acc, rec: &Recorder, op: u64) {
    for (span, metric) in [
        ("stage.detect", "stage.detect_ms"),
        ("stage.authorship", "stage.authorship_ms"),
        ("stage.prune", "stage.prune_ms"),
        ("stage.rank", "stage.rank_ms"),
    ] {
        acc.push(metric, ms(rec.sum_ns(op, span)));
    }
    // The daemon encodes the report into its reply.
    let encode = rec.sum_ns(op, "report.encode") + rec.sum_ns(op, "serve.reply");
    acc.push("report.encode_ms", ms(encode));
}

/// Op wall time, unattributed time (self time of the op's root span) and
/// the in-process walls of both ways.
fn push_walls(acc: &mut Acc, rec: &Recorder, root: SpanId, plain: Duration, u: Duration) {
    let traced = rec.span(root).dur_ns();
    acc.add("op.ns", traced as f64);
    acc.add("op.unattributed_ns", rec.self_ns(root) as f64);
    acc.push("wall.traced", ms(traced));
    acc.push("wall.plain", ms_d(plain));
    acc.push("process.overhead_ms", ms_d(u) - ms(traced));
}

/// Counters from `vcheck --metrics-json`, per op.
fn push_counters(acc: &mut Acc, path: &Path) -> Result<(), String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| e.to_string())?;
    let counters = doc
        .get("counters")
        .and_then(Json::as_obj)
        .ok_or("metrics export without counters")?;
    let get = |name: &str| {
        counters
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_i64())
            .unwrap_or(0) as f64
    };
    for name in COUNTERS {
        acc.push(name, get(name));
    }
    let pruned: f64 = counters
        .iter()
        .filter(|(k, _)| k.starts_with(names::FUNNEL_PRUNED_PREFIX))
        .filter_map(|(_, v)| v.as_i64())
        .sum::<i64>() as f64;
    acc.push("funnel.pruned", pruned);
    acc.add("funnel.reported", get(names::FUNNEL_REPORTED));
    acc.add("funnel.cross_scope", get(names::FUNNEL_CROSS_SCOPE));
    Ok(())
}

/// Runs `plain` and `traced` in an order that alternates with `i`, so
/// neither side always runs on a warmer cache.
fn both<P, T>(
    i: usize,
    plain: impl FnOnce() -> Result<P, String>,
    traced: impl FnOnce() -> Result<T, String>,
) -> Result<(P, T), String> {
    if i.is_multiple_of(2) {
        let p = plain()?;
        Ok((p, traced()?))
    } else {
        let t = traced()?;
        Ok((plain()?, t))
    }
}

fn same(what: &str, got: &str, want: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what} report differs from the binary's stdout"))
    }
}

/// Runs batches until `seconds` have passed, at least one.
fn until(seconds: f64, mut batch: impl FnMut() -> Result<(), String>) -> Result<(), String> {
    let start = Instant::now();
    loop {
        batch()?;
        if start.elapsed().as_secs_f64() >= seconds {
            return Ok(());
        }
    }
}

pub fn cli_scan(ctx: &Ctx) -> Result<TracedRun, String> {
    let apps: Vec<App> = PROFILES.iter().map(|p| generate_app(p, ctx.seed)).collect();
    let work = WorkDir::create(&ctx.work, "cli_scan_traced").map_err(|e| e.to_string())?;
    for app in &apps {
        app.write_to(&work.join(&app.name))
            .map_err(|e| e.to_string())?;
    }
    let metrics = work.join("metrics.json");
    let mut rec = Recorder::new();
    let mut acc = Acc::default();
    let mut tally = Tally::default();
    let mut i = 0;
    until(ctx.seconds, || {
        for app in &apps {
            let dir = work.join(&app.name);
            let u = run_cli(
                &ctx.vcheck,
                &[
                    dir.as_os_str(),
                    "--metrics-json".as_ref(),
                    metrics.as_os_str(),
                ],
            )?;
            let op = rec.next_op();
            let (p, t) = both(
                i,
                || scan_op(&dir, Tr(None)),
                || scan_op(&dir, Tr(Some(&mut rec))),
            )?;
            i += 1;
            tally.record(
                e2e::check_cli_scan(app, &u)
                    .and_then(|()| same("traced", &t.csv, &u.stdout))
                    .and_then(|()| same("untraced in-process", &p.csv, &u.stdout)),
            );
            let root = rec.find(op, "cli.op").ok_or("no cli.op span")?;
            push_walls(&mut acc, &rec, root, p.wall, u.wall);
            push_stages(&mut acc, &rec, op);
            push_counters(&mut acc, &metrics)?;
            let history = history_probes(&mut rec, &mut acc, &dir)?;
            push_load(&mut acc, rec.sum_ns(op, "project.load"), history);
            let files: Vec<(u32, &str)> = t
                .sources
                .iter()
                .enumerate()
                .map(|(k, (_, src))| (k as u32, src.as_str()))
                .collect();
            let probes = frontend_probes(&mut rec, &files, false);
            push_frontend(&mut acc, rec.sum_ns(op, "frontend.build"), probes);
            acc.push("frontend.functions", t.functions as f64);
            acc.push("frontend.insts", t.insts as f64);
        }
        Ok(())
    })?;
    Ok(TracedRun { acc, tally, rec })
}

const STATUS: &str = "{\"op\":\"status\"}";

pub fn serve(ctx: &Ctx, commit: bool) -> Result<TracedRun, String> {
    let app = generate_app("linux", ctx.seed);
    let work = WorkDir::create(&ctx.work, "serve_traced").map_err(|e| e.to_string())?;
    let dir = work.join("linux");
    app.write_to(&dir).map_err(|e| e.to_string())?;
    let mut tally = Tally::default();
    let mut errors = Vec::new();

    let mut daemon = Daemon::spawn(&ctx.vcheck, &dir)?;
    let (first, _) = daemon.request(SCAN)?;
    let cold = run_cli(&ctx.vcheck, &[&dir])?;
    let reference = cold.stdout.clone();
    if let Err(e) = e2e::check_cli_scan(&app, &cold)
        .and_then(|()| same("first daemon", check::check_scan_reply(&first)?, &reference))
    {
        errors.push(format!("set-up: {e}"));
    }
    let engine = || ServeEngine::new(&dir, ServeConfig::default()).map_err(|e| e.to_string());
    let (mut plain, mut traced) = (engine()?, engine()?);
    plain.handle_line(SCAN, 1);
    traced.handle_line(SCAN, 1);
    let mut seen = traced.obs().tracer.records().len();
    // The tree every request lowers: its size, measured once.
    let (prog, _, _) = Program::build_recovering(
        &app.sources
            .iter()
            .map(|(p, c)| (p.as_str(), c.as_str()))
            .collect::<Vec<_>>(),
        &[],
    );
    let (functions, insts) = (prog.funcs.len() as f64, prog.inst_count() as f64);
    drop(prog);
    let paths: Vec<&String> = {
        let mut p: Vec<&String> = app.sources.iter().map(|(p, _)| p).collect();
        p.sort();
        p
    };
    let mut editor = if commit {
        Some(Editor::new(
            &app.sources,
            &app.history,
            &check::parse_csv(&reference)?,
            ctx.seed,
        )?)
    } else {
        None
    };

    let mut rec = Recorder::new();
    let mut acc = Acc::default();
    let mut last_csv = reference.clone();
    let mut seq = 1;
    until(ctx.seconds, || {
        seq += 1;
        let (line, edit) = match editor.as_mut() {
            Some(ed) => {
                let edit = ed.next_edit();
                ed.write(&dir, &edit).map_err(|e| e.to_string())?;
                (e2e::update_request(&edit.file), Some(edit))
            }
            None => (SCAN.to_string(), None),
        };
        let (u, u_wall) = daemon.request(&line)?;
        let (status, _) = daemon.request(STATUS)?;

        let op = rec.next_op();
        let counters_before: Vec<u64> = COUNTERS
            .iter()
            .map(|n| traced.obs().registry.counter(n))
            .collect();
        let (p, t) = both(
            seq as usize,
            || {
                let t0 = Instant::now();
                let (reply, _) = plain.handle_line(&line, seq);
                Ok((reply, t0.elapsed()))
            },
            || {
                let root = rec.begin("serve.op");
                let hl = rec.begin("serve.handle_line");
                let (reply, _) = traced.handle_line(&line, seq);
                rec.end(hl);
                rec.end(root);
                Ok((reply, root, hl))
            },
        )?;
        let (t_reply, root, hl) = t;
        let mut tr = Tr(Some(&mut rec));
        tr.import(traced.obs(), &mut seen, "serve.request", Some(hl));
        // `ServeEngine::scan` loads the project before it opens its
        // `pipeline.run` span: that interval of `serve.request` (plus a
        // request decode and a tree checksum, microseconds) is the load.
        let request = rec
            .find(op, "serve.request")
            .ok_or("no serve.request span")?;
        let run = rec.find(op, "pipeline.run").ok_or("no pipeline.run span")?;
        let (req_start, run_start) = (rec.span(request).start_ns, rec.span(run).start_ns);
        rec.push("project.load", req_start, run_start, Some(request));

        let outcome = match &edit {
            Some(edit) => e2e::check_commit_reply(&u, edit, &mut last_csv),
            None => check::check_scan_reply(&u).and_then(|csv| same("rescan", csv, &reference)),
        };
        let u_csv = u.get("csv").and_then(Json::as_str).unwrap_or_default();
        tally.record(outcome.and_then(|()| {
            same("traced", check::check_scan_reply(&t_reply)?, u_csv)?;
            same("untraced in-process", check::check_scan_reply(&p.0)?, u_csv)
        }));

        push_walls(&mut acc, &rec, root, p.1, u_wall);
        push_stages(&mut acc, &rec, op);
        let scan_ns = rec
            .span(request)
            .dur_ns()
            .saturating_sub(rec.sum_ns(op, "serve.reply"));
        acc.push("serve.scan_ms", ms(scan_ns));
        acc.push(
            "serve.reply_ms",
            ms(rec.span(hl).dur_ns().saturating_sub(scan_ns)),
        );
        for (name, before) in COUNTERS.iter().zip(counters_before) {
            if name.starts_with("funnel.") {
                continue;
            }
            acc.push(name, (traced.obs().registry.counter(name) - before) as f64);
        }
        let funnel = |k: &str| {
            u.get("funnel")
                .and_then(|f| f.get(k))
                .and_then(Json::as_i64)
                .unwrap_or(0) as f64
        };
        acc.push("funnel.raw", funnel("raw"));
        acc.push("funnel.cross_scope", funnel("cross_scope"));
        acc.push("funnel.pruned", funnel("pruned"));
        acc.push("funnel.reported", funnel("reported"));
        acc.add("funnel.reported", funnel("reported"));
        acc.add("funnel.cross_scope", funnel("cross_scope"));
        let units = |k: &str| u.get(k).and_then(Json::as_i64).unwrap_or(0) as f64;
        acc.add("unit.hits", units("unit_hits"));
        acc.add("unit.misses", units("unit_misses"));
        acc.push("serve.unit_misses", units("unit_misses"));
        acc.push(
            "serve.dirty_ratio",
            status
                .get("cache")
                .and_then(|c| c.get("dirty_ratio"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
        );

        let history = history_probes(&mut rec, &mut acc, &dir)?;
        push_load(&mut acc, rec.sum_ns(op, "project.load"), history);
        // Only the edited file misses the daemon's parse cache.
        let changed: Vec<(u32, String)> = match &edit {
            Some(e) => {
                let k = paths.iter().position(|p| **p == e.file).unwrap_or(0) as u32;
                vec![(
                    k,
                    fs::read_to_string(dir.join(&e.file)).map_err(|e| e.to_string())?,
                )]
            }
            None => Vec::new(),
        };
        let files: Vec<(u32, &str)> = changed.iter().map(|(k, s)| (*k, s.as_str())).collect();
        let probes = frontend_probes(&mut rec, &files, false);
        push_frontend(&mut acc, rec.sum_ns(op, "serve.parse"), probes);
        acc.push("frontend.functions", functions);
        acc.push("frontend.insts", insts);
        Ok(())
    })?;
    if commit {
        let cold = run_cli(&ctx.vcheck, &[&dir])?;
        if cold.stdout != last_csv {
            errors.push("last reply differs from a cold scan of the final tree".into());
        }
    }
    if let Err(e) = daemon.shutdown() {
        errors.push(e);
    }
    for e in errors {
        tally.fail_last(e);
    }
    Ok(TracedRun { acc, tally, rec })
}

struct DeltaOp {
    csv: String,
    wall: Duration,
    /// Each side's sorted sources.
    sides: Vec<Vec<(String, String)>>,
    /// Functions and instructions lowered, both sides.
    functions: usize,
    insts: usize,
}

/// `vcheck delta <dir> --from HEAD~20 --to HEAD` in-process: the calls
/// `delta_main` and `delta_scan` make, with `run_at_commit` and
/// `scan_revision` spelled out so the checkout has its own spans.
fn delta_op(dir: &Path, mut tr: Tr) -> Result<DeltaOp, String> {
    let t = Instant::now();
    let root = tr.begin("delta.op");
    let project = tr
        .time("project.load", || load_dir(dir))
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    let repo = &project.repo;
    let commits = repo.commits();
    let (from, to) = (
        commits[commits
            .len()
            .checked_sub(21)
            .ok_or("history shorter than HEAD~20")?]
        .id,
        commits[commits.len() - 1].id,
    );
    let obs = ObsSession::new();
    let _guard = obs.install();
    let sconf = sentinel_config();
    let mut seen = 0;
    let mut scans = Vec::new();
    // The CLI keeps each side's program and analysis until it exits.
    let mut kept = Vec::new();
    let (mut functions, mut insts) = (0, 0);
    for (side, commit) in [("from", from), ("to", to)] {
        let rev = tr.begin(if side == "from" {
            "delta.revision.from"
        } else {
            "delta.revision.to"
        });
        let tree = tr.time("vcs.checkout", || repo.snapshot_at(commit));
        let mut sources: Vec<(&str, &str)> =
            tree.iter().map(|(p, c)| (p.as_str(), c.as_str())).collect();
        sources.sort_by_key(|(p, _)| p.to_string());
        let prog = tr
            .time("frontend.build", || Program::build(&sources, &[]))
            .map_err(|e| e.to_string())?;
        let repo_at = tr.time("vcs.checkout", || repo.checkout(commit));
        let pipe = tr.begin("pipeline.run_sentinel");
        let analysis = run_sentinel(
            &prog,
            &repo_at,
            &Options::paper(),
            &side_sentinel(&sconf, side),
            obs.clone(),
        );
        tr.end(pipe);
        // `run_at_commit` drops its checkout before it returns.
        drop(repo_at);
        let findings = tr.time("delta.fingerprint", || {
            fingerprint_ranked(&prog, &analysis.ranked)
        });
        let snapshot = tr.time("vcs.checkout", || repo.snapshot_at(commit));
        tr.end(rev);
        tr.import(&obs, &mut seen, "pipeline.run", pipe);
        functions += prog.funcs.len();
        insts += prog.inst_count();
        scans.push((findings, snapshot));
        kept.push((prog, analysis));
    }
    let report = tr.time("delta.classify", || {
        let r = classify(
            &scans[0].0,
            &scans[1].0,
            &scans[0].1,
            &scans[1].1,
            &HashSet::new(),
        );
        r.record_metrics();
        r
    });
    let csv = tr.time("report.encode", || report.to_csv());
    tr.end(root);
    let wall = t.elapsed();
    let sides = scans
        .into_iter()
        .map(|(_, snapshot)| {
            let mut files: Vec<(String, String)> = snapshot.into_iter().collect();
            files.sort();
            files
        })
        .collect();
    Ok(DeltaOp {
        csv,
        wall,
        sides,
        functions,
        insts,
    })
}

pub fn delta_gate(ctx: &Ctx) -> Result<TracedRun, String> {
    let app = generate_app("linux", ctx.seed);
    let work = WorkDir::create(&ctx.work, "delta_traced").map_err(|e| e.to_string())?;
    let dir = work.join("linux");
    app.write_to(&dir).map_err(|e| e.to_string())?;
    let cold = run_cli(&ctx.vcheck, &[&dir])?;
    let mut tally = Tally::default();
    let setup = e2e::check_cli_scan(&app, &cold);
    let head_rows = check::parse_csv(&cold.stdout).map_or(0, |r| r.len());
    let metrics = work.join("metrics.json");
    let mut args = e2e::delta_args(&dir);
    args.push("--metrics-json".into());
    args.push(metrics.clone().into_os_string());
    let mut rec = Recorder::new();
    let mut acc = Acc::default();
    let mut i = 0;
    until(ctx.seconds, || {
        let u = run_cli(&ctx.vcheck, &args)?;
        let op = rec.next_op();
        let (p, t) = both(
            i,
            || delta_op(&dir, Tr(None)),
            || delta_op(&dir, Tr(Some(&mut rec))),
        )?;
        i += 1;
        tally.record(
            e2e::check_delta(&u, head_rows)
                .and_then(|()| same("traced", &t.csv, &u.stdout))
                .and_then(|()| same("untraced in-process", &p.csv, &u.stdout)),
        );
        let root = rec.find(op, "delta.op").ok_or("no delta.op span")?;
        push_walls(&mut acc, &rec, root, p.wall, u.wall);
        push_stages(&mut acc, &rec, op);
        push_counters(&mut acc, &metrics)?;
        acc.push("vcs.checkout_ms", ms(rec.sum_ns(op, "vcs.checkout")));
        acc.push(
            "delta.revision_from_ms",
            ms(rec.sum_ns(op, "delta.revision.from")),
        );
        acc.push(
            "delta.revision_to_ms",
            ms(rec.sum_ns(op, "delta.revision.to")),
        );
        acc.push("delta.classify_ms", ms(rec.sum_ns(op, "delta.classify")));
        let history = history_probes(&mut rec, &mut acc, &dir)?;
        push_load(&mut acc, rec.sum_ns(op, "project.load"), history);
        let files: Vec<(u32, &str)> = t
            .sides
            .iter()
            .flat_map(|s| {
                s.iter()
                    .enumerate()
                    .map(|(k, (_, c))| (k as u32, c.as_str()))
            })
            .collect();
        let probes = frontend_probes(&mut rec, &files, true);
        push_frontend(&mut acc, rec.sum_ns(op, "frontend.build"), probes);
        acc.push("frontend.functions", t.functions as f64);
        acc.push("frontend.insts", t.insts as f64);
        Ok(())
    })?;
    if let Err(e) = setup {
        tally.fail_last(format!("set-up: {e}"));
    }
    Ok(TracedRun { acc, tally, rec })
}

#[cfg(test)]
mod tests {
    use std::{path::PathBuf, process::Command};

    use super::*;

    /// The target directory this test was built into.
    fn target_dir() -> PathBuf {
        // <target>/<profile>/deps/e2ebench-<hash>
        let exe = std::env::current_exe().expect("test executable path");
        exe.ancestors()
            .nth(3)
            .expect("inside a target dir")
            .to_path_buf()
    }

    /// The release `vcheck` in the same target directory, built from the
    /// repository's workspace when it is not there yet.
    fn vcheck_bin() -> PathBuf {
        let target = target_dir();
        let bin = target.join("release").join("vcheck");
        if !bin.exists() {
            let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../Cargo.toml");
            let status = Command::new(std::env::var("CARGO").unwrap_or("cargo".into()))
                .args([
                    "build",
                    "--release",
                    "--offline",
                    "--quiet",
                    "-p",
                    "valuecheck",
                ])
                .args(["--bin", "vcheck", "--manifest-path"])
                .arg(manifest)
                .env("CARGO_TARGET_DIR", &target)
                .status()
                .expect("run cargo");
            assert!(status.success(), "building vcheck failed");
        }
        bin
    }

    #[test]
    fn traced_reports_equal_the_binarys_stdout() {
        let vcheck = vcheck_bin();
        let app = generate_app("openssl", 3);
        let dir = target_dir().join(format!("e2ebench-test-{}", std::process::id()));
        app.write_to(&dir).unwrap();

        let cli = run_cli(&vcheck, &[&dir]).unwrap();
        e2e::check_cli_scan(&app, &cli).unwrap();
        let mut rec = Recorder::new();
        let op = rec.next_op();
        assert_eq!(scan_op(&dir, Tr(Some(&mut rec))).unwrap().csv, cli.stdout);
        assert_eq!(scan_op(&dir, Tr(None)).unwrap().csv, cli.stdout);
        for layer in [
            "project.load",
            "frontend.build",
            "pipeline.run",
            "stage.detect",
            "stage.authorship",
            "stage.prune",
            "stage.rank",
            "report.encode",
        ] {
            assert!(rec.find(op, layer).is_some(), "no {layer} span");
        }
        let root = rec.find(op, "cli.op").unwrap();
        assert!(
            rec.self_ns(root) * 20 < rec.span(root).dur_ns(),
            "over 5 % unattributed"
        );

        let delta = run_cli(&vcheck, &e2e::delta_args(&dir)).unwrap();
        e2e::check_delta(&delta, check::parse_csv(&cli.stdout).unwrap().len()).unwrap();
        let op = rec.next_op();
        assert_eq!(
            delta_op(&dir, Tr(Some(&mut rec))).unwrap().csv,
            delta.stdout
        );
        assert!(rec.sum_ns(op, "vcs.checkout") > 0);
        assert!(rec.find(op, "delta.revision.to").is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
