//! `vcheck` — ValueCheck from the command line.
//!
//! ```text
//! Usage: vcheck <project-dir> [options]
//!        vcheck delta <project-dir> --from REV --to REV [options]
//!        vcheck history <project-dir> [options]
//!        vcheck serve <project-dir> [options]
//!        vcheck tail <event-log> [--since SECS] [--op OP] [--json]
//!
//!   <project-dir>        directory with *.c sources and, ideally, a
//!                        history.json (see vc_vcs::HistorySpec)
//!   --define SYM         enable a preprocessor symbol (repeatable)
//!   --deadline-ms N      wall-clock deadline for the whole scan; on expiry
//!                        the remaining functions are skipped, the partial
//!                        report is printed with every row marked
//!                        low-confidence plus a `deadline exceeded` failure
//!                        record, and vcheck exits 3
//!   --all                keep non-cross-scope unused definitions too
//!   --no-rank            keep detection order instead of DOK ranking
//!   --no-prune           disable all pruning patterns
//!   --top N              print only the N highest-priority findings
//!   --json               emit findings as JSON instead of CSV
//!   --stats              print a metrics summary (funnel, fixpoint counters,
//!                        histograms, harden.* degradations) to stderr
//!   --metrics-json FILE  write the full metrics snapshot as JSON
//!   --trace FILE         write a Chrome trace_event file of the pipeline
//!                        spans (open in chrome://tracing or Perfetto)
//!   --profile FILE       write a flamegraph-compatible folded-stack profile
//!                        aggregated from the pipeline spans (span count per
//!                        stack — deterministic and byte-identical for any
//!                        --jobs; feed to flamegraph.pl or speedscope).
//!                        `--stats` additionally prints the top self-time
//!                        frames.
//!   --budget-steps N     cap the Andersen and liveness fixpoints at N steps
//!                        each; exhaustion degrades gracefully instead of
//!                        hanging (see DESIGN.md "Robustness")
//!   --budget-ms N        wall-clock cap per fixpoint solve, in milliseconds
//!   --jobs N             worker threads for the supervised scan executor
//!                        (default: available parallelism; report output is
//!                        byte-identical for any N)
//!   --retry K            attempts per scan unit before it is marked
//!                        failed-permanent (default 3)
//!   --unit-deadline-ms N per-unit wall-clock deadline enforced by the
//!                        supervisor; late units are requeued
//!   --journal FILE       write an append-only crash-safe scan journal
//!                        (checkpoint every completed function)
//!   --resume             replay the journal and skip already-completed
//!                        units (implies --journal; default path is
//!                        <project-dir>/scan.journal)
//!   --fail-fast          debugging mode: abort on the first parse error or
//!                        panic instead of isolating and continuing
//! ```
//!
//! Malformed source files are reported to stderr (with line:column spans)
//! and skipped; analysis continues over the files that parse. A directory
//! with zero `.c` files is a clean project: empty report, exit 0.
//!
//! Exit status contract (scan): 0 with no findings, 1 with findings, 2 on
//! usage/load errors (or when every file fails to parse), 3 when
//! `--deadline-ms` expired and the report is partial. An exit status of 3
//! means the printed findings are real but incomplete — re-run with a
//! larger deadline for the full report.
//!
//! The `delta` subcommand scans two revisions of the project's history and
//! classifies every finding as new / fixed / persisting using drift-stable
//! fingerprints (see DESIGN.md §10):
//!
//! ```text
//!   --from REV           old revision (HEAD, HEAD~N, or a commit id)
//!   --to REV             new revision
//!   --baseline FILE      suppress would-be-new findings whose fingerprint
//!                        appears in this snapshot store
//!   --write-baseline FILE  save the new revision's findings as a store
//!                        (usable as a later --baseline)
//! ```
//!
//! plus `--define/--all/--no-rank/--no-prune/--json/--stats/--metrics-json/
//! --jobs/--retry/--unit-deadline-ms/--journal/--resume` with the same
//! meanings as the main scan (the journal gains `.from`/`.to` suffixes, one
//! per side; `--resume` defaults it to `<project-dir>/delta.journal`).
//! Exit status: 0 when no *new* findings, 1 when new findings are present
//! (the CI gate), 2 on usage/load errors.
//!
//! `delta` and `history` walk the history forward once: each scanned
//! revision gets the tree and blame a checkout at that commit would see,
//! built by the same recovering front end as the main scan, so a broken
//! past revision costs its broken functions (counted under
//! `harden.parse_failures` and listed on stderr per commit), not the run.
//!
//! The `history` subcommand replays **every** commit and drives each
//! finding through the born → persisting → churned → fixed | suppressed
//! lifecycle (see DESIGN.md §12), printing one CSV row per track and
//! persisting the event stream as a findings database:
//!
//! ```text
//!   --db FILE            findings database path (default:
//!                        <project-dir>/findings.lifedb)
//!   --suppress FILE      load the suppression store, and save it back
//!                        with advanced lines / healed fingerprints
//!   --lifecycle-json FILE  write the versioned lifecycle export (funnel,
//!                        per-scenario fix/churn rates, full event stream)
//!   --stats              additionally print the lifecycle funnel table
//! ```
//!
//! plus the shared scan/sentinel options (each replayed commit journals
//! under a `.c<N>` suffix; `--resume` defaults the journal to
//! `<project-dir>/history.journal`). Inline `// vcheck:allow(<scenario>)`
//! annotations suppress the finding on the next line (standalone) or
//! their own line (trailing). Exit status: 0 when nothing is live and
//! unsuppressed at head, 1 otherwise, 2 on usage/load errors. All outputs
//! are byte-identical for any `--jobs` value and across `--resume`.
//!
//! The `serve` subcommand runs vcheck as a long-lived warm-scan daemon
//! speaking JSON-lines over stdin/stdout (see DESIGN.md §14):
//!
//! ```text
//!   --deadline-ms N      default per-request deadline (requests may
//!                        override with a "deadline_ms" field)
//!   --queue-depth N      pending requests before the reader sheds
//!                        (default 64)
//!   --snapshot FILE      flush the latest findings as a snapshot store on
//!                        shutdown/EOF
//!   --trace FILE         write a Chrome trace of every request's span tree
//!                        on shutdown/EOF (same format as scan --trace)
//!   --metrics-json FILE  write the versioned metrics snapshot on
//!                        shutdown/EOF (same schema as scan --metrics-json)
//!   --event-log FILE     append one JSON-lines record per request
//!                        (trace id, op, outcome, latency, flags); the file
//!                        size-rotates to FILE.1 — read with `vcheck tail`
//!   --event-log-max-bytes N  rotation threshold (default 1 MiB)
//! ```
//!
//! plus `--define/--all/--no-rank/--no-prune/--budget-steps/--budget-ms`
//! with scan semantics. Warm replies are byte-identical to a cold scan of
//! the same tree, telemetry enabled or not; every reply carries a monotonic
//! `trace_id`, and `{"op":"status"}` reports per-op latency percentiles,
//! cache effectiveness, and the request funnel (see DESIGN.md §16). Exit
//! status: 0 on `{"op":"shutdown"}` or stdin EOF, 2 when the project
//! directory cannot be read at startup; a `history.json` that fails to
//! load, malformed requests, panics, and deadline overruns are answered
//! on the protocol (an error reply per request), never fatal.
//!
//! The `tail` subcommand renders a serve event log, oldest first (the
//! rotated `.1` generation first, then the live file): `vcheck tail
//! serve.events [--since SECS] [--op scan] [--json]`. Exit status: 0, or
//! 2 when the log does not exist.

use std::{
    path::{Path, PathBuf},
    str::FromStr,
    time::{Duration, Instant},
};

use valuecheck::{
    delta::{
        delta_scan,
        DeltaStatus, //
    },
    eventlog,
    harden::FailureRecord,
    history::{
        history_scan,
        tracks_to_csv, //
    },
    incremental::SnapshotStore,
    pipeline::{
        record_front_end,
        run_sentinel,
        Options, //
    },
    project::{load_dir, load_dir_or_empty},
    prune::PruneConfig,
    rank::RankConfig,
    sentinel::{
        salt_strings,
        SentinelConfig, //
    },
    serve::{run_daemon, ServeConfig, ServeEngine},
    suppress::SuppressStore,
};
use vc_ir::Program;
use vc_obs::{MetricsSnapshot, ObsSession};
use vc_vcs::{
    CommitId,
    Repository, //
};

/// Heap accounting for `mem.*` metrics and trace counter tracks: every
/// allocation in the process is counted and attributed to the pipeline
/// stage (or sentinel worker unit) that made it. See `vc_obs::alloc`.
#[global_allocator]
static ALLOC: vc_obs::CountingAlloc = vc_obs::CountingAlloc;

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    match args.peek().map(String::as_str) {
        Some("delta") => {
            args.next();
            delta_main(args);
        }
        Some("history") => {
            args.next();
            history_main(args);
        }
        Some("serve") => {
            args.next();
            serve_main(args);
        }
        Some("tail") => {
            args.next();
            tail_main(args);
        }
        _ => scan_main(args),
    }
}

// ---------------------------------------------------------------------------
// The shared flag parser
// ---------------------------------------------------------------------------

/// `--define`, `--all`, `--no-rank`, `--no-prune`, `--metrics-json`.
const ANALYSIS: u8 = 1;
/// The batch subcommands' `--stats` and executor flags: `--jobs`,
/// `--retry`, `--unit-deadline-ms`, `--journal`, `--resume`.
const BATCH: u8 = 2;
/// `--budget-steps`, `--budget-ms`.
const BUDGET: u8 = 4;

/// The argument stream, with the value readers every flag shares. Each
/// reader takes the full error message and exits 2 with it when the value
/// is missing or malformed.
struct Args<I>(I);

impl<I: Iterator<Item = String>> Args<I> {
    fn value(&mut self, err: &str) -> String {
        self.0.next().unwrap_or_else(|| die(err))
    }

    fn path(&mut self, err: &str) -> PathBuf {
        PathBuf::from(self.value(err))
    }

    fn number<T: FromStr>(&mut self, err: &str) -> T {
        self.0
            .next()
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| die(err))
    }
}

/// Everything the shared flags set, plus the one positional argument.
struct Common {
    positional: Option<PathBuf>,
    defines: Vec<String>,
    opts: Options,
    sconf: SentinelConfig,
    stats: bool,
    metrics_json: Option<PathBuf>,
}

impl Common {
    /// The positional argument; exits 2 with `missing` when absent.
    fn positional(&self, missing: &str) -> PathBuf {
        self.positional.clone().unwrap_or_else(|| die(missing))
    }

    /// The executor configuration: `--resume` without `--journal` journals
    /// to `dir/<journal>`, and the defines salt the fingerprints.
    fn sentinel(&self, dir: &Path, journal: &str) -> SentinelConfig {
        let mut sconf = self.sconf.clone();
        if sconf.resume && sconf.journal.is_none() {
            sconf.journal = Some(dir.join(journal));
        }
        sconf.fingerprint_salt = salt_strings(&self.defines);
        sconf
    }

    /// `--stats` (to stderr) and `--metrics-json` for a finished run.
    fn emit_metrics(&self, snapshot: &MetricsSnapshot) {
        if self.stats {
            eprint!("{}", snapshot.render_text());
        }
        if let Some(path) = &self.metrics_json {
            write_file(path, snapshot.to_json_export().to_string_pretty());
        }
    }
}

/// Parses one subcommand's arguments: the shared flag `groups`, then the
/// subcommand's `own` flags (it returns `false` for a flag it does not
/// know), then one positional argument. `--help` prints `usage` and exits
/// 0; anything else exits 2 as an unknown argument.
fn parse_args<I: Iterator<Item = String>>(
    args: I,
    groups: u8,
    usage: &str,
    mut own: impl FnMut(&str, &mut Args<I>) -> bool,
) -> Common {
    let mut args = Args(args);
    let mut c = Common {
        positional: None,
        defines: Vec::new(),
        opts: Options::paper(),
        sconf: SentinelConfig::default(),
        stats: false,
        metrics_json: None,
    };
    let (analysis, batch, budget) = (
        groups & ANALYSIS != 0,
        groups & BATCH != 0,
        groups & BUDGET != 0,
    );
    while let Some(a) = args.0.next() {
        match a.as_str() {
            "--define" if analysis => c.defines.push(args.value("--define needs a symbol")),
            "--all" if analysis => c.opts.cross_scope_only = false,
            "--no-rank" if analysis => {
                c.opts.rank = RankConfig {
                    enabled: false,
                    ..RankConfig::default()
                };
            }
            "--no-prune" if analysis => {
                c.opts.prune = PruneConfig {
                    config_dependency: false,
                    cursor: false,
                    unused_hints: false,
                    peer_definitions: false,
                    ..PruneConfig::default()
                };
            }
            "--metrics-json" if analysis => {
                c.metrics_json = Some(args.path("--metrics-json needs a path"));
            }
            "--stats" if batch => c.stats = true,
            "--jobs" if batch => c.sconf.jobs = args.number("--jobs needs a number"),
            "--retry" if batch => {
                c.sconf.retry = args.number::<u32>("--retry needs a number").max(1);
            }
            "--unit-deadline-ms" if batch => {
                let ms = args.number("--unit-deadline-ms needs a number");
                c.sconf.unit_deadline = Some(Duration::from_millis(ms));
            }
            "--journal" if batch => c.sconf.journal = Some(args.path("--journal needs a path")),
            "--resume" if batch => c.sconf.resume = true,
            "--budget-steps" if budget => {
                let n = args.number("--budget-steps needs a number");
                c.opts.harden = c.opts.harden.with_step_budget(n);
            }
            "--budget-ms" if budget => {
                let n = args.number("--budget-ms needs a number");
                c.opts.harden = c.opts.harden.with_time_budget_ms(n);
            }
            "--help" | "-h" => {
                eprintln!("{usage}");
                std::process::exit(0);
            }
            other if own(other, &mut args) => {}
            other if c.positional.is_none() && !other.starts_with('-') => {
                c.positional = Some(PathBuf::from(other));
            }
            other => die(&format!("unknown argument `{other}`")),
        }
    }
    c
}

/// Writes an output file named by a flag; exits 2 when that fails.
fn write_file(path: &Path, text: impl AsRef<[u8]>) {
    std::fs::write(path, text).unwrap_or_else(|e| die(&format!("{}: {e}", path.display())));
}

fn die(msg: &str) -> ! {
    eprintln!("vcheck: {msg}");
    std::process::exit(2);
}

// ---------------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------------

/// Resolves a revision argument: `HEAD`, `HEAD~N`, or a numeric commit id.
fn resolve_rev(repo: &Repository, s: &str) -> Option<CommitId> {
    let commits = repo.commits();
    if let Some(rest) = s.strip_prefix("HEAD") {
        let back: usize = if rest.is_empty() {
            0
        } else {
            rest.strip_prefix('~')?.parse().ok()?
        };
        let idx = commits.len().checked_sub(1 + back)?;
        return Some(commits[idx].id);
    }
    let n: u32 = s.parse().ok()?;
    commits.iter().find(|c| c.id.0 == n).map(|c| c.id)
}

const DELTA_USAGE: &str =
    "Usage: vcheck delta <project-dir> --from REV --to REV [--baseline FILE] \
    [--write-baseline FILE] [--define SYM]... [--all] [--no-rank] \
    [--no-prune] [--json] [--stats] [--metrics-json FILE] [--jobs N] \
    [--retry K] [--unit-deadline-ms N] [--journal FILE] [--resume]";

fn delta_main(args: impl Iterator<Item = String>) -> ! {
    let mut from_rev: Option<String> = None;
    let mut to_rev: Option<String> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut write_baseline: Option<PathBuf> = None;
    let mut json = false;
    let c = parse_args(args, ANALYSIS | BATCH, DELTA_USAGE, |flag, args| {
        match flag {
            "--from" => from_rev = Some(args.value("--from needs a REV")),
            "--to" => to_rev = Some(args.value("--to needs a REV")),
            "--baseline" => baseline = Some(args.path("--baseline needs a path")),
            "--write-baseline" => {
                write_baseline = Some(args.path("--write-baseline needs a path"));
            }
            "--json" => json = true,
            _ => return false,
        }
        true
    });
    let dir = c.positional("missing <project-dir>");
    let from_rev = from_rev.unwrap_or_else(|| die("delta needs --from REV"));
    let to_rev = to_rev.unwrap_or_else(|| die("delta needs --to REV"));

    let project = load_dir(&dir).unwrap_or_else(|e| die(&format!("{}: {e}", dir.display())));
    if !project.has_history {
        die("delta needs a history.json (two revisions to compare)");
    }
    let repo = &project.repo;
    let from = resolve_rev(repo, &from_rev)
        .unwrap_or_else(|| die(&format!("cannot resolve --from revision `{from_rev}`")));
    let to = resolve_rev(repo, &to_rev)
        .unwrap_or_else(|| die(&format!("cannot resolve --to revision `{to_rev}`")));

    let baseline_set = match &baseline {
        Some(path) => {
            if !path.exists() {
                die(&format!("--baseline {}: file not found", path.display()));
            }
            SnapshotStore::load(path).fingerprint_set()
        }
        None => Default::default(),
    };

    let sconf = c.sentinel(&dir, "delta.journal");
    let obs = ObsSession::new();
    let outcome = delta_scan(
        repo,
        from,
        to,
        &c.defines,
        &c.opts,
        &sconf,
        &baseline_set,
        obs.clone(),
    );

    if let Some(path) = &write_baseline {
        let store = SnapshotStore::from_findings(to, &outcome.to.findings);
        store
            .save(path)
            .unwrap_or_else(|e| die(&format!("{}: {e}", path.display())));
    }

    for side in [&outcome.from, &outcome.to] {
        print_failures(
            &format!("vcheck delta: commit {}", side.commit.0),
            &side.failures,
        );
    }
    let report = &outcome.report;
    eprintln!(
        "vcheck delta: {} new, {} fixed, {} persisting, {} churned, {} suppressed (commit {} -> \
         {})",
        report.count(DeltaStatus::New),
        report.count(DeltaStatus::Fixed),
        report.count(DeltaStatus::Persisting),
        report.count(DeltaStatus::Churned),
        report.count(DeltaStatus::Suppressed),
        from.0,
        to.0,
    );
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.to_csv());
    }
    c.emit_metrics(&obs.registry.snapshot());
    std::process::exit(if report.has_new() { 1 } else { 0 });
}

const HISTORY_USAGE: &str = "Usage: vcheck history <project-dir> [--db FILE] [--suppress FILE] \
    [--lifecycle-json FILE] [--define SYM]... [--all] [--no-rank] \
    [--no-prune] [--stats] [--metrics-json FILE] [--jobs N] [--retry K] \
    [--unit-deadline-ms N] [--journal FILE] [--resume]";

fn history_main(args: impl Iterator<Item = String>) -> ! {
    let mut db_path: Option<PathBuf> = None;
    let mut suppress_path: Option<PathBuf> = None;
    let mut lifecycle_json: Option<PathBuf> = None;
    let c = parse_args(args, ANALYSIS | BATCH, HISTORY_USAGE, |flag, args| {
        match flag {
            "--db" => db_path = Some(args.path("--db needs a path")),
            "--suppress" => suppress_path = Some(args.path("--suppress needs a path")),
            "--lifecycle-json" => {
                lifecycle_json = Some(args.path("--lifecycle-json needs a path"));
            }
            _ => return false,
        }
        true
    });
    let dir = c.positional("missing <project-dir>");

    let project = load_dir(&dir).unwrap_or_else(|e| die(&format!("{}: {e}", dir.display())));
    if !project.has_history {
        die("history needs a history.json (commits to replay)");
    }

    let sconf = c.sentinel(&dir, "history.journal");
    let suppress = match &suppress_path {
        Some(path) => SuppressStore::load(path),
        None => SuppressStore::default(),
    };

    let obs = ObsSession::new();
    let outcome = history_scan(
        &project.repo,
        &c.defines,
        &c.opts,
        &sconf,
        suppress,
        obs.clone(),
    );

    let db_path = db_path.unwrap_or_else(|| dir.join("findings.lifedb"));
    outcome
        .db
        .save(&db_path)
        .unwrap_or_else(|e| die(&format!("{}: {e}", db_path.display())));
    if let Some(path) = &suppress_path {
        // Persist the maintenance: advanced lines, healed fingerprints.
        outcome
            .suppress
            .save(path)
            .unwrap_or_else(|e| die(&format!("{}: {e}", path.display())));
    }

    let funnel = outcome.db.funnel();
    eprintln!(
        "vcheck history: {} commits, {} born, {} fixed, {} suppressed, {} live (head {})",
        outcome.commits,
        funnel.born,
        funnel.fixed,
        funnel.suppressed,
        funnel.live,
        outcome.head.map(|c| c.0 as i64).unwrap_or(-1),
    );
    for (commit, failures) in &outcome.failures {
        print_failures(&format!("vcheck history: commit {}", commit.0), failures);
    }
    print!("{}", tracks_to_csv(&outcome.db));

    if c.stats {
        eprint!("{}", outcome.db.render_funnel());
    }
    if let Some(path) = &lifecycle_json {
        write_file(path, outcome.db.to_json_export().to_string_pretty());
    }
    c.emit_metrics(&obs.registry.snapshot());
    std::process::exit(if funnel.live > 0 { 1 } else { 0 });
}

const SERVE_USAGE: &str =
    "Usage: vcheck serve <project-dir> [--define SYM]... [--all] [--no-rank] \
    [--no-prune] [--deadline-ms N] [--queue-depth N] [--budget-steps N] \
    [--budget-ms N] [--snapshot FILE] [--trace FILE] [--metrics-json FILE] \
    [--event-log FILE] [--event-log-max-bytes N]\n\nRequests (JSON lines \
    on stdin): {\"op\":\"scan\"}, {\"op\":\"update\",\"files\":[..]}, \
    {\"op\":\"status\"}, {\"op\":\"shutdown\"}";

fn serve_main(args: impl Iterator<Item = String>) -> ! {
    let mut config = ServeConfig::default();
    let c = parse_args(args, ANALYSIS | BUDGET, SERVE_USAGE, |flag, args| {
        match flag {
            "--deadline-ms" => {
                let ms = args.number("--deadline-ms needs a number");
                config.deadline = Some(Duration::from_millis(ms));
            }
            "--queue-depth" => {
                config.queue_depth = args.number::<usize>("--queue-depth needs a number").max(1);
            }
            "--snapshot" => config.snapshot = Some(args.path("--snapshot needs a path")),
            "--trace" => config.trace = Some(args.path("--trace needs a path")),
            "--event-log" => config.event_log = Some(args.path("--event-log needs a path")),
            "--event-log-max-bytes" => {
                config.event_log_max_bytes = args.number("--event-log-max-bytes needs a number");
            }
            _ => return false,
        }
        true
    });
    let dir = c.positional("missing <project-dir>");
    config.opts = c.opts;
    config.defines = c.defines;
    config.metrics_json = c.metrics_json;
    let engine =
        ServeEngine::new(&dir, config).unwrap_or_else(|e| die(&format!("{}: {e}", dir.display())));
    eprintln!(
        "vcheck serve: watching {} (JSON lines on stdin)",
        dir.display()
    );
    let code = run_daemon(
        engine,
        std::io::BufReader::new(std::io::stdin()),
        std::io::stdout(),
    );
    std::process::exit(code);
}

const TAIL_USAGE: &str = "Usage: vcheck tail <event-log> [--since SECS] [--op OP] [--json]\n\n\
    Renders a `vcheck serve --event-log` file, oldest first (including the \
    rotated `.1` generation).\n  --since SECS  only events from the last \
    SECS seconds\n  --op OP       only events for one op (scan, update, \
    status, ...)\n  --json        raw JSON records instead of rendered lines";

/// `vcheck tail FILE`: renders a serve event log (see DESIGN.md §16) as
/// human-readable lines, oldest first, across the rotation boundary.
fn tail_main(args: impl Iterator<Item = String>) -> ! {
    let mut since: Option<u64> = None;
    let mut op: Option<String> = None;
    let mut json = false;
    let c = parse_args(args, 0, TAIL_USAGE, |flag, args| {
        match flag {
            "--since" => since = Some(args.number("--since needs a number of seconds")),
            "--op" => op = Some(args.value("--op needs an op name")),
            "--json" => json = true,
            _ => return false,
        }
        true
    });
    let path = c.positional("missing <event-log> path");
    if !path.exists() && !eventlog::EventLog::rotated_path(&path).exists() {
        die(&format!("{}: no such event log", path.display()));
    }
    let cutoff_ms = since.map(|s| eventlog::now_ms().saturating_sub(s.saturating_mul(1000)));
    let mut shown = 0usize;
    for ev in eventlog::read_events(&path) {
        if cutoff_ms.is_some_and(|c| ev.ts_ms < c) {
            continue;
        }
        if op.as_deref().is_some_and(|want| ev.op != want) {
            continue;
        }
        if json {
            println!("{}", ev.raw.to_string());
        } else {
            println!("{}", ev.render());
        }
        shown += 1;
    }
    eprintln!("vcheck tail: {shown} event(s)");
    std::process::exit(0);
}

const SCAN_USAGE: &str = "Usage: vcheck <project-dir> [--define SYM]... [--all] [--no-rank] \
    [--no-prune] [--top N] [--json] [--stats] [--metrics-json FILE] [--trace \
    FILE] [--profile FILE] [--budget-steps N] [--budget-ms N] \
    [--deadline-ms N] [--jobs N] [--retry K] [--unit-deadline-ms N] \
    [--journal FILE] [--resume] [--fail-fast]\n       vcheck delta \
    <project-dir> --from REV --to REV [options] (see `vcheck delta \
    --help`)\n       vcheck history <project-dir> [options] (see `vcheck \
    history --help`)\n       vcheck serve <project-dir> [options] (see \
    `vcheck serve --help`)";

/// Lists a scan's failure records on stderr, each line prefixed `who:`.
fn print_failures(who: &str, failures: &[FailureRecord]) {
    if failures.is_empty() {
        return;
    }
    eprintln!(
        "{who}: {} unit(s) of work failed and were isolated:",
        failures.len()
    );
    for f in failures {
        eprintln!("{who}:   {f}");
    }
}

fn scan_main(args: impl Iterator<Item = String>) -> ! {
    let mut top: Option<usize> = None;
    let mut json = false;
    let mut trace: Option<PathBuf> = None;
    let mut profile: Option<PathBuf> = None;
    let mut fail_fast = false;
    let mut deadline_ms: Option<u64> = None;
    let c = parse_args(args, ANALYSIS | BATCH | BUDGET, SCAN_USAGE, |flag, args| {
        match flag {
            "--deadline-ms" => deadline_ms = Some(args.number("--deadline-ms needs a number")),
            "--top" => top = Some(args.number("--top needs a number")),
            "--json" => json = true,
            "--fail-fast" => fail_fast = true,
            "--trace" => trace = Some(args.path("--trace needs a path")),
            "--profile" => profile = Some(args.path("--profile needs a path")),
            _ => return false,
        }
        true
    });
    // The deadline covers the whole scan, project load included.
    let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let dir = c.positional("missing <project-dir>");

    // A directory with no `.c` files is a clean project (empty report,
    // exit 0), not a usage error — CI can point vcheck at a repo that
    // happens to contain no C sources.
    let project =
        load_dir_or_empty(&dir).unwrap_or_else(|e| die(&format!("{}: {e}", dir.display())));
    if !project.has_history && !project.sources.is_empty() {
        eprintln!(
            "vcheck: no history.json found — using a single-author working-tree history; \
             cross-scope detection is limited to library return values"
        );
    }

    let obs = ObsSession::new();
    let mut opts = c.opts;
    if fail_fast {
        opts.harden.isolate = false;
    }
    let parse_mem = vc_obs::MemScope::enter(vc_obs::alloc::SCOPE_PARSE);
    let (prog, parse_errors, recover_stats) = if fail_fast {
        let prog = Program::build(&project.source_refs(), &c.defines)
            .unwrap_or_else(|e| die(&format!("build failed: {e}")));
        (prog, Vec::new(), vc_ir::program::RecoverStats::default())
    } else {
        // Recovering build: corrupted regions cost only themselves. Each
        // error is function-granular when recovery could isolate it, so say
        // which function was dropped/degraded rather than implying the
        // whole file was skipped.
        let (prog, errors, stats) = Program::build_recovering(&project.source_refs(), &c.defines);
        for e in &errors {
            match e.function() {
                Some(func) => eprintln!("vcheck: skipping function {func}: {e}"),
                None => eprintln!("vcheck: skipping file: {e}"),
            }
        }
        if prog.funcs.is_empty() && !errors.is_empty() {
            die("every source file failed to parse");
        }
        (prog, errors, stats)
    };
    {
        // The flush needs the session installed to reach its registry.
        let _g = obs.install();
        parse_mem.finish();
    }

    // Every scan runs on the supervised executor. Under `--fail-fast`
    // isolation is off, so the first panic ends the scan and propagates
    // to the top of the process.
    let sconf = SentinelConfig {
        deadline,
        ..c.sentinel(&dir, "scan.journal")
    };
    let mut analysis = run_sentinel(&prog, &project.repo, &opts, &sconf, obs.clone());
    record_front_end(&obs, &parse_errors, &recover_stats, &mut analysis.report);
    eprintln!(
        "vcheck: {} unused definitions, {} cross-scope, {} pruned, {} reported",
        analysis.raw_candidates,
        analysis.cross_scope_candidates,
        analysis.prune_outcome.total_pruned(),
        analysis.detected()
    );
    if analysis.deadline_exceeded {
        eprintln!(
            "vcheck: deadline of {}ms exceeded — report is partial, every row is marked \
             low-confidence (exit 3)",
            deadline_ms.unwrap_or_default()
        );
    }
    print_failures("vcheck", &analysis.report.failures);

    let mut report = analysis.report.clone();
    if let Some(n) = top {
        report.rows.truncate(n);
    }
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.to_csv());
    }

    c.emit_metrics(&obs.registry.snapshot());
    if c.stats {
        let folded = vc_obs::FoldedProfile::from_records(&obs.tracer.records());
        eprint!("{}", folded.render_top(10));
    }
    if let Some(path) = &trace {
        write_file(path, obs.tracer.to_chrome_json().to_string_pretty());
    }
    if let Some(path) = &profile {
        // The canonical ("logical") view: worker lanes spliced under the
        // pipeline stages, so the stack set is identical for any --jobs N.
        // Weighted by span count, not wall time — wall-clock weights would
        // differ between runs, and the folded file is specified to be
        // byte-identical across --jobs. Self-times live in the --stats
        // top-frames table.
        let folded = vc_obs::FoldedProfile::logical(&obs.tracer.records());
        write_file(path, folded.render(vc_obs::Weight::Samples));
    }
    let code = if analysis.deadline_exceeded {
        3
    } else if report.rows.is_empty() {
        0
    } else {
        1
    };
    std::process::exit(code);
}
