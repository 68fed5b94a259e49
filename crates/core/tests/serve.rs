//! Integration contract of `vcheck serve` telemetry and `vcheck tail`,
//! against the real binary (see DESIGN.md §16).
//!
//! - `{"op":"status"}` works before the first scan: well-formed reply,
//!   `null` percentiles (never NaN or a panic), exit 0 on shutdown;
//! - `--trace` / `--metrics-json` flush on shutdown with the same export
//!   schemas as batch `vcheck scan`;
//! - `--event-log` appends one record per request; `vcheck tail` renders
//!   the stream with `--since` / `--op` / `--json` filters and exits 2 on
//!   a missing log;
//! - the warm history cache hits on the same `history.json` bytes, misses
//!   on new content, never masks a bad history or an uncommitted edit, and
//!   is cleared by a quarantine — every reply equal to a cold scan.

use std::{
    fs,
    io::{BufRead, BufReader, Write},
    path::{Path, PathBuf},
    process::{Child, ChildStdin, ChildStdout, Command, Output, Stdio},
};

use vc_obs::Json;
use vc_vcs::{
    spec::{CommitSpec, WriteSpec},
    HistorySpec, //
};

const BUGGY_FN: &str = "int lib_a(void);\n\
                        int has_bug(void) {\n\
                        int got = lib_a();\n\
                        got = 2;\n\
                        return got;\n\
                        }\n";

fn project(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vc-serve-it-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    for (file, text) in files {
        fs::write(dir.join(file), text).unwrap();
    }
    dir
}

/// Runs `vcheck serve` over the given request lines, returning the exit
/// code and one parsed reply per line.
fn serve(dir: &Path, extra_args: &[&str], requests: &[&str]) -> (i32, Vec<Json>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_vcheck"))
        .arg("serve")
        .arg(dir)
        .args(extra_args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("vcheck serve spawns");
    {
        let stdin = child.stdin.as_mut().unwrap();
        for line in requests {
            // A daemon that refuses to start (missing dir) may exit before
            // reading: the write then fails with a broken pipe, and the
            // exit code and replies below are what the tests check.
            let _ = writeln!(stdin, "{line}");
        }
    }
    let out = child.wait_with_output().expect("serve reaped");
    let replies = String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(|l| vc_obs::json::parse(l).expect("reply is JSON"))
        .collect();
    (out.status.code().unwrap_or(-1), replies)
}

fn tail(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vcheck"))
        .arg("tail")
        .args(args)
        .output()
        .expect("vcheck tail runs")
}

#[test]
fn status_before_first_scan_is_well_formed_and_exits_zero() {
    let dir = project("coldstatus", &[("a.c", BUGGY_FN)]);
    let (code, replies) = serve(&dir, &[], &["{\"op\":\"status\"}", "{\"op\":\"shutdown\"}"]);
    assert_eq!(code, 0);
    assert_eq!(replies.len(), 2);
    let status = &replies[0];
    assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(status.get("warm").and_then(Json::as_bool), Some(false));
    assert_eq!(
        status.get("schema_version").and_then(Json::as_i64),
        Some(vc_obs::METRICS_SCHEMA_VERSION)
    );
    assert!(status.get("uptime_ms").and_then(Json::as_i64).is_some());
    assert_eq!(status.get("trace_id").and_then(Json::as_i64), Some(1));
    // No scan has ever run: scan/update percentiles are null, not NaN.
    for op in ["scan", "update"] {
        let o = status.get("ops").and_then(|ops| ops.get(op)).unwrap();
        assert_eq!(o.get("count").and_then(Json::as_i64), Some(0), "{op}");
        for pct in ["p50_us", "p95_us", "p99_us"] {
            assert_eq!(o.get(pct), Some(&Json::Null), "{op}.{pct}");
        }
    }
    let text = status.to_string();
    assert!(!text.contains("NaN") && !text.contains("nan"), "{text}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn telemetry_files_flush_and_tail_renders_the_event_log() {
    let dir = project("flush", &[("a.c", BUGGY_FN)]);
    let trace = dir.join("serve.trace.json");
    let metrics = dir.join("serve.metrics.json");
    let log = dir.join("serve.events");
    let (code, replies) = serve(
        &dir,
        &[
            "--trace",
            trace.to_str().unwrap(),
            "--metrics-json",
            metrics.to_str().unwrap(),
            "--event-log",
            log.to_str().unwrap(),
        ],
        &[
            "{\"op\":\"scan\"}",
            "not even json",
            "{\"op\":\"status\"}",
            "{\"op\":\"shutdown\"}",
        ],
    );
    assert_eq!(code, 0);
    assert_eq!(replies.len(), 4);
    // Every reply — ok, error, status, shutdown — carries its trace id.
    let ids: Vec<i64> = replies
        .iter()
        .map(|r| r.get("trace_id").and_then(Json::as_i64).unwrap())
        .collect();
    assert_eq!(ids, vec![1, 2, 3, 4]);
    // The status funnel balances mid-stream: 3 requests so far, 1 error.
    let counters = replies[2].get("counters").unwrap();
    let c = |n: &str| counters.get(n).and_then(Json::as_i64).unwrap();
    assert_eq!(
        c("serve.requests"),
        c("serve.replies") + c("serve.shed") + c("serve.errors") + c("serve.quarantined")
    );
    assert_eq!(c("serve.errors"), 1);
    assert_eq!(
        replies[2].get("event_log_dropped").and_then(Json::as_i64),
        Some(0)
    );

    // Metrics flush: the batch export schema, serve histograms included.
    let m = vc_obs::json::parse(&fs::read_to_string(&metrics).unwrap()).unwrap();
    assert_eq!(
        m.get("schema_version").and_then(Json::as_i64),
        Some(vc_obs::METRICS_SCHEMA_VERSION)
    );
    assert_eq!(
        m.get("env").and_then(Json::as_str),
        Some(vc_obs::env_fingerprint().as_str())
    );
    assert!(m
        .get("histograms")
        .and_then(|h| h.get("serve.latency.scan"))
        .is_some());

    // Trace flush: Chrome trace_event JSON with the request span tree.
    let t = fs::read_to_string(&trace).unwrap();
    for span in ["serve.request", "serve.parse", "pipeline.run"] {
        assert!(t.contains(span), "trace missing {span}");
    }

    // `vcheck tail` renders every request, oldest first.
    let out = tail(&[log.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "{text}");
    assert!(lines[0].contains("trace=1") && lines[0].contains("scan"));
    assert!(lines[1].contains("error"), "{}", lines[1]);
    assert!(lines[3].contains("shutdown"));

    // --op filters to one op; --json emits the raw records.
    let out = tail(&[log.to_str().unwrap(), "--op", "scan"]);
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(text.lines().count(), 1, "{text}");
    assert!(text.contains("raw="), "scan records carry funnel deltas");
    let out = tail(&[log.to_str().unwrap(), "--op", "scan", "--json"]);
    let text = String::from_utf8(out.stdout).unwrap();
    let rec = vc_obs::json::parse(text.lines().next().unwrap()).unwrap();
    assert_eq!(rec.get("op").and_then(Json::as_str), Some("scan"));
    assert_eq!(rec.get("outcome").and_then(Json::as_str), Some("ok"));
    assert!(rec.get("funnel").is_some());

    // --since 0 means "events newer than now": nothing qualifies.
    let out = tail(&[log.to_str().unwrap(), "--since", "0"]);
    assert_eq!(String::from_utf8(out.stdout).unwrap().trim(), "");
    // A generous window keeps everything.
    let out = tail(&[log.to_str().unwrap(), "--since", "3600"]);
    assert_eq!(String::from_utf8(out.stdout).unwrap().lines().count(), 4);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn tail_of_a_missing_log_exits_two() {
    let out = tail(&["/nonexistent/serve.events"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn missing_dir_exits_two_and_bad_history_is_answered_per_request() {
    let missing = std::env::temp_dir().join(format!("vc-serve-it-{}-none", std::process::id()));
    let (code, replies) = serve(&missing, &[], &["{\"op\":\"scan\"}"]);
    assert_eq!((code, replies.len()), (2, 0));
    let dir = project(
        "badhist",
        &[("a.c", BUGGY_FN), ("history.json", "{ not json")],
    );
    let (code, replies) = serve(&dir, &[], &["{\"op\":\"scan\"}", "{\"op\":\"shutdown\"}"]);
    assert_eq!(code, 0, "the daemon starts and survives the bad history");
    assert_eq!(replies[0].get("ok").and_then(Json::as_bool), Some(false));
    let error = replies[0].get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("history.json"), "{error}");
    assert_eq!(replies[1].get("ok").and_then(Json::as_bool), Some(true));
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// The warm history cache.

/// `a.c` as alice wrote it: the definition the later overwrite kills.
const A_ALICE: &str = "int lib_a(void);\n\
                       int has_bug(void) {\n\
                       int got = lib_a();\n\
                       return got;\n\
                       }\n";
/// bob's commit: the overwrite, on a line of its own.
const A_BOB: &str = "int lib_a(void);\n\
                     int has_bug(void) {\n\
                     int got = lib_a();\n\
                     got = 2;\n\
                     return got;\n\
                     }\n";
/// carol's commit: she rewrites bob's overwrite.
const A_CAROL: &str = "int lib_a(void);\n\
                       int has_bug(void) {\n\
                       int got = lib_a();\n\
                       got = 3;\n\
                       return got;\n\
                       }\n";
const B_C: &str = "int lib_b(void);\n\
                   int other(void) {\n\
                   int v = lib_b();\n\
                   v = 3;\n\
                   return v;\n\
                   }\n";

fn commit(author: &str, timestamp: i64, writes: &[(&str, &str)]) -> CommitSpec {
    CommitSpec {
        author: author.into(),
        timestamp,
        message: format!("{author} at {timestamp}"),
        writes: writes
            .iter()
            .map(|(path, content)| WriteSpec {
                path: (*path).into(),
                content: (*content).into(),
            })
            .collect(),
    }
}

/// A two-author project whose working tree is the history head.
fn history_project(name: &str) -> (PathBuf, HistorySpec) {
    let spec = HistorySpec {
        commits: vec![
            commit("alice", 100, &[("a.c", A_ALICE), ("b.c", B_C)]),
            commit("bob", 200, &[("a.c", A_BOB)]),
        ],
    };
    let dir = project(
        name,
        &[
            ("a.c", A_BOB),
            ("b.c", B_C),
            ("history.json", &spec.to_json()),
        ],
    );
    (dir, spec)
}

/// Replaces `path` through a temp file and a rename: a new inode and mtime.
fn replace_file(path: &Path, content: &str) {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, content).unwrap();
    fs::rename(&tmp, path).unwrap();
}

/// The cold CLI's stdout for the tree as it is now.
fn cold_csv(dir: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_vcheck"))
        .arg(dir)
        .output()
        .expect("vcheck runs");
    assert!(
        matches!(out.status.code(), Some(0 | 1)),
        "cold scan failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// A `vcheck serve` driven one request at a time, so the test can change
/// the tree between requests.
struct Daemon {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(dir: &Path, panic_seqs: &str) -> Daemon {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_vcheck"));
        cmd.arg("serve")
            .arg(dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if !panic_seqs.is_empty() {
            cmd.env("VCHECK_SERVE_PANIC_SEQS", panic_seqs);
        }
        let mut child = cmd.spawn().expect("vcheck serve spawns");
        let stdin = child.stdin.take().unwrap();
        let stdout = BufReader::new(child.stdout.take().unwrap());
        Daemon {
            child,
            stdin,
            stdout,
        }
    }

    fn request(&mut self, line: &str) -> Json {
        writeln!(self.stdin, "{line}").unwrap();
        self.stdin.flush().unwrap();
        let mut reply = String::new();
        assert!(
            self.stdout.read_line(&mut reply).unwrap() > 0,
            "daemon died"
        );
        vc_obs::json::parse(reply.trim_end()).expect("reply is JSON")
    }

    /// `(hits, misses)` of the history cache, from a `status` reply.
    fn history_counts(&mut self) -> (i64, i64) {
        let status = self.request("{\"op\":\"status\"}");
        let c = |n: &str| {
            status
                .get("counters")
                .and_then(|c| c.get(n))
                .and_then(Json::as_i64)
                .unwrap_or_else(|| panic!("status lists {n}"))
        };
        (
            c("serve.history_cache.hits"),
            c("serve.history_cache.misses"),
        )
    }

    /// Sends `line`, expects an ok reply equal to a cold scan of `dir`, and
    /// returns its CSV.
    fn scan_matching_cold(&mut self, line: &str, dir: &Path) -> String {
        let reply = self.request(line);
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "{}",
            reply.to_string()
        );
        let csv = reply.get("csv").and_then(Json::as_str).unwrap().to_string();
        assert_eq!(csv, cold_csv(dir), "warm reply differs from a cold scan");
        csv
    }

    /// Sends `line` and returns the error of the (required) error reply.
    fn scan_error(&mut self, line: &str) -> String {
        let reply = self.request(line);
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(false),
            "{}",
            reply.to_string()
        );
        reply
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .to_string()
    }

    fn shutdown(mut self) {
        let reply = self.request("{\"op\":\"shutdown\"}");
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(self.child.wait().unwrap().code(), Some(0));
    }
}

const SCAN: &str = "{\"op\":\"scan\"}";

#[test]
fn history_cache_hits_on_same_bytes_and_misses_on_a_new_commit() {
    let (dir, mut spec) = history_project("histcache");
    let mut d = Daemon::spawn(&dir, "");
    assert_eq!(d.history_counts(), (0, 0), "listed before the first scan");

    let before = d.scan_matching_cold(SCAN, &dir);
    assert!(before.contains("a.c,3,has_bug,got,retval,bob,"), "{before}");
    assert_eq!(d.history_counts(), (0, 1), "the first scan decodes");
    d.scan_matching_cold(SCAN, &dir);
    assert_eq!(d.history_counts(), (1, 1), "unchanged bytes hit");

    // Identical bytes under a new inode and mtime: the key is the content.
    replace_file(&dir.join("history.json"), &spec.to_json());
    d.scan_matching_cold(SCAN, &dir);
    assert_eq!(d.history_counts(), (2, 1));

    // A new author rewrites the defining line: new content, so a miss,
    // and the finding is now hers.
    spec.commits.push(commit("carol", 300, &[("a.c", A_CAROL)]));
    fs::write(dir.join("a.c"), A_CAROL).unwrap();
    replace_file(&dir.join("history.json"), &spec.to_json());
    let after = d.scan_matching_cold("{\"op\":\"update\",\"files\":[\"a.c\"]}", &dir);
    assert_eq!(d.history_counts(), (2, 2));
    assert!(after.contains(",carol,"), "{after}");
    assert_ne!(before, after);

    d.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_cached_history_never_masks_a_bad_tree() {
    let (dir, spec) = history_project("histmask");
    let history = dir.join("history.json");
    let mut d = Daemon::spawn(&dir, "");
    d.scan_matching_cold(SCAN, &dir);
    d.scan_matching_cold(SCAN, &dir);
    assert_eq!(d.history_counts(), (1, 1));

    // A broken history is an error, not the cached answer.
    fs::write(&history, "{ not json").unwrap();
    let error = d.scan_error(SCAN);
    assert!(error.contains("history.json"), "{error}");
    assert_eq!(d.history_counts(), (1, 2));

    // Restored history, uncommitted edit: the head check fails on the
    // miss that re-decodes and again on the hit that follows it.
    replace_file(&history, &spec.to_json());
    fs::write(dir.join("a.c"), A_CAROL).unwrap();
    for counts in [(1, 3), (2, 3)] {
        let error = d.scan_error(SCAN);
        assert!(
            error.contains("head does not match working tree"),
            "{error}"
        );
        assert_eq!(d.history_counts(), counts);
    }

    fs::write(dir.join("a.c"), A_BOB).unwrap();
    d.scan_matching_cold(SCAN, &dir);
    assert_eq!(d.history_counts(), (3, 3));
    d.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn quarantine_clears_the_history_cache() {
    let (dir, _) = history_project("histquarantine");
    // Request 2 panics; `status` requests count toward the sequence too.
    let mut d = Daemon::spawn(&dir, "2");
    d.scan_matching_cold(SCAN, &dir);
    let error = d.scan_error(SCAN);
    assert!(error.contains("quarantined"), "{error}");
    assert_eq!(
        d.history_counts(),
        (0, 1),
        "the panic struck before loading"
    );
    d.scan_matching_cold(SCAN, &dir);
    assert_eq!(
        d.history_counts(),
        (0, 2),
        "the quarantine dropped the history"
    );
    d.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_tree_without_history_touches_neither_counter() {
    let dir = project("histnone", &[("a.c", BUGGY_FN)]);
    let mut d = Daemon::spawn(&dir, "");
    d.scan_matching_cold(SCAN, &dir);
    d.scan_matching_cold(SCAN, &dir);
    assert_eq!(d.history_counts(), (0, 0));
    d.shutdown();
    let _ = fs::remove_dir_all(&dir);
}
