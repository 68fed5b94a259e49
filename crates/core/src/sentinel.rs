//! Supervised parallel scan execution with crash-safe journaled checkpoints.
//!
//! The paper scans multi-million-LoC projects where a single run is long
//! enough that OOM kills, crashes, and operator interrupts are the norm.
//! [`harden`](crate::harden) isolates faults *within* a run; this module
//! makes the run itself durable and concurrent:
//!
//! - **Executor.** The per-function detection loop becomes a work queue of
//!   units (one per function) drained by N worker threads (`vcheck --jobs
//!   N`). Each unit runs inside the existing `harden` isolation boundary; a
//!   supervisor loop enforces per-unit deadlines, requeues timed-out and
//!   panicked units with capped exponential backoff, revives poisoned
//!   workers, and converts units that exhaust their attempt budget into
//!   [`FailureRecord`]s. Results merge **deterministically** in unit
//!   (function-index) order, so report output is byte-identical regardless
//!   of `--jobs`. A scan deadline ([`SentinelConfig::deadline`]) stops
//!   scheduling at expiry: the report keeps what finished, marked
//!   low-confidence, plus a `deadline exceeded` failure record.
//! - **Scope.** A [`ScanScope`] says which units a scan need not run: units
//!   outside its file set (the §8.6 per-commit mode) are not units at all,
//!   and a [`UnitCache`] hit (the warm `vcheck serve` daemon) resolves
//!   before scheduling, like a journal-replayed unit but carrying its
//!   [`FnSummary`]. Every production detection path runs through this one
//!   executor.
//! - **Durability.** An append-only journal (`scan.journal`) records each
//!   unit's completion — candidates or permanent failure — as one
//!   checksummed record, with batched fsyncs. `vcheck --resume` replays the
//!   journal, truncates any torn tail record (counted under
//!   `sentinel.torn_record_skips`), skips completed units, and produces the
//!   same report as an uninterrupted run. A fingerprint line binds the
//!   journal to the exact program, configuration, and attempt budget it was
//!   recorded under; a mismatch discards the journal rather than mixing
//!   incompatible results.
//! - **Crash failpoint.** [`arm_crash_plan`] plants a process abort at a
//!   chosen journal offset — optionally mid-record, to manufacture torn
//!   writes — for the kill-at-random-point sweep in the workload crate.
//!
//! The demand pointer oracle is partitioned once (no solving) before any
//! unit is scheduled; components solve lazily under the oracle's own lock
//! when a unit's classification needs indirect-call callees. Component
//! solves are deterministic, so a resumed run merges bit-identical facts
//! with the replayed units.

use std::{
    collections::{BTreeMap, BTreeSet, HashMap, VecDeque},
    fs,
    hash::{DefaultHasher, Hash as _, Hasher as _},
    io::{self, Seek as _, Write as _},
    panic::{catch_unwind, AssertUnwindSafe},
    path::{Path, PathBuf},
    sync::{Condvar, Mutex, MutexGuard},
    thread,
    time::{Duration, Instant},
};

use vc_dataflow::summary::{
    FnSummary,
    SigInterner, //
};
use vc_ir::{
    ir::{
        Callee,
        Inst, //
    },
    FileId,
    FuncId,
    LineCol,
    LocalId,
    Program,
    Span,
    StoreInfo,
    VarKey, //
};
use vc_obs::{ObsSession, MAIN_TID};
use vc_pointer::demand::DemandPointer;

use crate::{
    candidate::{
        Candidate,
        Scenario, //
    },
    detect::{
        demand_oracle,
        detect_unit,
        finalize_pointer_stage,
        DetectConfig,
        DetectOutcome, //
    },
    harden::{
        self,
        FailStage,
        FailpointPlan,
        FailureRecord,
        HardenConfig, //
    },
};

/// On-disk format version of the scan journal. Bumped whenever the record
/// encoding changes; older journals are discarded, never parsed across
/// versions.
pub const JOURNAL_FILE_VERSION: u32 = 1;

/// The journal header line.
const JOURNAL_HEADER: &str = "valuecheck-journal v1";

/// Supervision and durability knobs for the parallel scan executor.
#[derive(Clone, Debug)]
pub struct SentinelConfig {
    /// Worker threads draining the unit queue. `0` means "available
    /// parallelism" (`vcheck --jobs` default).
    pub jobs: usize,
    /// Maximum attempts per unit before it is marked failed-permanent
    /// (`vcheck --retry`). Minimum 1.
    pub retry: u32,
    /// Per-unit wall-clock deadline enforced by the supervisor. A unit
    /// exceeding it is abandoned (its eventual result discarded as stale)
    /// and requeued as a fresh attempt. `None` disables supervision by
    /// deadline; the per-stage `harden` budgets still bound each attempt.
    pub unit_deadline: Option<Duration>,
    /// Base of the capped exponential backoff applied to requeued units:
    /// attempt `k` (1-based retries) waits `backoff_base * 2^(k-1)`,
    /// saturating at [`SentinelConfig::backoff_cap`].
    pub backoff_base: Duration,
    /// Upper bound of the retry backoff.
    pub backoff_cap: Duration,
    /// How many journal records may accumulate between fsyncs. `1` syncs
    /// every record; larger values batch (a crash can lose at most the
    /// unsynced tail — recovery rescans those units).
    pub fsync_every: usize,
    /// Path of the append-only scan journal. `None` runs without
    /// durability.
    pub journal: Option<PathBuf>,
    /// Replay the journal and skip completed units instead of truncating
    /// it (`vcheck --resume`).
    pub resume: bool,
    /// Extra entropy folded into the journal fingerprint by the caller
    /// (e.g. the preprocessor defines, which change the program but not
    /// the source bytes). The unit-cache keys fold it in too.
    pub fingerprint_salt: u64,
    /// Scan deadline (`vcheck --deadline-ms`, a serve request's deadline).
    /// At expiry the executor stops scheduling: queued units are skipped,
    /// every candidate is marked low-confidence, and a `deadline exceeded`
    /// failure record is appended. `None` runs to completion.
    pub deadline: Option<Instant>,
}

impl Default for SentinelConfig {
    fn default() -> Self {
        Self {
            jobs: 0,
            retry: 3,
            unit_deadline: None,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(50),
            fsync_every: 16,
            journal: None,
            resume: false,
            fingerprint_salt: 0,
            deadline: None,
        }
    }
}

impl SentinelConfig {
    /// The worker count after resolving `jobs == 0` to the machine's
    /// available parallelism.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs > 0 {
            return self.jobs;
        }
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// The backoff before retry attempt `attempt` (1-based).
    fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        self.backoff_base
            .saturating_mul(factor)
            .min(self.backoff_cap)
    }
}

// ---------------------------------------------------------------------------
// Crash failpoint (the kill-at-random-point sweep's trigger)
// ---------------------------------------------------------------------------

/// A planted process abort inside the journal writer, for crash testing.
#[derive(Clone, Copy, Debug)]
pub struct CrashPlan {
    /// Abort while appending this unit record (0-based count of unit
    /// records already durably written when the abort fires).
    pub abort_at_record: usize,
    /// How many bytes of that record to write (and fsync) before aborting.
    /// `0` crashes cleanly between records; a positive value manufactures a
    /// torn record, clamped so at least the trailing newline is missing.
    pub torn_bytes: usize,
}

static CRASH_PLAN: Mutex<Option<CrashPlan>> = Mutex::new(None);

/// Arms the process-wide crash plan. The next [`JournalWriter::append`]
/// reaching the planned record writes the configured prefix, fsyncs it, and
/// calls [`std::process::abort`]. Test-only by design — the crash harness
/// re-executes itself in a child process and arms the plan there.
pub fn arm_crash_plan(plan: CrashPlan) {
    *lock(&CRASH_PLAN) = Some(plan);
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A worker that panicked while holding a lock must not cascade into
    // every other thread: the data is still usable (all writes under these
    // locks are atomic at the record level).
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Record encoding
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit over one field, the workspace's standard content hash
/// (journal checksums, unit-cache keys, serve tree checksums, finding
/// fingerprints).
pub(crate) fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    // Field separator so ("ab","c") != ("a","bc").
    fnv1a_bytes(fnv1a_bytes(h, bytes), &[0xFF])
}

/// The FNV-1a 64-bit loop itself: `bytes` folded into `h`, no separator.
pub(crate) fn fnv1a_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

pub(crate) const FNV_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// Escapes a string for the tab/`|`/`,`-delimited journal grammar.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '|' => out.push_str("\\p"),
            ',' => out.push_str("\\c"),
            c => out.push(c),
        }
    }
    out
}

fn unesc(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut it = s.chars();
    while let Some(c) = it.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match it.next()? {
            '\\' => out.push('\\'),
            't' => out.push('\t'),
            'n' => out.push('\n'),
            'p' => out.push('|'),
            'c' => out.push(','),
            _ => return None,
        }
    }
    Some(out)
}

fn enc_span(s: &Span) -> String {
    format!(
        "{}:{}.{}:{}.{}",
        s.file.0, s.start.line, s.start.col, s.end.line, s.end.col
    )
}

fn dec_span(s: &str) -> Option<Span> {
    let mut parts = s.split(':');
    let file = FileId(parts.next()?.parse().ok()?);
    let pos = |p: &str| -> Option<LineCol> {
        let (l, c) = p.split_once('.')?;
        Some(LineCol::new(l.parse().ok()?, c.parse().ok()?))
    };
    let start = pos(parts.next()?)?;
    let end = pos(parts.next()?)?;
    if parts.next().is_some() {
        return None;
    }
    Some(Span { file, start, end })
}

fn enc_key(k: VarKey) -> String {
    match k {
        VarKey::Local(l) => format!("L{}", l.0),
        VarKey::Field(l, f) => format!("F{}.{}", l.0, f),
    }
}

fn dec_key(s: &str) -> Option<VarKey> {
    if let Some(rest) = s.strip_prefix('L') {
        return Some(VarKey::Local(LocalId(rest.parse().ok()?)));
    }
    let rest = s.strip_prefix('F')?;
    let (l, f) = rest.split_once('.')?;
    Some(VarKey::Field(LocalId(l.parse().ok()?), f.parse().ok()?))
}

fn enc_scenario(s: &Scenario) -> String {
    match s {
        Scenario::Overwritten => "O".to_string(),
        Scenario::Param { index } => format!("P{index}"),
        Scenario::RetVal { callees } => {
            let cs: Vec<String> = callees.iter().map(|c| esc(c)).collect();
            format!("R{}", cs.join(","))
        }
    }
}

fn dec_scenario(s: &str) -> Option<Scenario> {
    if s == "O" {
        return Some(Scenario::Overwritten);
    }
    if let Some(rest) = s.strip_prefix('P') {
        return Some(Scenario::Param {
            index: rest.parse().ok()?,
        });
    }
    let rest = s.strip_prefix('R')?;
    let callees = if rest.is_empty() {
        Vec::new()
    } else {
        rest.split(',')
            .map(unesc)
            .collect::<Option<Vec<String>>>()?
    };
    Some(Scenario::RetVal { callees })
}

fn enc_info(i: &StoreInfo) -> String {
    match i {
        StoreInfo::Normal => "N".to_string(),
        StoreInfo::ParamInit { index } => format!("P{index}"),
        StoreInfo::RetVal {
            callee,
            synthetic_dst,
        } => format!("R{}!{}", esc(callee), u8::from(*synthetic_dst)),
        StoreInfo::SelfOffset { delta } => format!("S{delta}"),
    }
}

fn dec_info(s: &str) -> Option<StoreInfo> {
    if s == "N" {
        return Some(StoreInfo::Normal);
    }
    if let Some(rest) = s.strip_prefix('P') {
        return Some(StoreInfo::ParamInit {
            index: rest.parse().ok()?,
        });
    }
    if let Some(rest) = s.strip_prefix('R') {
        let (callee, synth) = rest.rsplit_once('!')?;
        return Some(StoreInfo::RetVal {
            callee: unesc(callee)?,
            synthetic_dst: match synth {
                "0" => false,
                "1" => true,
                _ => return None,
            },
        });
    }
    let rest = s.strip_prefix('S')?;
    Some(StoreInfo::SelfOffset {
        delta: rest.parse().ok()?,
    })
}

/// Encodes one candidate as a `|`-separated field list. The containing
/// function (id and name) lives at the record level, not per candidate.
fn enc_candidate(c: &Candidate) -> String {
    let ows: Vec<String> = c.overwriters.iter().map(enc_span).collect();
    format!(
        "{}|{}|{}|{}|{}|{}|{}{}{}",
        enc_key(c.key),
        esc(&c.var_name),
        enc_span(&c.span),
        enc_scenario(&c.scenario),
        ows.join(","),
        enc_info(&c.info),
        u8::from(c.synthetic),
        u8::from(c.unused_attr),
        u8::from(c.low_confidence),
    )
}

fn dec_candidate(unit: usize, func_name: &str, s: &str) -> Option<Candidate> {
    let fields: Vec<&str> = s.split('|').collect();
    if fields.len() != 7 {
        return None;
    }
    let overwriters = if fields[4].is_empty() {
        Vec::new()
    } else {
        fields[4]
            .split(',')
            .map(dec_span)
            .collect::<Option<Vec<Span>>>()?
    };
    let flags = fields[6].as_bytes();
    if flags.len() != 3 || flags.iter().any(|b| *b != b'0' && *b != b'1') {
        return None;
    }
    Some(Candidate {
        func: FuncId(unit as u32),
        func_name: func_name.to_string(),
        key: dec_key(fields[0])?,
        var_name: unesc(fields[1])?,
        span: dec_span(fields[2])?,
        scenario: dec_scenario(fields[3])?,
        overwriters,
        info: dec_info(fields[5])?,
        synthetic: flags[0] == b'1',
        unused_attr: flags[1] == b'1',
        low_confidence: flags[2] == b'1',
    })
}

/// One journaled unit completion.
#[derive(Clone, Debug)]
pub enum UnitRecord {
    /// The unit scanned to completion (possibly with a cut-short liveness
    /// fixpoint, flagged by `exhausted`).
    Ok {
        /// Function index.
        unit: usize,
        /// Function name (redundant with the index, kept for humans
        /// reading the journal and for decode validation).
        func: String,
        /// Whether the liveness budget ran out (`harden.degraded.liveness`).
        exhausted: bool,
        /// The unit's candidates.
        candidates: Vec<Candidate>,
    },
    /// The unit exhausted its attempts and was marked failed-permanent.
    Fail {
        /// Function index.
        unit: usize,
        /// The failure carried into the report.
        failure: FailureRecord,
    },
}

impl UnitRecord {
    /// The record of a unit of `prog` that completed with `candidates`.
    fn ok(prog: &Program, unit: usize, exhausted: bool, candidates: &[Candidate]) -> UnitRecord {
        UnitRecord::Ok {
            unit,
            func: prog.func(FuncId(unit as u32)).name.clone(),
            exhausted,
            candidates: candidates.to_vec(),
        }
    }

    /// The unit key.
    pub fn unit(&self) -> usize {
        match self {
            UnitRecord::Ok { unit, .. } | UnitRecord::Fail { unit, .. } => *unit,
        }
    }

    fn encode_body(&self) -> String {
        match self {
            UnitRecord::Ok {
                unit,
                func,
                exhausted,
                candidates,
            } => {
                let cands: Vec<String> = candidates.iter().map(enc_candidate).collect();
                format!(
                    "ok {unit}\t{}\t{}\t{}",
                    esc(func),
                    u8::from(*exhausted),
                    cands.join("\t")
                )
            }
            UnitRecord::Fail { unit, failure } => format!(
                "fail {unit}\t{}\t{}\t{}\t{}",
                failure.stage.label(),
                esc(&failure.file),
                esc(failure.function.as_deref().unwrap_or("-")),
                esc(&failure.message),
            ),
        }
    }

    fn decode_body(body: &str) -> Option<UnitRecord> {
        if let Some(rest) = body.strip_prefix("ok ") {
            let mut fields = rest.split('\t');
            let unit: usize = fields.next()?.parse().ok()?;
            let func = unesc(fields.next()?)?;
            let exhausted = match fields.next()? {
                "0" => false,
                "1" => true,
                _ => return None,
            };
            let mut candidates = Vec::new();
            for f in fields {
                if f.is_empty() {
                    continue; // a unit with zero candidates encodes one empty field
                }
                candidates.push(dec_candidate(unit, &func, f)?);
            }
            return Some(UnitRecord::Ok {
                unit,
                func,
                exhausted,
                candidates,
            });
        }
        let rest = body.strip_prefix("fail ")?;
        let mut fields = rest.split('\t');
        let unit: usize = fields.next()?.parse().ok()?;
        let stage = FailStage::from_label(fields.next()?)?;
        let file = unesc(fields.next()?)?;
        let function = unesc(fields.next()?)?;
        let message = unesc(fields.next()?)?;
        if fields.next().is_some() {
            return None;
        }
        Some(UnitRecord::Fail {
            unit,
            failure: FailureRecord {
                stage,
                file,
                function: (function != "-").then_some(function),
                message,
            },
        })
    }

    /// The full journal line for this record: body, tab, `#`-prefixed
    /// FNV-1a checksum of the body, newline.
    fn encode_line(&self) -> String {
        let body = self.encode_body();
        let crc = fnv1a(FNV_SEED, body.as_bytes());
        format!("{body}\t#{crc:016x}\n")
    }
}

/// Splits a checksummed journal line into its verified body.
fn verify_line(line: &str) -> Option<&str> {
    let (body, crc) = line.rsplit_once("\t#")?;
    let want = u64::from_str_radix(crc, 16).ok()?;
    if crc.len() != 16 || fnv1a(FNV_SEED, body.as_bytes()) != want {
        return None;
    }
    Some(body)
}

// ---------------------------------------------------------------------------
// Journal writer
// ---------------------------------------------------------------------------

/// The append-only scan journal: one checksummed line per completed unit,
/// fsynced every [`SentinelConfig::fsync_every`] records.
#[derive(Debug)]
pub struct JournalWriter {
    file: fs::File,
    unsynced: usize,
    fsync_every: usize,
    records_written: usize,
}

impl JournalWriter {
    /// Creates a fresh journal at `path` (truncating any previous one) and
    /// durably writes the header and fingerprint lines.
    pub fn create(path: &Path, fingerprint: u64) -> io::Result<JournalWriter> {
        let mut file = fs::File::create(path)?;
        let fp_body = format!("fingerprint {fingerprint:016x}");
        let fp_crc = fnv1a(FNV_SEED, fp_body.as_bytes());
        file.write_all(format!("{JOURNAL_HEADER}\n{fp_body}\t#{fp_crc:016x}\n").as_bytes())?;
        file.sync_all()?;
        Ok(JournalWriter {
            file,
            unsynced: 0,
            fsync_every: 16,
            records_written: 0,
        })
    }

    /// Reopens an existing journal for appending after a replay, truncating
    /// any torn tail first so new records never concatenate onto a partial
    /// line.
    pub fn reopen(path: &Path, valid_bytes: u64, replayed: usize) -> io::Result<JournalWriter> {
        let mut file = fs::OpenOptions::new().write(true).read(true).open(path)?;
        file.set_len(valid_bytes)?;
        file.seek(io::SeekFrom::End(0))?;
        file.sync_all()?;
        Ok(JournalWriter {
            file,
            unsynced: 0,
            fsync_every: 16,
            records_written: replayed,
        })
    }

    /// Sets the fsync batch size.
    pub fn with_fsync_every(mut self, n: usize) -> JournalWriter {
        self.fsync_every = n.max(1);
        self
    }

    /// Appends one unit record, honouring an armed [`CrashPlan`].
    pub fn append(&mut self, rec: &UnitRecord) -> io::Result<()> {
        let line = rec.encode_line();
        if let Some(plan) = *lock(&CRASH_PLAN) {
            if self.records_written == plan.abort_at_record {
                // The planted crash: write a (possibly torn) prefix, make it
                // durable so recovery actually observes it, and die the way
                // a SIGKILL would — no unwinding, no destructors.
                let torn = plan.torn_bytes.min(line.len().saturating_sub(1));
                let _ = self.file.write_all(&line.as_bytes()[..torn]);
                let _ = self.file.sync_all();
                std::process::abort();
            }
        }
        self.file.write_all(line.as_bytes())?;
        self.records_written += 1;
        self.unsynced += 1;
        if self.unsynced >= self.fsync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Flushes the fsync batch.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.unsynced > 0 {
            self.file.sync_data()?;
            self.unsynced = 0;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Journal replay
// ---------------------------------------------------------------------------

/// The result of replaying a scan journal.
#[derive(Debug, Default)]
pub struct Replay {
    /// Completed units, keyed by unit index. First record wins on
    /// duplicates.
    pub completed: BTreeMap<usize, UnitRecord>,
    /// Byte offset of the end of the last valid record — the truncation
    /// point for reopening the journal in append mode.
    pub valid_bytes: u64,
    /// A torn (checksum-failing or non-UTF-8) final record was skipped.
    pub torn_records: usize,
    /// Checksum-failing records *before* the tail; everything at and after
    /// the first one is discarded and rescanned.
    pub corrupt_records: usize,
    /// Records naming an already-replayed unit (dropped).
    pub duplicate_records: usize,
    /// The journal was missing, unreadable, version-mismatched, or bound to
    /// a different program/config fingerprint; nothing was replayed.
    pub discarded: bool,
}

impl Replay {
    /// Replays the journal at `path`, verifying the header, fingerprint,
    /// and per-record checksums. Never fails: any invalid state degrades to
    /// "replay less" — the executor rescans whatever is not replayed.
    pub fn load(path: &Path, fingerprint: u64) -> Replay {
        let mut out = Replay::default();
        let bytes = match fs::read(path) {
            Ok(b) => b,
            Err(_) => {
                out.discarded = true;
                return out;
            }
        };
        // Header line.
        let header_end = match bytes.iter().position(|b| *b == b'\n') {
            Some(i) => i + 1,
            None => {
                out.discarded = true;
                return out;
            }
        };
        if &bytes[..header_end - 1] != JOURNAL_HEADER.as_bytes() {
            out.discarded = true;
            return out;
        }
        // Fingerprint line.
        let rest = &bytes[header_end..];
        let fp_end = match rest.iter().position(|b| *b == b'\n') {
            Some(i) => i + 1,
            None => {
                out.discarded = true;
                return out;
            }
        };
        let fp_ok = std::str::from_utf8(&rest[..fp_end - 1])
            .ok()
            .and_then(verify_line)
            .and_then(|body| body.strip_prefix("fingerprint "))
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .map(|fp| fp == fingerprint);
        if fp_ok != Some(true) {
            out.discarded = true;
            return out;
        }
        out.valid_bytes = (header_end + fp_end) as u64;

        // Unit records.
        let mut offset = header_end + fp_end;
        while offset < bytes.len() {
            let line_end = bytes[offset..]
                .iter()
                .position(|b| *b == b'\n')
                .map(|i| offset + i + 1);
            let (chunk, complete) = match line_end {
                Some(e) => (&bytes[offset..e - 1], true),
                None => (&bytes[offset..], false),
            };
            let body = std::str::from_utf8(chunk).ok().and_then(verify_line);
            let rec = body.and_then(UnitRecord::decode_body);
            match rec {
                Some(rec) if complete => {
                    if out.completed.contains_key(&rec.unit()) {
                        out.duplicate_records += 1;
                    } else {
                        out.completed.insert(rec.unit(), rec);
                    }
                    offset = line_end.unwrap();
                    out.valid_bytes = offset as u64;
                }
                _ => {
                    // A bad record: torn if it is the file's tail, corrupt
                    // otherwise. Either way nothing after it is trusted —
                    // those units rescan.
                    if line_end.map(|e| e == bytes.len()).unwrap_or(true) {
                        out.torn_records += 1;
                    } else {
                        out.corrupt_records += 1;
                    }
                    break;
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------------

/// Binds a journal to the exact scan it checkpoints: program sources,
/// detection configuration, budgets, and the attempt budget. Two scans with
/// the same fingerprint provably schedule identical unit sets with
/// identical per-unit results.
pub fn scan_fingerprint(
    prog: &Program,
    config: DetectConfig,
    hconf: &HardenConfig,
    sconf: &SentinelConfig,
) -> u64 {
    let mut h = FNV_SEED;
    for f in prog.source.iter() {
        h = fnv1a(h, f.name.as_bytes());
        h = fnv1a(h, f.content.as_bytes());
    }
    let budget_bits = |b: &vc_obs::Budget| {
        [
            b.max_steps.unwrap_or(u64::MAX),
            b.max_time.map(|d| d.as_millis() as u64).unwrap_or(u64::MAX),
        ]
    };
    let mut scalars = vec![
        JOURNAL_FILE_VERSION as u64,
        u64::from(config.use_alias_analysis),
        u64::from(config.field_sensitive_pointers),
        u64::from(hconf.isolate),
        sconf.retry as u64,
        sconf.fingerprint_salt,
    ];
    scalars.extend(budget_bits(&hconf.liveness_budget));
    scalars.extend(budget_bits(&hconf.pointer_budget));
    for s in scalars {
        h = fnv1a(h, &s.to_le_bytes());
    }
    h
}

/// FNV-1a over a list of strings — the caller-side salt helper (`vcheck`
/// hashes its `--define` list through this).
pub fn salt_strings(items: &[String]) -> u64 {
    let mut h = FNV_SEED;
    for s in items {
        h = fnv1a(h, s.as_bytes());
    }
    h
}

// ---------------------------------------------------------------------------
// Scan scope and unit cache
// ---------------------------------------------------------------------------

/// Which units a scan runs and what it may reuse. The default scans every
/// function with nothing cached.
#[derive(Debug, Default)]
pub(crate) struct ScanScope<'a> {
    /// Detect only the functions defined in these files (the §8.6
    /// per-commit mode); `None` scans every function.
    pub(crate) files: Option<&'a BTreeSet<FileId>>,
    /// Results of earlier scans: a hit resolves its unit before scheduling,
    /// fresh results are stored, and entries no unit used are swept. A key
    /// covers the lowered function, so a hit is exactly the result the
    /// unit would compute.
    pub(crate) cache: Option<&'a mut UnitCache>,
}

/// One cached per-function result. Only clean units are cached: poisoned
/// functions re-run on every scan so their failure records keep appearing,
/// and deadline-skipped functions were never analyzed at all.
#[derive(Debug)]
struct CachedUnit {
    candidates: Vec<Candidate>,
    exhausted: bool,
    summary: FnSummary,
}

/// Per-function detection results carried from one scan to the next (the
/// warm `vcheck serve` daemon). A key binds exactly what detecting a unit
/// reads: the lowered [`vc_ir::Function`] (which already reflects every
/// declaration lowering took from other files — prototypes, globals,
/// struct layouts), the function's pointer fingerprint, and a salt over
/// the detect/harden configuration and
/// [`SentinelConfig::fingerprint_salt`] (the defines). Equal keys
/// therefore mean equal candidates and summary, up to the function's id.
#[derive(Debug, Default)]
pub(crate) struct UnitCache {
    units: HashMap<u64, CachedUnit>,
    /// Units the last scan resolved from the cache.
    pub(crate) hits: u64,
    /// Units the last scan had to schedule.
    pub(crate) misses: u64,
    /// Entries the last scan dropped because no unit used them.
    pub(crate) swept: u64,
}

/// The part of the pointer analysis one function's detection can observe:
/// how its indirect calls resolve, and whether the demand solves degraded.
/// Two scans whose pointer analyses agree on this fingerprint give the
/// function byte-identical candidates. Functions with no indirect calls
/// cannot observe the pointer stage at all (the precise aliased-read set
/// is subsumed by the content-derived escape set), so they hash to a
/// constant and never force a component solve.
fn pointer_fingerprint(fid: FuncId, f: &vc_ir::Function, oracle: Option<&DemandPointer>) -> u64 {
    let mut h = FNV_SEED;
    let mut any = false;
    for inst in f.blocks.iter().flat_map(|bb| &bb.insts) {
        if let Inst::Call {
            callee: Callee::Indirect(t),
            ..
        } = inst
        {
            any = true;
            h = fnv1a(h, &t.0.to_le_bytes());
            for n in oracle
                .map(|o| o.resolve_fn_ptr(fid, *t))
                .unwrap_or_default()
            {
                h = fnv1a(h, n.as_bytes());
            }
        }
    }
    if !any {
        return fnv1a(h, &[0]);
    }
    let degraded = oracle.is_some_and(|o| o.degraded());
    fnv1a(h, &[1, oracle.is_some() as u8, degraded as u8])
}

/// The cache key of every function (see [`UnitCache`]).
fn unit_keys(
    prog: &Program,
    oracle: Option<&DemandPointer>,
    config: DetectConfig,
    hconf: &HardenConfig,
    salt: u64,
) -> Vec<u64> {
    let mut base = fnv1a(FNV_SEED, format!("{config:?}").as_bytes());
    base = fnv1a(base, format!("{hconf:?}").as_bytes());
    base = fnv1a(base, &salt.to_le_bytes());
    let key = |(i, f): (usize, &vc_ir::Function)| {
        let mut h = DefaultHasher::new();
        (base, f, pointer_fingerprint(FuncId(i as u32), f, oracle)).hash(&mut h);
        h.finish()
    };
    prog.funcs.iter().enumerate().map(key).collect()
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

/// A queued attempt of one unit. `attempt` is the unit's epoch: results
/// from older epochs (abandoned after a deadline or a worker death) are
/// discarded as stale.
#[derive(Clone, Copy, Debug)]
struct Task {
    unit: usize,
    attempt: u32,
}

#[derive(Debug)]
struct Running {
    attempt: u32,
    started: Instant,
    worker: usize,
}

#[derive(Debug)]
enum UnitOutcome {
    Ok {
        candidates: Vec<Candidate>,
        exhausted: bool,
        /// The function's summary, handed to the prune stage. `None` for
        /// journal-replayed units (summaries are not journaled; the prune
        /// stage rebuilds on demand).
        summary: Option<FnSummary>,
    },
    Fail(FailureRecord),
}

#[derive(Debug, Default)]
struct ExecState {
    ready: VecDeque<Task>,
    delayed: Vec<(Instant, Task)>,
    in_flight: HashMap<usize, Running>,
    outcomes: BTreeMap<usize, UnitOutcome>,
    remaining: usize,
    /// Units dropped unscanned when the scan deadline expired.
    skipped: usize,
    shutdown: bool,
}

struct Shared<'p> {
    prog: &'p Program,
    oracle: Option<&'p DemandPointer<'p>>,
    interner: &'p SigInterner,
    hconf: HardenConfig,
    sconf: &'p SentinelConfig,
    state: Mutex<ExecState>,
    cv: Condvar,
    journal: Option<Mutex<JournalWriter>>,
    obs: ObsSession,
    failplan: FailpointPlan,
}

impl Shared<'_> {
    /// Resolves one unit outcome under the state lock: record, journal,
    /// count down. Must be called at most once per unit.
    fn resolve(&self, state: &mut ExecState, unit: usize, outcome: UnitOutcome) {
        if let Some(j) = &self.journal {
            let rec = match &outcome {
                UnitOutcome::Ok {
                    candidates,
                    exhausted,
                    ..
                } => UnitRecord::ok(self.prog, unit, *exhausted, candidates),
                UnitOutcome::Fail(failure) => UnitRecord::Fail {
                    unit,
                    failure: failure.clone(),
                },
            };
            // A failed journal write is not fatal to the scan — the run
            // completes in memory; only resumability degrades.
            let _ = lock(j).append(&rec);
        }
        state.outcomes.insert(unit, outcome);
        self.count_down(state, 1);
    }

    /// `n` units are settled; the last one shuts the executor down.
    fn count_down(&self, state: &mut ExecState, n: usize) {
        state.remaining -= n;
        if state.remaining == 0 {
            state.shutdown = true;
            self.cv.notify_all();
        }
    }

    /// Once the scan deadline has passed, drops every queued unit
    /// unscanned; in-flight units still finish. Called under the state
    /// lock.
    fn expire_if_late(&self, state: &mut ExecState) {
        let late = self.sconf.deadline.is_some_and(|d| Instant::now() >= d);
        let queued = state.ready.len() + state.delayed.len();
        if late && queued > 0 {
            state.ready.clear();
            state.delayed.clear();
            state.skipped += queued;
            self.count_down(state, queued);
        }
    }

    /// Fail-fast: stops the supervisor and every worker so a panic that
    /// escaped the (disabled) isolation boundary can leave the scope.
    fn abort(&self) {
        lock(&self.state).shutdown = true;
        self.cv.notify_all();
    }

    /// A unit attempt failed (panic, deadline, or dead worker): requeue it
    /// with backoff, or mark it failed-permanent once its attempts are
    /// spent. Called under the state lock.
    fn retry_or_fail(&self, state: &mut ExecState, unit: usize, attempt: u32, message: String) {
        let attempts_done = attempt + 1;
        if attempts_done < self.sconf.retry.max(1) {
            vc_obs::counter_inc(vc_obs::names::SENTINEL_RETRIES);
            let at = Instant::now() + self.sconf.backoff(attempts_done);
            state.delayed.push((
                at,
                Task {
                    unit,
                    attempt: attempts_done,
                },
            ));
        } else {
            vc_obs::counter_inc(vc_obs::names::SENTINEL_FAILED_PERMANENT);
            vc_obs::counter_inc(vc_obs::names::HARDEN_POISONED_DETECT);
            let f = self.prog.func(FuncId(unit as u32));
            self.resolve(
                state,
                unit,
                UnitOutcome::Fail(FailureRecord {
                    stage: FailStage::Detect,
                    file: self.prog.source.name(f.file).to_string(),
                    function: Some(f.name.clone()),
                    message,
                }),
            );
        }
    }

    /// Requeues everything a dead worker had in flight.
    fn reap_worker(&self, worker: usize, message: &str) {
        let mut state = lock(&self.state);
        let stuck: Vec<(usize, u32)> = state
            .in_flight
            .iter()
            .filter(|(_, r)| r.worker == worker)
            .map(|(u, r)| (*u, r.attempt))
            .collect();
        for (unit, attempt) in stuck {
            state.in_flight.remove(&unit);
            vc_obs::counter_inc(vc_obs::names::SENTINEL_REQUEUES);
            self.retry_or_fail(&mut state, unit, attempt, format!("worker died: {message}"));
        }
        self.cv.notify_all();
    }
}

/// The inner worker loop: drain tasks until shutdown. Panics escaping this
/// function (i.e. escaping the per-unit isolation boundary) poison the
/// worker; the incarnation wrapper in [`run_executor`] revives it.
fn worker_loop(shared: &Shared<'_>, worker: usize) {
    let tid = MAIN_TID + 1 + worker as u32;
    let _worker_span =
        shared
            .obs
            .tracer
            .span_on(&format!("sentinel.worker.{worker}"), "sentinel", tid);
    loop {
        let task = {
            let mut state = lock(&shared.state);
            loop {
                if state.shutdown {
                    return;
                }
                shared.expire_if_late(&mut state);
                if let Some(task) = state.ready.pop_front() {
                    state.in_flight.insert(
                        task.unit,
                        Running {
                            attempt: task.attempt,
                            started: Instant::now(),
                            worker,
                        },
                    );
                    break task;
                }
                // The timeout doubles as the supervisor-less wakeup for
                // delayed (backoff) tasks.
                state = shared
                    .cv
                    .wait_timeout(state, Duration::from_millis(1))
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
                promote_delayed(&mut state);
            }
        };

        let fid = FuncId(task.unit as u32);
        let f = shared.prog.func(fid);
        // The worker-stage failpoint fires *outside* the per-unit isolation
        // boundary: it simulates a poisoned worker, not a poisoned unit.
        harden::failpoint(FailStage::Worker, &f.name);
        let result = harden::isolated(shared.hconf.isolate, || {
            // The unit span and allocation scope live *inside* the isolation
            // boundary: a panicking unit unwinds through their drop glue, so
            // the span still flushes (tagged `panicked`) and the allocation
            // window still closes instead of silently vanishing.
            let _unit_span =
                shared
                    .obs
                    .tracer
                    .span_on(&format!("unit.{}", f.name), "sentinel", tid);
            let _unit_mem = vc_obs::MemScope::enter(vc_obs::alloc::SCOPE_WORKER);
            harden::failpoint(FailStage::Detect, &f.name);
            detect_unit(
                shared.prog,
                fid,
                shared.interner.sig_of(fid),
                shared.oracle,
                shared.hconf.liveness_budget,
            )
        });

        let mut state = lock(&shared.state);
        let current = state.in_flight.get(&task.unit).map(|r| r.attempt);
        if current != Some(task.attempt) || state.outcomes.contains_key(&task.unit) {
            // The supervisor abandoned this attempt (deadline) while we were
            // computing it; the unit lives in a newer epoch now.
            vc_obs::counter_inc(vc_obs::names::SENTINEL_STALE_RESULTS);
            continue;
        }
        state.in_flight.remove(&task.unit);
        match result {
            Ok((summary, candidates)) => {
                vc_obs::counter_inc(vc_obs::names::SENTINEL_UNITS_COMPLETED);
                let exhausted = summary.exhausted;
                shared.resolve(
                    &mut state,
                    task.unit,
                    UnitOutcome::Ok {
                        candidates,
                        exhausted,
                        summary: Some(summary),
                    },
                );
            }
            Err(message) => {
                shared.retry_or_fail(&mut state, task.unit, task.attempt, message);
            }
        }
        shared.cv.notify_all();
    }
}

/// Moves delayed (backoff) tasks whose time has come into the ready queue.
fn promote_delayed(state: &mut ExecState) {
    let now = Instant::now();
    let mut i = 0;
    while i < state.delayed.len() {
        if state.delayed[i].0 <= now {
            let (_, task) = state.delayed.swap_remove(i);
            state.ready.push_back(task);
        } else {
            i += 1;
        }
    }
    // Deterministic pickup order within a promotion batch.
    state
        .ready
        .make_contiguous()
        .sort_by_key(|t| (t.unit, t.attempt));
}

/// The supervisor loop, run on the spawning thread: promotes backoff tasks,
/// enforces per-unit deadlines, and returns when every unit is resolved.
fn supervise(shared: &Shared<'_>) {
    loop {
        {
            let mut state = lock(&shared.state);
            promote_delayed(&mut state);
            if let Some(deadline) = shared.sconf.unit_deadline {
                let late: Vec<(usize, u32)> = state
                    .in_flight
                    .iter()
                    .filter(|(_, r)| r.started.elapsed() > deadline)
                    .map(|(u, r)| (*u, r.attempt))
                    .collect();
                for (unit, attempt) in late {
                    // Abandon the attempt: the stale worker's result will be
                    // discarded by the epoch check when it eventually lands.
                    state.in_flight.remove(&unit);
                    vc_obs::counter_inc(vc_obs::names::SENTINEL_REQUEUES);
                    vc_obs::counter_inc(vc_obs::names::SENTINEL_DEADLINE_TIMEOUTS);
                    let message = format!("unit deadline exceeded ({} ms)", deadline.as_millis());
                    shared.retry_or_fail(&mut state, unit, attempt, message);
                }
            }
            shared.expire_if_late(&mut state);
            if state.shutdown {
                shared.cv.notify_all();
                return;
            }
            if !state.ready.is_empty() {
                shared.cv.notify_all();
            }
        }
        thread::sleep(Duration::from_micros(500));
    }
}

/// Runs the supervised parallel detection scan over every function.
///
/// This is the parallel, durable sibling of
/// [`detect_program_hardened`](crate::detect::detect_program_hardened):
/// identical inputs produce a byte-identical [`DetectOutcome`] regardless
/// of worker count, journal presence, or how many units were replayed from
/// a previous interrupted run.
pub fn detect_program_sentinel(
    prog: &Program,
    config: DetectConfig,
    hconf: HardenConfig,
    sconf: &SentinelConfig,
) -> DetectOutcome {
    detect_program_scoped(prog, config, hconf, sconf, ScanScope::default())
}

/// [`detect_program_sentinel`] over a [`ScanScope`]: only in-scope units
/// exist, journal-replayed and cached units resolve before scheduling, and
/// the rest run on the workers. The merge is in unit order either way, so
/// a warm scan is byte-identical to a cold one.
pub(crate) fn detect_program_scoped(
    prog: &Program,
    config: DetectConfig,
    hconf: HardenConfig,
    sconf: &SentinelConfig,
    scope: ScanScope<'_>,
) -> DetectOutcome {
    let mut out = DetectOutcome::default();
    let in_scope = |u: usize| {
        scope
            .files
            .is_none_or(|fs| fs.contains(&prog.funcs[u].file))
    };
    let units: Vec<usize> = (0..prog.funcs.len()).filter(|&u| in_scope(u)).collect();
    let total = units.len();
    vc_obs::counter_add(vc_obs::names::DETECT_FUNCTIONS, total as u64);
    vc_obs::counter_add(vc_obs::names::SENTINEL_UNITS, total as u64);

    // Demand pointer oracle: partitioned once, single-threaded, before any
    // unit; components solve lazily under the oracle's lock.
    let oracle = demand_oracle(prog, config, hconf);
    let interner = SigInterner::new(prog);

    // Journal replay (resume) or creation.
    let fingerprint = scan_fingerprint(prog, config, &hconf, sconf);
    let mut replayed: BTreeMap<usize, UnitRecord> = BTreeMap::new();
    let journal = match &sconf.journal {
        None => None,
        Some(path) => {
            let writer = if sconf.resume {
                let replay = Replay::load(path, fingerprint);
                vc_obs::counter_add(
                    vc_obs::names::SENTINEL_JOURNAL_REPLAYS,
                    u64::from(!replay.discarded),
                );
                vc_obs::counter_add(
                    vc_obs::names::SENTINEL_TORN_RECORD_SKIPS,
                    replay.torn_records as u64,
                );
                vc_obs::counter_add(
                    vc_obs::names::SENTINEL_CORRUPT_RECORDS,
                    replay.corrupt_records as u64,
                );
                vc_obs::counter_add(
                    vc_obs::names::SENTINEL_DUPLICATE_RECORDS,
                    replay.duplicate_records as u64,
                );
                if replay.discarded {
                    vc_obs::counter_inc(vc_obs::names::SENTINEL_JOURNAL_DISCARDED);
                    JournalWriter::create(path, fingerprint)
                } else {
                    // Ignore replayed units outside the current unit set
                    // (belt and braces; the fingerprint already rules this
                    // out).
                    replayed = replay
                        .completed
                        .into_iter()
                        .filter(|(u, _)| *u < prog.funcs.len() && in_scope(*u))
                        .collect();
                    JournalWriter::reopen(path, replay.valid_bytes, replayed.len())
                }
            } else {
                JournalWriter::create(path, fingerprint)
            };
            match writer {
                Ok(w) => Some(Mutex::new(w.with_fsync_every(sconf.fsync_every))),
                Err(_) => {
                    vc_obs::counter_inc(vc_obs::names::SENTINEL_JOURNAL_OPEN_FAILURES);
                    None
                }
            }
        }
    };
    vc_obs::counter_add(
        vc_obs::names::SENTINEL_UNITS_REPLAYED,
        replayed.len() as u64,
    );

    // Queue every unit not already resolved, in unit order. A cache hit is
    // resolved here, like a replayed unit, but carries its summary; rebind
    // it — the function's global id may have shifted when other files
    // gained or lost functions, while its file, spans, and locals are
    // pinned by the key.
    let mut cache = scope.cache;
    let keys = cache.as_ref().map(|_| {
        unit_keys(
            prog,
            oracle.as_ref(),
            config,
            &hconf,
            sconf.fingerprint_salt,
        )
    });
    let mut next_cache: HashMap<u64, CachedUnit> = HashMap::new();
    let mut merged: BTreeMap<usize, UnitOutcome> = BTreeMap::new();
    let mut state = ExecState::default();
    for &unit in units.iter().filter(|u| !replayed.contains_key(u)) {
        let fid = FuncId(unit as u32);
        let key = keys.as_ref().map(|k| k[unit]);
        let hit = key
            .zip(cache.as_deref_mut())
            .and_then(|(k, c)| c.units.remove(&k));
        let (Some(key), Some(hit)) = (key, hit) else {
            state.ready.push_back(Task { unit, attempt: 0 });
            continue;
        };
        vc_obs::counter_inc(vc_obs::names::SUMMARY_REUSED);
        let mut summary = hit.summary.clone();
        summary.sig = interner.sig_of(fid);
        let candidates = hit.candidates.iter().map(|c| Candidate {
            func: fid,
            ..c.clone()
        });
        let candidates: Vec<Candidate> = candidates.collect();
        // A hit is a completed unit: journal it, so a resume replays it
        // instead of rescanning.
        if let Some(j) = &journal {
            let _ = lock(j).append(&UnitRecord::ok(prog, unit, hit.exhausted, &candidates));
        }
        merged.insert(
            unit,
            UnitOutcome::Ok {
                candidates,
                exhausted: hit.exhausted,
                summary: Some(summary),
            },
        );
        next_cache.insert(key, hit);
    }
    state.remaining = state.ready.len();
    vc_obs::counter_add(
        vc_obs::names::SENTINEL_UNITS_SCANNED,
        state.remaining as u64,
    );
    if let Some(cache) = cache.as_deref_mut() {
        cache.hits = merged.len() as u64;
        cache.misses = state.remaining as u64;
    }

    let shared = Shared {
        prog,
        oracle: oracle.as_ref(),
        interner: &interner,
        hconf,
        sconf,
        state: Mutex::new(state),
        cv: Condvar::new(),
        journal,
        obs: ObsSession::current_or_new(),
        failplan: FailpointPlan::current(),
    };

    // A deadline that has already passed schedules nothing.
    let remaining = {
        let mut state = lock(&shared.state);
        shared.expire_if_late(&mut state);
        state.remaining
    };
    if remaining > 0 {
        let jobs = sconf.effective_jobs().clamp(1, remaining);
        thread::scope(|scope| {
            let workers: Vec<_> = (0..jobs)
                .map(|worker| {
                    let shared = &shared;
                    scope.spawn(move || {
                        let _obs = shared.obs.install();
                        let _fp = shared.failplan.install();
                        // Incarnation wrapper: a panic that escapes the unit
                        // isolation boundary poisons the worker; revive it
                        // and requeue whatever it was running. Under
                        // fail-fast the panic ends the whole scan instead.
                        loop {
                            match catch_unwind(AssertUnwindSafe(|| worker_loop(shared, worker))) {
                                Ok(()) => break,
                                Err(payload) => {
                                    if !shared.hconf.isolate {
                                        shared.abort();
                                        std::panic::resume_unwind(payload);
                                    }
                                    vc_obs::counter_inc(vc_obs::names::SENTINEL_WORKER_REPLACED);
                                    let msg = harden::panic_message(payload);
                                    shared.reap_worker(worker, &msg);
                                }
                            }
                        }
                    })
                })
                .collect();
            supervise(&shared);
            for worker in workers {
                if let Err(payload) = worker.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
    }

    // Deterministic merge: journal-replayed, cached and freshly-scanned
    // units interleave in unit (function-index) order, which is exactly the
    // sequential loop's order — the report is byte-identical for any
    // worker count, any resume point, and any cache state.
    let (outcomes, skipped) = {
        let mut state = lock(&shared.state);
        (std::mem::take(&mut state.outcomes), state.skipped)
    };
    merged.extend(outcomes);
    for (unit, rec) in replayed {
        let outcome = match rec {
            UnitRecord::Ok {
                exhausted,
                candidates,
                ..
            } => UnitOutcome::Ok {
                candidates,
                exhausted,
                summary: None,
            },
            UnitRecord::Fail { failure, .. } => UnitOutcome::Fail(failure),
        };
        merged.insert(unit, outcome);
    }
    for (unit, outcome) in merged {
        match outcome {
            UnitOutcome::Ok {
                candidates,
                exhausted,
                summary,
            } => {
                if exhausted {
                    out.liveness_degraded += 1;
                    vc_obs::counter_inc(vc_obs::names::HARDEN_DEGRADED_LIVENESS);
                }
                if let Some(s) = summary {
                    if let Some(keys) = &keys {
                        next_cache.entry(keys[unit]).or_insert_with(|| CachedUnit {
                            candidates: candidates.clone(),
                            exhausted,
                            summary: s.clone(),
                        });
                    }
                    out.summaries.insert(FuncId(unit as u32), s);
                }
                out.candidates.extend(candidates);
            }
            UnitOutcome::Fail(failure) => out.failures.push(failure),
        }
    }
    // Generational sweep: entries no unit of this scan used die.
    if let Some(cache) = cache {
        cache.swept = cache
            .units
            .keys()
            .filter(|k| !next_cache.contains_key(k))
            .count() as u64;
        cache.units = next_cache;
    }
    if skipped > 0 {
        out.deadline_exceeded = true;
        for c in &mut out.candidates {
            c.low_confidence = true;
        }
        out.failures.push(FailureRecord {
            stage: FailStage::Detect,
            file: "<scan>".to_string(),
            function: None,
            message: format!(
                "deadline exceeded after {} of {total} functions; remaining functions skipped \
                 and all findings marked low-confidence",
                total - skipped
            ),
        });
    }
    if let Some(j) = &shared.journal {
        let _ = lock(j).sync();
    }
    finalize_pointer_stage(oracle.as_ref(), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::detect_program_hardened;

    const SRC: &str = "int get_v(void);\n\
         void f(void) { int x = 1; x = 2; use(x); }\n\
         void g(int p) { p = 3; use(p); }\n\
         void h(void) {\n\
           int r = get_v();\n\
           r = 0;\n\
           if (r) { use(r); }\n\
         }\n\
         void clean(void) { int y = 1; use(y); }\n";

    fn prog() -> Program {
        Program::build(&[("a.c", SRC)], &[]).unwrap()
    }

    fn sconf(jobs: usize) -> SentinelConfig {
        SentinelConfig {
            jobs,
            ..SentinelConfig::default()
        }
    }

    fn sorted_debug(outcome: &DetectOutcome) -> (Vec<String>, Vec<String>) {
        (
            outcome
                .candidates
                .iter()
                .map(|c| format!("{c:?}"))
                .collect(),
            outcome.failures.iter().map(|f| format!("{f:?}")).collect(),
        )
    }

    #[test]
    fn parallel_scan_matches_sequential_exactly() {
        let p = prog();
        let seq = detect_program_hardened(&p, DetectConfig::default(), HardenConfig::default());
        for jobs in [1, 2, 8] {
            let par = detect_program_sentinel(
                &p,
                DetectConfig::default(),
                HardenConfig::default(),
                &sconf(jobs),
            );
            assert_eq!(
                sorted_debug(&par),
                sorted_debug(&seq),
                "jobs={jobs} must match the sequential scan"
            );
        }
    }

    #[test]
    fn candidate_encoding_roundtrips() {
        let p = prog();
        let seq = detect_program_hardened(&p, DetectConfig::default(), HardenConfig::default());
        assert!(!seq.candidates.is_empty());
        for c in &seq.candidates {
            let enc = enc_candidate(c);
            let dec = dec_candidate(c.func.0 as usize, &c.func_name, &enc)
                .unwrap_or_else(|| panic!("decode failed for {enc:?}"));
            assert_eq!(format!("{dec:?}"), format!("{c:?}"));
        }
    }

    #[test]
    fn tricky_strings_roundtrip_the_record_codec() {
        let rec = UnitRecord::Ok {
            unit: 7,
            func: "we|ird\tname\\with,stuff\n".to_string(),
            exhausted: true,
            candidates: vec![],
        };
        let line = rec.encode_line();
        let body = verify_line(line.trim_end_matches('\n')).expect("checksum");
        match UnitRecord::decode_body(body).expect("decode") {
            UnitRecord::Ok {
                unit,
                func,
                exhausted,
                candidates,
            } => {
                assert_eq!(unit, 7);
                assert_eq!(func, "we|ird\tname\\with,stuff\n");
                assert!(exhausted);
                assert!(candidates.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fail_record_roundtrips() {
        let rec = UnitRecord::Fail {
            unit: 3,
            failure: FailureRecord {
                stage: FailStage::Detect,
                file: "a.c".to_string(),
                function: Some("f".to_string()),
                message: "panicked: boom\t|,".to_string(),
            },
        };
        let line = rec.encode_line();
        let body = verify_line(line.trim_end_matches('\n')).unwrap();
        match UnitRecord::decode_body(body).unwrap() {
            UnitRecord::Fail { unit, failure } => {
                assert_eq!(unit, 3);
                assert_eq!(failure.stage, FailStage::Detect);
                assert_eq!(failure.function.as_deref(), Some("f"));
                assert_eq!(failure.message, "panicked: boom\t|,");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn corrupted_checksum_is_rejected() {
        let rec = UnitRecord::Ok {
            unit: 0,
            func: "f".to_string(),
            exhausted: false,
            candidates: vec![],
        };
        let line = rec.encode_line();
        let mut bytes = line.into_bytes();
        bytes[3] ^= 0x01;
        let s = String::from_utf8(bytes).unwrap();
        assert!(verify_line(s.trim_end_matches('\n')).is_none());
    }

    #[test]
    fn replay_skips_torn_tail_and_truncates_there() {
        let dir = std::env::temp_dir().join("vc-sentinel-test-torn");
        let _ = fs::create_dir_all(&dir);
        let path = dir.join("scan.journal");
        let fp = 0x1234u64;
        {
            let mut w = JournalWriter::create(&path, fp).unwrap();
            w.append(&UnitRecord::Ok {
                unit: 0,
                func: "f".to_string(),
                exhausted: false,
                candidates: vec![],
            })
            .unwrap();
            w.sync().unwrap();
        }
        // Tear the second record mid-line.
        let full = UnitRecord::Ok {
            unit: 1,
            func: "g".to_string(),
            exhausted: false,
            candidates: vec![],
        }
        .encode_line();
        let before = fs::metadata(&path).unwrap().len();
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&full.as_bytes()[..full.len() / 2]).unwrap();
        drop(f);

        let replay = Replay::load(&path, fp);
        assert!(!replay.discarded);
        assert_eq!(replay.completed.len(), 1);
        assert!(replay.completed.contains_key(&0));
        assert_eq!(replay.torn_records, 1);
        assert_eq!(replay.valid_bytes, before);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn replay_discards_on_fingerprint_mismatch() {
        let dir = std::env::temp_dir().join("vc-sentinel-test-fp");
        let _ = fs::create_dir_all(&dir);
        let path = dir.join("scan.journal");
        JournalWriter::create(&path, 0xAAAA)
            .unwrap()
            .sync()
            .unwrap();
        let replay = Replay::load(&path, 0xBBBB);
        assert!(replay.discarded);
        assert!(replay.completed.is_empty());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn resume_replays_completed_units_and_matches_fresh_run() {
        let dir = std::env::temp_dir().join("vc-sentinel-test-resume");
        let _ = fs::create_dir_all(&dir);
        let path = dir.join("scan.journal");
        let _ = fs::remove_file(&path);
        let p = prog();
        let conf = DetectConfig::default();
        let hconf = HardenConfig::default();

        // Fresh journaled run.
        let mut first_conf = sconf(2);
        first_conf.journal = Some(path.clone());
        first_conf.fsync_every = 1;
        let fresh = detect_program_sentinel(&p, conf, hconf, &first_conf);

        // Resume from the complete journal: every unit replays, zero rescans,
        // identical outcome.
        let mut resume_conf = first_conf.clone();
        resume_conf.resume = true;
        let session = ObsSession::current_or_new();
        let _g = session.install();
        let resumed = detect_program_sentinel(&p, conf, hconf, &resume_conf);
        assert_eq!(sorted_debug(&resumed), sorted_debug(&fresh));
        let snap = session.registry.snapshot();
        assert_eq!(
            snap.counter(vc_obs::names::SENTINEL_UNITS_REPLAYED),
            p.funcs.len() as u64
        );
        assert_eq!(snap.counter(vc_obs::names::SENTINEL_UNITS_SCANNED), 0);

        // And resuming *again* is idempotent.
        let resumed2 = detect_program_sentinel(&p, conf, hconf, &resume_conf);
        assert_eq!(sorted_debug(&resumed2), sorted_debug(&fresh));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_tracks_config_and_sources() {
        let p = prog();
        let base = scan_fingerprint(
            &p,
            DetectConfig::default(),
            &HardenConfig::default(),
            &sconf(1),
        );
        let mut other_conf = DetectConfig::default();
        other_conf.use_alias_analysis = false;
        assert_ne!(
            base,
            scan_fingerprint(&p, other_conf, &HardenConfig::default(), &sconf(1))
        );
        let mut salted = sconf(1);
        salted.fingerprint_salt = 99;
        assert_ne!(
            base,
            scan_fingerprint(
                &p,
                DetectConfig::default(),
                &HardenConfig::default(),
                &salted
            )
        );
        let p2 = Program::build(&[("a.c", "void q(void) { int z = 1; use(z); }\n")], &[]).unwrap();
        assert_ne!(
            base,
            scan_fingerprint(
                &p2,
                DetectConfig::default(),
                &HardenConfig::default(),
                &sconf(1)
            )
        );
        // jobs must NOT change the fingerprint: a resumed run may use a
        // different worker count.
        assert_eq!(
            base,
            scan_fingerprint(
                &p,
                DetectConfig::default(),
                &HardenConfig::default(),
                &sconf(8)
            )
        );
    }

    #[test]
    fn fail_fast_panic_escapes_instead_of_hanging() {
        // With isolation off a unit panic used to strand the unit in flight
        // and the supervisor polled forever.
        for jobs in [1, 2] {
            let _fp = harden::arm_failpoint(FailStage::Detect, "g");
            let plan = FailpointPlan::current();
            let (tx, rx) = std::sync::mpsc::channel();
            thread::spawn(move || {
                let _fp = plan.install();
                let hconf = HardenConfig {
                    isolate: false,
                    ..HardenConfig::default()
                };
                let run = catch_unwind(AssertUnwindSafe(|| {
                    detect_program_sentinel(&prog(), DetectConfig::default(), hconf, &sconf(jobs))
                }));
                let _ = tx.send(run.map_err(harden::panic_message));
            });
            let result = rx
                .recv_timeout(Duration::from_secs(20))
                .unwrap_or_else(|_| panic!("jobs={jobs}: fail-fast scan hung"));
            let message = result.expect_err("the panic must propagate");
            assert!(message.contains("injected fault"), "jobs={jobs}: {message}");
        }
    }

    #[test]
    fn poisoned_unit_retries_then_fails_permanent() {
        let p = prog();
        let session = ObsSession::current_or_new();
        let _g = session.install();
        let _fp = harden::arm_failpoint(FailStage::Detect, "g");
        let mut conf = sconf(2);
        conf.retry = 3;
        let out =
            detect_program_sentinel(&p, DetectConfig::default(), HardenConfig::default(), &conf);
        assert_eq!(out.failures.len(), 1);
        assert_eq!(out.failures[0].function.as_deref(), Some("g"));
        assert_eq!(out.failures[0].stage, FailStage::Detect);
        // The other units still produced their candidates.
        assert!(out.candidates.iter().any(|c| c.func_name == "f"));
        let snap = session.registry.snapshot();
        assert_eq!(snap.counter(vc_obs::names::SENTINEL_RETRIES), 2);
        assert_eq!(snap.counter(vc_obs::names::SENTINEL_FAILED_PERMANENT), 1);
        assert_eq!(snap.counter(vc_obs::names::HARDEN_POISONED_DETECT), 1);
    }

    #[test]
    fn poisoned_worker_is_replaced_and_units_requeue() {
        let p = prog();
        let session = ObsSession::current_or_new();
        let _g = session.install();
        // A worker-stage failpoint fires outside the unit isolation
        // boundary, killing the worker thread itself. Disarm after the
        // first hit so the revived incarnation can finish the scan.
        let plan = FailpointPlan::current();
        let _fp = harden::arm_failpoint(FailStage::Worker, "f");
        let seq = detect_program_hardened(&p, DetectConfig::default(), HardenConfig::default());

        let handle = thread::spawn({
            let p = Program::build(&[("a.c", SRC)], &[]).unwrap();
            let session = session.clone();
            // The requeued attempt of `f` waits out a backoff far longer
            // than the disarm below takes, so it runs disarmed.
            let conf = SentinelConfig {
                backoff_base: Duration::from_millis(500),
                backoff_cap: Duration::from_millis(500),
                ..sconf(2)
            };
            move || {
                let _g = session.install();
                let _fp2 = plan.install();
                // One shot: the first worker to pick up `f` dies; disarm so
                // the requeued attempt succeeds.
                let out = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    detect_program_sentinel(
                        &p,
                        DetectConfig::default(),
                        HardenConfig::default(),
                        &conf,
                    )
                }));
                out
            }
        });
        // Disarm once the failpoint has killed a worker (`hit` is checked
        // per unit pickup, and unit `f` retries after the worker is
        // reaped).
        let waited = Instant::now();
        while session
            .registry
            .counter(vc_obs::names::SENTINEL_WORKER_REPLACED)
            == 0
        {
            assert!(
                waited.elapsed() < Duration::from_secs(30),
                "the worker failpoint never fired"
            );
            thread::sleep(Duration::from_millis(1));
        }
        drop(_fp);
        let out = handle.join().unwrap().expect("scan must survive");
        assert_eq!(sorted_debug(&out), sorted_debug(&seq));
        let snap = session.registry.snapshot();
        assert!(snap.counter(vc_obs::names::SENTINEL_WORKER_REPLACED) >= 1);
        assert!(snap.counter(vc_obs::names::SENTINEL_REQUEUES) >= 1);
    }

    #[test]
    fn unit_deadline_requeues_slow_units() {
        // With a zero-ish deadline every first attempt times out; retries
        // eventually fail permanent — but the scan still terminates and
        // reports every unit exactly once.
        let p = prog();
        let session = ObsSession::current_or_new();
        let _g = session.install();
        let mut conf = sconf(2);
        conf.retry = 2;
        conf.unit_deadline = Some(Duration::from_secs(30));
        let out =
            detect_program_sentinel(&p, DetectConfig::default(), HardenConfig::default(), &conf);
        // A 30s deadline never fires for this tiny program: clean run.
        assert!(out.failures.is_empty());
        let snap = session.registry.snapshot();
        assert_eq!(snap.counter(vc_obs::names::SENTINEL_DEADLINE_TIMEOUTS), 0);
        assert_eq!(
            snap.counter(vc_obs::names::SENTINEL_UNITS),
            p.funcs.len() as u64
        );
        assert_eq!(
            snap.counter(vc_obs::names::SENTINEL_UNITS_COMPLETED),
            p.funcs.len() as u64
        );
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let conf = SentinelConfig {
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(50),
            ..SentinelConfig::default()
        };
        assert_eq!(conf.backoff(1), Duration::from_millis(2));
        assert_eq!(conf.backoff(2), Duration::from_millis(4));
        assert_eq!(conf.backoff(3), Duration::from_millis(8));
        assert_eq!(conf.backoff(30), Duration::from_millis(50));
    }
}
