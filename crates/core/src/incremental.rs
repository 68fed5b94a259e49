//! Incremental per-commit analysis (§8.6).
//!
//! The paper integrates ValueCheck into development by analysing "only the
//! changed functions and the affected files in a commit", bringing per-commit
//! cost under five seconds. This module does the same: given a commit, it
//! builds the program from the snapshot at that commit and runs the
//! ordinary pipeline against the history as of the commit, with the
//! [`sentinel`](crate::sentinel) executor scoped to the functions defined
//! in the files the commit touched — the same recovering front end, fault
//! isolation, summaries, and funnel accounting as a full scan.
//!
//! [`SnapshotStore`] persists a run's findings to disk so a follow-up run
//! can diff against them. The store is written by a tool that
//! may be killed mid-write and read by a newer binary with a different
//! format, so the file carries a trailing content checksum,
//! [`SnapshotStore::save`] is atomic (temp file + fsync + rename — a
//! concurrent reader sees the old store or the new one, never a torn mix),
//! and [`SnapshotStore::load`] never fails: a checksum mismatch degrades to
//! a cold (empty) store under `harden.snapshot_corrupt`, while a truncated,
//! malformed, or version-mismatched file degrades the same way under
//! `harden.snapshot_recovered`.

use std::{
    collections::{
        BTreeSet,
        HashSet, //
    },
    path::Path,
};

use vc_ir::{
    FileId,
    Program, //
};
use vc_obs::ObsSession;
use vc_vcs::{
    CommitId,
    Repository, //
};

use crate::{
    pipeline::{
        record_front_end,
        run_scoped,
        Options, //
    },
    prune::PruneConfig,
    rank::{
        RankConfig,
        Ranked, //
    },
    report::Report,
    sentinel::{
        fnv1a_bytes,
        ScanScope,
        SentinelConfig,
        FNV_SEED, //
    },
};

/// The findings for one commit.
#[derive(Clone, Debug)]
pub struct CommitFindings {
    /// The analysed commit.
    pub commit: CommitId,
    /// Files the commit touched.
    pub changed_files: Vec<String>,
    /// Functions analysed (those defined in changed files).
    pub analysed_functions: usize,
    /// Ranked findings within the changed functions.
    pub findings: Vec<Ranked>,
}

/// On-disk format version of [`SnapshotStore`]. Bumped whenever the line
/// format changes; older files are treated as cold caches, never parsed
/// across versions. v2 added the trailing `checksum` line; v3 added the
/// file, scenario, and drift-stable fingerprint fields (so a store doubles
/// as a `vcheck delta --baseline` suppression set).
pub const SNAPSHOT_FILE_VERSION: u32 = 3;

/// One persisted finding: the identity triple plus the coordinates the
/// differential scanner needs — file, scenario, and the drift-stable
/// [`Fingerprint`](crate::delta::Fingerprint) — enough to diff runs without
/// re-ranking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoredFinding {
    /// Containing function.
    pub function: String,
    /// Variable name.
    pub variable: String,
    /// 1-based line of the definition.
    pub line: u32,
    /// File of the definition.
    pub file: String,
    /// Scenario label (`retval`, `param`, or `overwritten`).
    pub scenario: String,
    /// Drift-stable fingerprint (hex16 on disk).
    pub fingerprint: u64,
}

/// Findings persisted between runs (the per-commit mode's memory).
///
/// The format is a line-oriented text file whose last line is an FNV-1a
/// checksum of everything above it:
///
/// ```text
/// valuecheck-snapshot v3
/// commit 42
/// finding <function>\t<variable>\t<line>\t<file>\t<scenario>\t<fp-hex16>
/// checksum <hex16>
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SnapshotStore {
    /// The commit the stored findings belong to, when known.
    pub commit: Option<CommitId>,
    /// The findings of the stored run.
    pub findings: Vec<StoredFinding>,
}

impl SnapshotStore {
    /// Loads a store from disk; **never fails** ([`load_checksummed`]:
    /// defects degrade to a cold store under `harden.snapshot_corrupt` or
    /// `harden.snapshot_recovered`).
    pub fn load(path: &Path) -> SnapshotStore {
        load_checksummed(
            path,
            vc_obs::names::HARDEN_SNAPSHOT_CORRUPT,
            vc_obs::names::HARDEN_SNAPSHOT_RECOVERED,
            Self::parse,
        )
    }

    fn parse(text: &str) -> Option<SnapshotStore> {
        let mut lines = text.lines();
        let header = lines.next()?;
        let version = header.strip_prefix("valuecheck-snapshot v")?;
        if version.parse::<u32>().ok()? != SNAPSHOT_FILE_VERSION {
            return None;
        }
        let mut store = SnapshotStore::default();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            if let Some(c) = line.strip_prefix("commit ") {
                store.commit = Some(CommitId(c.parse().ok()?));
            } else if let Some(f) = line.strip_prefix("finding ") {
                let mut parts = f.split('\t');
                let finding = StoredFinding {
                    function: parts.next()?.to_string(),
                    variable: parts.next()?.to_string(),
                    line: parts.next()?.parse().ok()?,
                    file: parts.next()?.to_string(),
                    scenario: parts.next()?.to_string(),
                    fingerprint: u64::from_str_radix(parts.next()?, 16).ok()?,
                };
                if parts.next().is_some() {
                    return None; // trailing garbage on the line
                }
                store.findings.push(finding);
            } else {
                return None; // unknown record kind
            }
        }
        Some(store)
    }

    /// Serialises the store (plus its trailing checksum line) and writes it
    /// with [`write_atomic`].
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let mut out = format!("valuecheck-snapshot v{SNAPSHOT_FILE_VERSION}\n");
        if let Some(c) = self.commit {
            out.push_str(&format!("commit {}\n", c.0));
        }
        for f in &self.findings {
            out.push_str(&format!(
                "finding {}\t{}\t{}\t{}\t{}\t{:016x}\n",
                f.function, f.variable, f.line, f.file, f.scenario, f.fingerprint
            ));
        }
        out.push_str(&format!("checksum {:016x}\n", content_hash(&out)));
        write_atomic(path, &out)
    }

    /// The stored fingerprints as a suppression set (`vcheck delta
    /// --baseline`).
    pub fn fingerprint_set(&self) -> HashSet<u64> {
        self.findings.iter().map(|f| f.fingerprint).collect()
    }

    /// Builds a store directly from fingerprinted findings (`vcheck delta
    /// --write-baseline` records the new-revision scan this way).
    pub fn from_findings(commit: CommitId, findings: &[crate::delta::Finding]) -> SnapshotStore {
        SnapshotStore {
            commit: Some(commit),
            findings: findings
                .iter()
                .map(|f| StoredFinding {
                    function: f.function.clone(),
                    variable: f.variable.clone(),
                    line: f.line,
                    file: f.file.clone(),
                    scenario: f.scenario.clone(),
                    fingerprint: f.fingerprint.0,
                })
                .collect(),
        }
    }
}

/// FNV-1a over a text blob — the content checksum shared by the on-disk
/// stores (snapshot, suppression, lifecycle DB); no field separator.
pub(crate) fn content_hash(text: &str) -> u64 {
    fnv1a_bytes(FNV_SEED, text.as_bytes())
}

/// Splits a store file into (body, trailing checksum). `None` when the last
/// line is not a well-formed `checksum <hex16>` record.
fn split_checksum(text: &str) -> Option<(&str, u64)> {
    let trimmed = text.strip_suffix('\n')?;
    let body_end = trimmed.rfind('\n').map(|i| i + 1).unwrap_or(0);
    let sum = u64::from_str_radix(trimmed[body_end..].strip_prefix("checksum ")?, 16).ok()?;
    Some((&text[..body_end], sum))
}

/// Reads a store file, the loader shared by the on-disk stores. A missing
/// file is a silent cold start (`T::default()`); a failed checksum (bit
/// rot, torn write) counts `corrupt`, and a missing checksum line or a
/// body `parse` rejects (truncated, malformed, other version) counts
/// `recovered`, each degrading to the default.
pub(crate) fn load_checksummed<T: Default>(
    path: &Path,
    corrupt: &str,
    recovered: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> T {
    let Ok(text) = std::fs::read_to_string(path) else {
        return T::default();
    };
    let Some((body, sum)) = split_checksum(&text) else {
        vc_obs::counter_inc(recovered);
        return T::default();
    };
    if content_hash(body) != sum {
        vc_obs::counter_inc(corrupt);
        return T::default();
    }
    parse(body).unwrap_or_else(|| {
        vc_obs::counter_inc(recovered);
        T::default()
    })
}

/// Writes a store file **atomically**, the writer shared by the on-disk
/// stores: `text` goes to a temp file in the same directory, is fsynced,
/// and is renamed over `path`. A reader — or a crash — at any point sees
/// either the complete old file or the complete new one, never a torn mix.
pub(crate) fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let file_name = path
        .file_name()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no file name"))?;
    let tmp = path.with_file_name(format!(
        ".{}.tmp.{}",
        file_name.to_string_lossy(),
        std::process::id()
    ));
    let write_and_rename = || -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)
    };
    if let Err(e) = write_and_rename() {
        // Any failure — create, write, fsync, or rename — must not leave
        // `.tmp` debris behind: a long-lived daemon saves on every
        // shutdown and would otherwise accumulate orphans.
        let _ = std::fs::remove_file(&tmp);
        vc_obs::counter_inc(vc_obs::names::HARDEN_SNAPSHOT_SAVE_FAILED);
        return Err(e);
    }
    // Make the rename itself durable (best-effort: directory fsync is
    // not available on every platform).
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(if dir.as_os_str().is_empty() {
            Path::new(".")
        } else {
            dir
        }) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Analyses `commit` with its own tree and blame, detecting only in the
/// files it wrote. The tree is built with the recovering front end (a
/// function that does not parse is counted under `harden.parse_failures`
/// and skipped), then [`analyze_commit_in`] runs against the history as of
/// `commit`: the repository itself at the head (the usual CI case), a
/// [`checkout`](Repository::checkout) for a past commit.
///
/// Program-wide context (signatures, call sites, peer statistics) still
/// comes from the full snapshot — detection is local, the supporting indexes
/// are not, matching the paper's design where analysis runs per bitcode file
/// against whole-project metadata.
pub fn analyze_commit(
    repo: &Repository,
    commit: CommitId,
    defines: &[String],
    prune_config: &PruneConfig,
    rank_config: &RankConfig,
) -> CommitFindings {
    let tree = repo.snapshot_at(commit);
    let mut sources: Vec<(&str, &str)> =
        tree.iter().map(|(p, c)| (p.as_str(), c.as_str())).collect();
    sources.sort_unstable();
    let (prog, errors, stats) = Program::build_recovering(&sources, defines);
    let obs = ObsSession::current_or_new();
    let _guard = obs.install();
    // `CommitFindings` carries no report: the counters record the loss.
    record_front_end(&obs, &errors, &stats, &mut Report::default());
    let past;
    let repo_at = if repo.head() == Some(commit) {
        repo
    } else {
        past = repo.checkout(commit);
        &past
    };
    analyze_commit_in(&prog, repo_at, commit, prune_config, rank_config)
}

/// The incremental fast path: analyses `commit` against a program already
/// built for that snapshot (the equivalent of the paper's pre-compiled
/// bitcode), with `repo` the history as of `commit` (its blame is the
/// commit's). The executor runs only the changed files' functions, each
/// isolated and producing its summary once; pointer facts are resolved on
/// demand per indirect-call candidate; peer statistics are scoped (via
/// redundant-summary elimination) to the callees and signatures the
/// surviving candidates actually reference. Records into the installed
/// [`ObsSession`], if any.
pub fn analyze_commit_in(
    prog: &Program,
    repo: &Repository,
    commit: CommitId,
    prune_config: &PruneConfig,
    rank_config: &RankConfig,
) -> CommitFindings {
    let changed: BTreeSet<String> = repo
        .commit_info(commit)
        .writes
        .iter()
        .map(|w| w.path.clone())
        .collect();
    let changed_ids: BTreeSet<FileId> = prog
        .source
        .iter()
        .filter(|f| changed.contains(&f.name))
        .map(|f| f.id)
        .collect();
    let analysed = prog
        .funcs
        .iter()
        .filter(|f| changed_ids.contains(&f.file))
        .count();

    let opts = Options {
        prune: *prune_config,
        rank: *rank_config,
        ..Options::paper()
    };
    let obs = ObsSession::current_or_new();
    let _guard = obs.install();
    let run_span = obs.span("pipeline.run", "pipeline");
    let scope = ScanScope {
        files: Some(&changed_ids),
        ..ScanScope::default()
    };
    let analysis = run_scoped(
        prog,
        repo,
        &opts,
        &SentinelConfig::default(),
        scope,
        obs,
        run_span,
    );

    vc_obs::counter_inc(vc_obs::names::INCREMENTAL_COMMITS);
    vc_obs::counter_add(
        vc_obs::names::INCREMENTAL_FUNCTIONS_ANALYSED,
        analysed as u64,
    );
    CommitFindings {
        commit,
        changed_files: changed.into_iter().collect(),
        analysed_functions: analysed,
        findings: analysis.ranked,
    }
}

/// Test helper for the stores built on [`write_atomic`]: `save` targets a
/// path occupied by a non-empty directory, so the temp file is written but
/// the rename over it fails. The save must error, count
/// `harden.snapshot_save_failed` once, and leave no temp file behind.
#[cfg(test)]
pub(crate) fn assert_failed_save_cleans_up(
    name: &str,
    save: impl FnOnce(&Path) -> std::io::Result<()>,
) {
    let dir = std::env::temp_dir().join(format!("vc-failsave-{}-{name}", std::process::id()));
    let path = dir.join("store");
    std::fs::create_dir_all(path.join("occupied")).unwrap();
    let obs = vc_obs::ObsSession::new();
    let result = {
        let _g = obs.install();
        save(&path)
    };
    assert!(result.is_err(), "rename over a non-empty dir must fail");
    assert_eq!(
        obs.registry
            .counter(vc_obs::names::HARDEN_SNAPSHOT_SAVE_FAILED),
        1
    );
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name() != "store")
        .collect();
    assert!(leftovers.is_empty(), "temp debris left: {leftovers:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_vcs::FileWrite;

    fn write(path: &str, content: &str) -> FileWrite {
        FileWrite {
            path: path.into(),
            content: content.into(),
        }
    }

    #[test]
    fn analyzes_only_changed_files() {
        let mut repo = Repository::new();
        let alice = repo.add_author("alice");
        let bob = repo.add_author("bob");
        repo.commit(
            alice,
            1,
            "init",
            vec![
                write("a.c", "void fa(void) {\nint x = 1;\nuse(x);\n}\n"),
                write("b.c", "void fb(void) {\nint y = 1;\nuse(y);\n}\n"),
            ],
        );
        // Bob introduces a cross-scope unused definition in a.c only.
        let c = repo.commit(
            bob,
            2,
            "rework fa",
            vec![write(
                "a.c",
                "void fa(void) {\nint x = 1;\nx = 2;\nuse(x);\n}\n",
            )],
        );
        let findings = analyze_commit(
            &repo,
            c,
            &[],
            &PruneConfig::default(),
            &RankConfig::default(),
        );
        assert_eq!(findings.changed_files, vec!["a.c".to_string()]);
        assert_eq!(findings.analysed_functions, 1);
        assert_eq!(findings.findings.len(), 1);
        assert_eq!(findings.findings[0].item.candidate.var_name, "x");
    }

    #[test]
    fn a_past_commit_is_blamed_as_of_that_commit() {
        // Alice's overwrite is single-author at c1. Bob's later prepend
        // shifts every line: blaming c1's program against the head
        // history would pin line 2 on bob and report a cross-scope `x`.
        let mut repo = Repository::new();
        let alice = repo.add_author("alice");
        let bob = repo.add_author("bob");
        let v1 = "void f(void) {\nint x = 1;\nx = 2;\nuse(x);\n}\n";
        let c1 = repo.commit(alice, 1, "init", vec![write("a.c", v1)]);
        let v2 = format!("int pad1;\nint pad2;\n{v1}");
        repo.commit(bob, 2, "pad", vec![write("a.c", &v2)]);
        let vars = |repo: &Repository| -> Vec<String> {
            analyze_commit(
                repo,
                c1,
                &[],
                &PruneConfig::default(),
                &RankConfig::default(),
            )
            .findings
            .iter()
            .map(|r| r.item.candidate.var_name.clone())
            .collect()
        };
        assert_eq!(vars(&repo), vars(&repo.checkout(c1)));
        assert!(vars(&repo).is_empty());
    }

    #[test]
    fn poisoned_changed_function_is_isolated() {
        let mut repo = Repository::new();
        let alice = repo.add_author("alice");
        let bob = repo.add_author("bob");
        let v1 =
            "void fa(void) {\nint x = 1;\nuse(x);\n}\nvoid fg(void) {\nint y = 1;\nuse(y);\n}\n";
        repo.commit(alice, 1, "init", vec![write("a.c", v1)]);
        let v2 = v1.replace("int x = 1;\n", "int x = 1;\nx = 2;\n");
        let c = repo.commit(
            bob,
            2,
            "rework",
            vec![write(
                "a.c",
                &v2.replace("int y = 1;\n", "int y = 1;\ny = 2;\n"),
            )],
        );
        let vars = |f: &CommitFindings| -> Vec<String> {
            f.findings
                .iter()
                .map(|r| r.item.candidate.var_name.clone())
                .collect()
        };
        let run = || {
            analyze_commit(
                &repo,
                c,
                &[],
                &PruneConfig::default(),
                &RankConfig::default(),
            )
        };
        assert_eq!(vars(&run()), ["x", "y"]);

        let obs = ObsSession::new();
        let _g = obs.install();
        let _fp = crate::harden::arm_failpoint(crate::harden::FailStage::Detect, "fg");
        let poisoned = run();
        assert_eq!(vars(&poisoned), ["x"], "the other findings are unchanged");
        let reg = &obs.registry;
        assert_eq!(reg.counter(vc_obs::names::HARDEN_POISONED_DETECT), 1);
        let pruned: u64 = crate::prune::PruneReason::ALL
            .iter()
            .map(|r| reg.counter(&vc_obs::names::funnel_pruned(r.label())))
            .sum();
        assert_eq!(
            reg.counter(vc_obs::names::FUNNEL_CROSS_SCOPE),
            pruned + reg.counter(vc_obs::names::FUNNEL_REPORTED)
        );
    }

    #[test]
    fn clean_commit_has_no_findings() {
        let mut repo = Repository::new();
        let a = repo.add_author("a");
        let c = repo.commit(
            a,
            1,
            "init",
            vec![write("a.c", "int f(int v) { return v + 1; }\n")],
        );
        let findings = analyze_commit(
            &repo,
            c,
            &[],
            &PruneConfig::default(),
            &RankConfig::default(),
        );
        assert!(findings.findings.is_empty());
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("vc-snap-{}-{}", std::process::id(), name))
    }

    #[test]
    fn snapshot_store_roundtrips() {
        let path = temp_path("roundtrip");
        let mut store = SnapshotStore::default();
        store.commit = Some(CommitId(7));
        store.findings.push(StoredFinding {
            function: "f".into(),
            variable: "x".into(),
            line: 3,
            file: "a.c".into(),
            scenario: "retval".into(),
            fingerprint: 0xDEAD_BEEF_0123_4567,
        });
        store.save(&path).unwrap();
        let loaded = SnapshotStore::load(&path);
        assert_eq!(loaded, store);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_snapshot_file_recovers_cold_and_counts() {
        // A file killed mid-write before the checksum line: structurally
        // incomplete, counted as recovered (not corrupt).
        let path = temp_path("truncated");
        std::fs::write(&path, "valuecheck-snapshot v3\ncommit 3\nfinding f\tx\n").unwrap();
        let obs = vc_obs::ObsSession::new();
        let loaded = {
            let _g = obs.install();
            SnapshotStore::load(&path)
        };
        assert_eq!(loaded, SnapshotStore::default());
        assert_eq!(
            obs.registry
                .counter(vc_obs::names::HARDEN_SNAPSHOT_RECOVERED),
            1
        );
        assert_eq!(
            obs.registry.counter(vc_obs::names::HARDEN_SNAPSHOT_CORRUPT),
            0
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checksum_mismatch_counts_as_corrupt_not_recovered() {
        let path = temp_path("bitrot");
        let mut store = SnapshotStore::default();
        store.commit = Some(CommitId(3));
        store.findings.push(StoredFinding {
            function: "f".into(),
            variable: "x".into(),
            line: 9,
            file: "a.c".into(),
            scenario: "param".into(),
            fingerprint: 7,
        });
        store.save(&path).unwrap();
        // Flip one content byte; the trailing checksum no longer matches.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("\tx\t", "\ty\t")).unwrap();
        let obs = vc_obs::ObsSession::new();
        let loaded = {
            let _g = obs.install();
            SnapshotStore::load(&path)
        };
        assert_eq!(loaded, SnapshotStore::default());
        assert_eq!(
            obs.registry.counter(vc_obs::names::HARDEN_SNAPSHOT_CORRUPT),
            1
        );
        assert_eq!(
            obs.registry
                .counter(vc_obs::names::HARDEN_SNAPSHOT_RECOVERED),
            0
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_is_atomic_and_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("vc-snap-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.snap");
        let mut store = SnapshotStore::default();
        store.commit = Some(CommitId(1));
        store.save(&path).unwrap();
        store.commit = Some(CommitId(2));
        store.save(&path).unwrap();
        assert_eq!(SnapshotStore::load(&path).commit, Some(CommitId(2)));
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name() != "store.snap")
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_save_removes_its_temp_file_and_counts() {
        assert_failed_save_cleans_up("snap", |path| {
            let mut store = SnapshotStore::default();
            store.commit = Some(CommitId(1));
            store.save(path)
        });
    }

    #[test]
    fn version_mismatched_snapshot_recovers_cold() {
        let path = temp_path("version");
        std::fs::write(&path, "valuecheck-snapshot v999\ncommit 3\n").unwrap();
        let obs = vc_obs::ObsSession::new();
        let loaded = {
            let _g = obs.install();
            SnapshotStore::load(&path)
        };
        assert_eq!(loaded, SnapshotStore::default());
        assert_eq!(
            obs.registry
                .counter(vc_obs::names::HARDEN_SNAPSHOT_RECOVERED),
            1
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_snapshot_file_is_a_silent_cold_start() {
        let path = temp_path("never-written");
        let obs = vc_obs::ObsSession::new();
        let loaded = {
            let _g = obs.install();
            SnapshotStore::load(&path)
        };
        assert_eq!(loaded, SnapshotStore::default());
        assert_eq!(
            obs.registry
                .counter(vc_obs::names::HARDEN_SNAPSHOT_RECOVERED),
            0
        );
    }

    #[test]
    fn legacy_v2_snapshot_recovers_cold() {
        // A v2 file (pre-fingerprint format) with a *valid* checksum: the
        // version gate — not the checksum — must reject it.
        let path = temp_path("legacy-v2");
        let body = "valuecheck-snapshot v2\ncommit 3\nfinding f\tx\t9\n";
        let sum = content_hash(body);
        std::fs::write(&path, format!("{body}checksum {sum:016x}\n")).unwrap();
        let obs = vc_obs::ObsSession::new();
        let loaded = {
            let _g = obs.install();
            SnapshotStore::load(&path)
        };
        assert_eq!(loaded, SnapshotStore::default());
        assert_eq!(
            obs.registry
                .counter(vc_obs::names::HARDEN_SNAPSHOT_RECOVERED),
            1
        );
        assert_eq!(
            obs.registry.counter(vc_obs::names::HARDEN_SNAPSHOT_CORRUPT),
            0
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn historical_snapshots_are_analyzable() {
        let mut repo = Repository::new();
        let a = repo.add_author("a");
        let c1 = repo.commit(
            a,
            1,
            "v1 with helper",
            vec![write("a.c", "int helper(void) { return 1; }\n")],
        );
        let _c2 = repo.commit(
            a,
            2,
            "v2 removes helper",
            vec![write("a.c", "int other(void) { return 2; }\n")],
        );
        // Analysing c1 sees the old tree.
        let f = analyze_commit(
            &repo,
            c1,
            &[],
            &PruneConfig::default(),
            &RankConfig::default(),
        );
        assert_eq!(f.analysed_functions, 1);
    }
}
