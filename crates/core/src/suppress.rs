//! Suppression: inline annotations and the persisted suppression store.
//!
//! A team adopting a scanner inherits its backlog; the way out is to mark
//! the findings they have triaged as *suppressed* so the CI gate only
//! fires on new ones. Two mechanisms cooperate here:
//!
//! - **Inline annotations** — a `// vcheck:allow(<scenario>)` comment in
//!   the source itself, either trailing the flagged definition line or on
//!   a line of its own directly above it. `all` (or a bare
//!   `vcheck:allow`) matches any scenario. The MiniC lexer strips
//!   comments, so annotations never change parsing, fingerprints, or
//!   line numbers.
//! - **The [`SuppressStore`]** — an on-disk list of suppressed findings
//!   keyed by drift-stable fingerprint, with the same torn-write
//!   discipline as the snapshot store: trailing FNV-1a checksum, atomic
//!   save, and a never-failing load that degrades to empty under
//!   `suppress.store_corrupt` / `suppress.store_recovered`.
//!
//! Fingerprints survive pure drift but not an edit to the definition line
//! itself, and a wholesale refactor moves code beyond what any fingerprint
//! tracks. The store therefore carries each entry's *current* coordinates
//! and [`SuppressStore::advance`] pushes them through the
//! [`LineMap`](vc_vcs::diff::LineMap) at every revision step; when a
//! finding's fingerprint no longer matches any entry,
//! [`SuppressStore::match_and_heal`] falls back to file + scenario +
//! nearby line (within [`CHURN_NEARBY_LINES`]) and re-keys the entry to
//! the finding's new fingerprint — a suppression survives the refactor
//! that invalidated its hash (`suppress.line_mapped`).

use std::{
    collections::HashMap,
    path::Path, //
};

use vc_obs::names;
use vc_vcs::diff::LineMap;

use crate::{
    delta::{
        Finding,
        CHURN_NEARBY_LINES, //
    },
    incremental::{
        content_hash,
        load_checksummed,
        write_atomic, //
    },
};

/// The annotation marker scanned for in source comments.
pub const ALLOW_MARKER: &str = "vcheck:allow";

/// Scenario wildcard: matches every scenario.
const ANY_SCENARIO: &str = "all";

/// Inline `// vcheck:allow(...)` annotations indexed from one revision's
/// sources: `(file, line) → scenario` (with [`ANY_SCENARIO`] as the
/// wildcard). Lines are the *covered* lines, not the annotation lines — a
/// standalone annotation covers the line below it, a trailing one covers
/// its own.
#[derive(Clone, Debug, Default)]
pub struct InlineSuppressions {
    allows: HashMap<(String, u32), String>,
}

impl InlineSuppressions {
    /// Scans every file of a snapshot for annotations.
    pub fn from_sources(sources: &HashMap<String, String>) -> InlineSuppressions {
        let mut allows = HashMap::new();
        for (file, content) in sources {
            for (i, line) in content.lines().enumerate() {
                let Some(comment_at) = line.find("//") else {
                    continue;
                };
                let comment = &line[comment_at..];
                let Some(marker_at) = comment.find(ALLOW_MARKER) else {
                    continue;
                };
                let scenario = parse_scenario(&comment[marker_at + ALLOW_MARKER.len()..]);
                let standalone = line[..comment_at].trim().is_empty();
                // 1-based: a standalone annotation on line i+1 covers line
                // i+2; a trailing one covers its own line i+1.
                let covered = if standalone {
                    i as u32 + 2
                } else {
                    i as u32 + 1
                };
                allows.insert((file.clone(), covered), scenario);
            }
        }
        InlineSuppressions { allows }
    }

    /// Whether an annotation covers `(file, line)` for `scenario`.
    pub fn allows(&self, file: &str, line: u32, scenario: &str) -> bool {
        match self.allows.get(&(file.to_string(), line)) {
            Some(s) => s == ANY_SCENARIO || s == scenario,
            None => false,
        }
    }

    /// Number of annotations found.
    pub fn len(&self) -> usize {
        self.allows.len()
    }

    /// Whether no annotations were found.
    pub fn is_empty(&self) -> bool {
        self.allows.is_empty()
    }
}

/// Extracts the scenario from the text after the marker: `(retval)` →
/// `retval`; a bare marker, empty parens, or `(all)` → the wildcard.
fn parse_scenario(rest: &str) -> String {
    let rest = rest.trim_start();
    let Some(open) = rest.strip_prefix('(') else {
        return ANY_SCENARIO.to_string();
    };
    let Some(close) = open.find(')') else {
        return ANY_SCENARIO.to_string();
    };
    let scenario = open[..close].trim();
    if scenario.is_empty() {
        ANY_SCENARIO.to_string()
    } else {
        scenario.to_string()
    }
}

/// On-disk format version of [`SuppressStore`].
pub const SUPPRESS_FILE_VERSION: u32 = 1;

/// One suppressed finding: its drift-stable fingerprint plus the current
/// coordinates the nearby-line fallback needs when the fingerprint stops
/// matching.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SuppressEntry {
    /// Fingerprint of the suppressed finding (healed on line-map matches).
    pub fingerprint: u64,
    /// File of the suppressed definition.
    pub file: String,
    /// 1-based line in the *most recently advanced* revision.
    pub line: u32,
    /// Scenario label, or `all` for any.
    pub scenario: String,
    /// Free-form triage note (no tabs or newlines survive the round trip).
    pub reason: String,
}

/// How an entry matched a finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SuppressMatch {
    /// Exact fingerprint equality (`suppress.store`).
    Fingerprint,
    /// File + scenario + nearby-line fallback after the fingerprint moved
    /// (`suppress.line_mapped`); the entry was re-keyed to the new
    /// fingerprint.
    NearbyLine,
}

/// The persisted suppression list.
///
/// Line-oriented, checksummed, atomically written:
///
/// ```text
/// vcheck-suppress v1
/// allow <fp-hex16>\t<file>\t<line>\t<scenario>\t<reason>
/// checksum <hex16>
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SuppressStore {
    /// The suppressed findings, in file order.
    pub entries: Vec<SuppressEntry>,
}

impl SuppressStore {
    /// Loads a store from disk; **never fails** (defects degrade to empty
    /// under `suppress.store_corrupt` or `suppress.store_recovered`).
    pub fn load(path: &Path) -> SuppressStore {
        load_checksummed(
            path,
            names::SUPPRESS_STORE_CORRUPT,
            names::SUPPRESS_STORE_RECOVERED,
            Self::parse,
        )
    }

    fn parse(text: &str) -> Option<SuppressStore> {
        let mut lines = text.lines();
        let version = lines.next()?.strip_prefix("vcheck-suppress v")?;
        if version.parse::<u32>().ok()? != SUPPRESS_FILE_VERSION {
            return None;
        }
        let mut store = SuppressStore::default();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let rec = line.strip_prefix("allow ")?;
            let mut parts = rec.split('\t');
            let entry = SuppressEntry {
                fingerprint: u64::from_str_radix(parts.next()?, 16).ok()?,
                file: parts.next()?.to_string(),
                line: parts.next()?.parse().ok()?,
                scenario: parts.next()?.to_string(),
                reason: parts.next()?.to_string(),
            };
            if parts.next().is_some() {
                return None; // trailing garbage on the line
            }
            store.entries.push(entry);
        }
        Some(store)
    }

    /// Serialises the store (including its checksum line).
    pub fn to_text(&self) -> String {
        let mut out = format!("vcheck-suppress v{SUPPRESS_FILE_VERSION}\n");
        for e in &self.entries {
            out.push_str(&format!(
                "allow {:016x}\t{}\t{}\t{}\t{}\n",
                e.fingerprint,
                e.file,
                e.line,
                e.scenario,
                e.reason.replace(['\t', '\n'], " ")
            ));
        }
        out.push_str(&format!("checksum {:016x}\n", content_hash(&out)));
        out
    }

    /// Writes the store atomically (temp file + fsync + rename).
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        write_atomic(path, &self.to_text())
    }

    /// Pushes every entry's line through the edit script from
    /// `old_sources` to `new_sources`, keeping the store's coordinates in
    /// the current revision. Entries in deleted files (or whose
    /// neighbourhood vanished) keep their stale line — the fingerprint key
    /// still works, only the nearby-line fallback degrades.
    pub fn advance(
        &mut self,
        old_sources: &HashMap<String, String>,
        new_sources: &HashMap<String, String>,
    ) {
        let mut maps: HashMap<String, Option<LineMap>> = HashMap::new();
        for e in &mut self.entries {
            let map = maps.entry(e.file.clone()).or_insert_with(|| {
                let old_text = old_sources.get(&e.file)?;
                let new_text = new_sources.get(&e.file)?;
                Some(LineMap::between(old_text, new_text))
            });
            if let Some(mapped) = map.as_ref().and_then(|m| m.old_to_new_nearby(e.line)) {
                e.line = mapped;
            }
        }
    }

    /// Matches `finding` against the store: fingerprint equality first;
    /// otherwise the same file + scenario within [`CHURN_NEARBY_LINES`] of
    /// an entry's (advanced) line, in which case the entry is *healed* —
    /// re-keyed to the finding's fingerprint and line — so the next
    /// revision matches cheaply again. Records `suppress.store` /
    /// `suppress.line_mapped` into the installed session.
    pub fn match_and_heal(&mut self, finding: &Finding) -> Option<SuppressMatch> {
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.fingerprint == finding.fingerprint.0)
        {
            e.file = finding.file.clone();
            e.line = finding.line;
            vc_obs::counter_inc(names::SUPPRESS_STORE);
            return Some(SuppressMatch::Fingerprint);
        }
        let e = self.entries.iter_mut().find(|e| {
            e.file == finding.file
                && (e.scenario == ANY_SCENARIO || e.scenario == finding.scenario)
                && e.line.abs_diff(finding.line) <= CHURN_NEARBY_LINES
        })?;
        e.fingerprint = finding.fingerprint.0;
        e.line = finding.line;
        vc_obs::counter_inc(names::SUPPRESS_LINE_MAPPED);
        Some(SuppressMatch::NearbyLine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::Fingerprint;

    fn sources(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs
            .iter()
            .map(|(p, c)| (p.to_string(), c.to_string()))
            .collect()
    }

    fn finding(file: &str, line: u32, scenario: &str, fp: u64) -> Finding {
        Finding {
            fingerprint: Fingerprint(fp),
            file: file.into(),
            line,
            function: "f".into(),
            variable: "ret".into(),
            scenario: scenario.into(),
        }
    }

    #[test]
    fn standalone_annotation_covers_the_next_line() {
        let src = sources(&[(
            "a.c",
            "int f(void) {\n// vcheck:allow(retval)\nint ret = g();\nreturn 0;\n}\n",
        )]);
        let inline = InlineSuppressions::from_sources(&src);
        assert_eq!(inline.len(), 1);
        assert!(inline.allows("a.c", 3, "retval"));
        assert!(!inline.allows("a.c", 2, "retval"), "not the comment line");
        assert!(!inline.allows("a.c", 3, "param"), "scenario-scoped");
        assert!(!inline.allows("b.c", 3, "retval"));
    }

    #[test]
    fn trailing_annotation_covers_its_own_line() {
        let src = sources(&[(
            "a.c",
            "int f(void) {\nint ret = g(); // vcheck:allow(retval)\nreturn 0;\n}\n",
        )]);
        let inline = InlineSuppressions::from_sources(&src);
        assert!(inline.allows("a.c", 2, "retval"));
        assert!(!inline.allows("a.c", 3, "retval"));
    }

    #[test]
    fn bare_and_all_annotations_match_any_scenario() {
        let src = sources(&[(
            "a.c",
            "int x = g(); // vcheck:allow\nint y = h(); // vcheck:allow(all)\n",
        )]);
        let inline = InlineSuppressions::from_sources(&src);
        assert!(inline.allows("a.c", 1, "retval"));
        assert!(inline.allows("a.c", 1, "overwritten"));
        assert!(inline.allows("a.c", 2, "param"));
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("vc-suppress-{}-{}", std::process::id(), name))
    }

    #[test]
    fn store_roundtrips_atomically() {
        let path = temp_path("roundtrip");
        let store = SuppressStore {
            entries: vec![SuppressEntry {
                fingerprint: 0xABCD,
                file: "a.c".into(),
                line: 7,
                scenario: "retval".into(),
                reason: "vetted 2026-08".into(),
            }],
        };
        store.save(&path).unwrap();
        assert_eq!(SuppressStore::load(&path), store);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_save_removes_its_temp_file_and_counts() {
        crate::incremental::assert_failed_save_cleans_up("suppress", |path| {
            SuppressStore::default().save(path)
        });
    }

    #[test]
    fn corrupt_store_degrades_empty_and_counts() {
        let path = temp_path("corrupt");
        let store = SuppressStore {
            entries: vec![SuppressEntry {
                fingerprint: 1,
                file: "a.c".into(),
                line: 1,
                scenario: "all".into(),
                reason: "r".into(),
            }],
        };
        store.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("a.c", "b.c")).unwrap();
        let obs = vc_obs::ObsSession::new();
        let loaded = {
            let _g = obs.install();
            SuppressStore::load(&path)
        };
        assert_eq!(loaded, SuppressStore::default());
        assert_eq!(obs.registry.counter(names::SUPPRESS_STORE_CORRUPT), 1);
        assert_eq!(obs.registry.counter(names::SUPPRESS_STORE_RECOVERED), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_store_counts_as_recovered() {
        let path = temp_path("truncated");
        std::fs::write(&path, "vcheck-suppress v1\nallow 00ff\ta.c\n").unwrap();
        let obs = vc_obs::ObsSession::new();
        let loaded = {
            let _g = obs.install();
            SuppressStore::load(&path)
        };
        assert_eq!(loaded, SuppressStore::default());
        assert_eq!(obs.registry.counter(names::SUPPRESS_STORE_RECOVERED), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_match_wins_and_refreshes_coordinates() {
        let mut store = SuppressStore {
            entries: vec![SuppressEntry {
                fingerprint: 42,
                file: "a.c".into(),
                line: 3,
                scenario: "retval".into(),
                reason: String::new(),
            }],
        };
        let obs = vc_obs::ObsSession::new();
        let m = {
            let _g = obs.install();
            store.match_and_heal(&finding("a.c", 30, "retval", 42))
        };
        assert_eq!(m, Some(SuppressMatch::Fingerprint));
        assert_eq!(store.entries[0].line, 30, "coordinates refreshed");
        assert_eq!(obs.registry.counter(names::SUPPRESS_STORE), 1);
    }

    #[test]
    fn nearby_line_fallback_heals_the_fingerprint() {
        let mut store = SuppressStore {
            entries: vec![SuppressEntry {
                fingerprint: 42,
                file: "a.c".into(),
                line: 10,
                scenario: "retval".into(),
                reason: String::new(),
            }],
        };
        let obs = vc_obs::ObsSession::new();
        // Fingerprint moved (definition line edited), but the finding sits
        // within CHURN_NEARBY_LINES of the entry's advanced line.
        let m = {
            let _g = obs.install();
            store.match_and_heal(&finding("a.c", 12, "retval", 99))
        };
        assert_eq!(m, Some(SuppressMatch::NearbyLine));
        assert_eq!(store.entries[0].fingerprint, 99, "healed");
        assert_eq!(obs.registry.counter(names::SUPPRESS_LINE_MAPPED), 1);
        // Far away, or a different scenario: no match.
        assert_eq!(store.match_and_heal(&finding("a.c", 40, "retval", 7)), None);
        assert_eq!(store.match_and_heal(&finding("a.c", 12, "param", 7)), None);
    }

    #[test]
    fn advance_tracks_drift_through_the_line_map() {
        let mut store = SuppressStore {
            entries: vec![SuppressEntry {
                fingerprint: 1,
                file: "a.c".into(),
                line: 2,
                scenario: "all".into(),
                reason: String::new(),
            }],
        };
        let old = sources(&[("a.c", "one\ntwo\nthree\n")]);
        let new = sources(&[("a.c", "pad\npad\none\ntwo\nthree\n")]);
        store.advance(&old, &new);
        assert_eq!(store.entries[0].line, 4, "two pad lines above");
        // A deleted file leaves the entry untouched.
        let gone = sources(&[]);
        store.advance(&new, &gone);
        assert_eq!(store.entries[0].line, 4);
    }
}
