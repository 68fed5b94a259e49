//! Property tests for the VCS substrate: the shape of diff scripts (kept
//! lines pair equal lines, hunks cover both files, no two neighbours of one
//! kind), blame coverage, and checkout consistency.
//!
//! Each property runs as a deterministic loop over cases drawn from a
//! seeded [`SplitMix64`]; a failing case prints its case number so it can
//! be replayed exactly.

use vc_obs::SplitMix64;
use vc_vcs::{
    diff::{
        churn,
        diff_lines,
        patch,
        Edit, //
    },
    FileWrite, Repository,
};

/// A random file as a vector of short lines over a tiny alphabet, so that
/// diffs see plenty of genuine matches and moves.
fn random_lines(rng: &mut SplitMix64, max_lines: usize) -> Vec<String> {
    const POOL: &[char] = &['a', 'b', 'c', 'd', 'x', 'y', 'z'];
    let n = rng.range_usize(0, max_lines);
    (0..n)
        .map(|_| {
            let len = rng.range_inclusive_usize(0, 3);
            (0..len).map(|_| *rng.choice(POOL)).collect()
        })
        .collect()
}

/// A random history: each revision is a full rewrite of the file.
fn random_history(rng: &mut SplitMix64, min_revs: usize, max_revs: usize) -> Vec<Vec<String>> {
    let n = rng.range_usize(min_revs, max_revs);
    (0..n).map(|_| random_lines(rng, 40)).collect()
}

/// Every `Keep` hunk pairs equal lines, and the hunks cover `old` and
/// `new` exactly; `patch` (which asserts the coverage) is the oracle.
#[test]
fn kept_lines_pair_equal_lines_and_hunks_cover_both_files() {
    let mut rng = SplitMix64::new(0xC1);
    for case in 0..200 {
        let old = random_lines(&mut rng, 40);
        let new = random_lines(&mut rng, 40);
        let script = diff_lines(&old, &new);
        assert_eq!(
            patch(&old, &new, &script),
            new,
            "case {case}: {old:?} -> {new:?}"
        );
        let (mut i, mut j) = (0, 0);
        for edit in &script {
            match *edit {
                Edit::Keep(n) => {
                    assert_eq!(old[i..i + n], new[j..j + n], "case {case}: {script:?}");
                    i += n;
                    j += n;
                }
                Edit::Delete(n) => i += n,
                Edit::Insert(n) => j += n,
            }
        }
        assert_eq!((i, j), (old.len(), new.len()), "case {case}: {script:?}");
    }
}

/// No script holds an empty hunk or two adjacent hunks of the same kind:
/// the builder merges neighbours as it goes, so no clean-up pass is needed.
#[test]
fn scripts_never_repeat_a_hunk_kind() {
    let mut rng = SplitMix64::new(0xC7);
    for case in 0..400 {
        let old = random_lines(&mut rng, 40);
        // Half the cases edit `old` locally so prefix/suffix trims and
        // interleaved keeps are both exercised.
        let new = if case % 2 == 0 {
            random_lines(&mut rng, 40)
        } else {
            let mut new = old.clone();
            let at = rng.range_inclusive_usize(0, new.len());
            let cut = rng.range_inclusive_usize(0, (new.len() - at).min(3));
            new.splice(at..at + cut, random_lines(&mut rng, 4));
            new
        };
        let script = diff_lines(&old, &new);
        for e in &script {
            assert!(
                !matches!(e, Edit::Keep(0) | Edit::Delete(0) | Edit::Insert(0)),
                "case {case}: empty hunk in {script:?}"
            );
        }
        for pair in script.windows(2) {
            assert_ne!(
                std::mem::discriminant(&pair[0]),
                std::mem::discriminant(&pair[1]),
                "case {case}: {old:?} -> {new:?} gave {script:?}"
            );
        }
    }
}

/// A diff never claims more churn than a full rewrite.
#[test]
fn churn_is_bounded() {
    let mut rng = SplitMix64::new(0xC2);
    for case in 0..200 {
        let old = random_lines(&mut rng, 40);
        let new = random_lines(&mut rng, 40);
        let script = diff_lines(&old, &new);
        assert!(churn(&script) <= old.len() + new.len(), "case {case}");
    }
}

/// Diffing a file against itself is pure Keep.
#[test]
fn self_diff_is_empty() {
    let mut rng = SplitMix64::new(0xC3);
    for case in 0..200 {
        let old = random_lines(&mut rng, 40);
        let script = diff_lines(&old, &old);
        assert_eq!(churn(&script), 0, "case {case}: {old:?}");
    }
}

/// After any sequence of commits, blame covers exactly the file's lines,
/// and every blame entry names a registered author and commit.
#[test]
fn blame_covers_exactly_the_file() {
    let mut rng = SplitMix64::new(0xC4);
    for case in 0..60 {
        let contents = random_history(&mut rng, 1, 6);
        let mut repo = Repository::new();
        let authors = [repo.add_author("a"), repo.add_author("b")];
        for (i, lines) in contents.iter().enumerate() {
            repo.commit(
                authors[i % 2],
                1_000 + i as i64,
                format!("rev {i}"),
                vec![FileWrite {
                    path: "f".into(),
                    content: lines.join("\n") + "\n",
                }],
            );
        }
        let last = contents.last().unwrap();
        // Writing an empty line list still produces "\n": one empty line,
        // matching git's accounting of a file containing a single newline.
        let expect = last.len().max(1);
        assert_eq!(repo.line_count("f"), expect, "case {case}");
        for line in 1..=expect as u32 {
            let b = repo.blame("f", line).expect("line has blame");
            assert!(authors.contains(&b.author), "case {case}");
            assert!((b.commit.0 as usize) < contents.len(), "case {case}");
        }
        assert!(repo.blame("f", expect as u32 + 1).is_none(), "case {case}");
    }
}

/// `checkout(c)` reproduces the blame the repository had at commit `c`.
#[test]
fn checkout_blame_matches_incremental_blame() {
    let mut rng = SplitMix64::new(0xC5);
    for case in 0..60 {
        let contents = random_history(&mut rng, 2, 6);
        // Build incrementally, capturing blame after the first commit.
        let mut repo = Repository::new();
        let a = repo.add_author("a");
        let b = repo.add_author("b");
        let mut first_commit = None;
        let mut first_blames = Vec::new();
        for (i, lines) in contents.iter().enumerate() {
            let id = repo.commit(
                if i % 2 == 0 { a } else { b },
                1_000 + i as i64,
                format!("rev {i}"),
                vec![FileWrite {
                    path: "f".into(),
                    content: lines.join("\n") + "\n",
                }],
            );
            if i == 0 {
                first_commit = Some(id);
                for line in 1..=repo.line_count("f") as u32 {
                    first_blames.push(repo.blame("f", line).unwrap());
                }
            }
        }
        let old = repo.checkout(first_commit.unwrap());
        assert_eq!(old.line_count("f"), first_blames.len(), "case {case}");
        for (i, expect) in first_blames.iter().enumerate() {
            assert_eq!(old.blame("f", i as u32 + 1), Some(*expect), "case {case}");
        }
    }
}

/// Snapshot trees agree with replayed file contents.
#[test]
fn snapshot_matches_final_content() {
    let mut rng = SplitMix64::new(0xC6);
    for case in 0..60 {
        let contents = random_history(&mut rng, 1, 5);
        let mut repo = Repository::new();
        let a = repo.add_author("a");
        let mut last = None;
        for (i, lines) in contents.iter().enumerate() {
            last = Some(repo.commit(
                a,
                i as i64,
                "c",
                vec![FileWrite {
                    path: "f".into(),
                    content: lines.join("\n") + "\n",
                }],
            ));
        }
        let snap = repo.snapshot_at(last.unwrap());
        let expected = contents.last().unwrap().join("\n") + "\n";
        assert_eq!(snap.get("f"), Some(&expected), "case {case}");
    }
}
