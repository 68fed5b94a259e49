//! Line-oriented diff used for blame attribution.
//!
//! The VCS substrate assigns blame by diffing each commit's new file content
//! against the previous content: kept lines retain their blame, inserted
//! lines are attributed to the committing author — the same attribution rule
//! `git blame` implements.
//!
//! The algorithm trims the common prefix and suffix (commits usually touch a
//! small contiguous region) and runs an exact LCS on the remaining middle.
//! If the middle is pathologically large the diff degrades to
//! delete-all/insert-all for the middle — still a correct patch, just not
//! minimal, mirroring the heuristic cutoffs of production diff tools.
//!
//! Scripts are computed over borrowed lines (any `T: PartialEq`, in
//! practice `&str` slices of a file's text split by [`lines`]) and carry
//! only counts: the lines themselves stay in the caller's text.

/// One hunk of an edit script.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Edit {
    /// The next `n` lines are unchanged.
    Keep(usize),
    /// The next `n` old lines are removed.
    Delete(usize),
    /// The next `n` new lines are inserted.
    Insert(usize),
}

/// Middle sizes whose product exceeds this fall back to full replacement.
const LCS_CELL_LIMIT: usize = 16_000_000;

/// Splits text into lines the way blame counts them (`git`'s accounting):
/// on `\n` only, with a trailing newline ending the last line rather than
/// opening an empty one. A `\r` stays part of its line.
///
/// # Examples
///
/// ```
/// use vc_vcs::diff::lines;
/// assert_eq!(lines("a\nb\n").collect::<Vec<_>>(), ["a", "b"]);
/// assert_eq!(lines("a\nb").collect::<Vec<_>>(), ["a", "b"]);
/// assert_eq!(lines("a\n\n").collect::<Vec<_>>(), ["a", ""]);
/// assert_eq!(lines("").count(), 0);
/// ```
pub fn lines(text: &str) -> std::str::SplitTerminator<'_, char> {
    text.split_terminator('\n')
}

/// Computes a line edit script transforming `old` into `new`.
///
/// The script is minimal whenever the changed region is below the DP cutoff
/// (16M cells, ~4000×4000 changed lines), which covers every realistic
/// commit. It never holds two adjacent hunks of the same kind, and
/// `patch(old, new, &diff_lines(old, new)) == new` holds unconditionally.
///
/// # Examples
///
/// ```
/// use vc_vcs::diff::{diff_lines, Edit};
/// let script = diff_lines(&["a", "b", "c"], &["a", "x", "c"]);
/// assert_eq!(script, [Edit::Keep(1), Edit::Delete(1), Edit::Insert(1), Edit::Keep(1)]);
/// ```
pub fn diff_lines<T: PartialEq>(old: &[T], new: &[T]) -> Vec<Edit> {
    // Trim common prefix.
    let mut prefix = 0;
    while prefix < old.len() && prefix < new.len() && old[prefix] == new[prefix] {
        prefix += 1;
    }
    // Trim common suffix (not overlapping the prefix).
    let mut suffix = 0;
    while suffix < old.len() - prefix
        && suffix < new.len() - prefix
        && old[old.len() - 1 - suffix] == new[new.len() - 1 - suffix]
    {
        suffix += 1;
    }
    let mid_old = &old[prefix..old.len() - suffix];
    let mid_new = &new[prefix..new.len() - suffix];

    // The middle never starts or ends with a kept line (the trims took
    // those), so the three parts join without two adjacent `Keep`s.
    let mut edits = Vec::new();
    if prefix > 0 {
        edits.push(Edit::Keep(prefix));
    }
    append_middle(mid_old, mid_new, &mut edits);
    if suffix > 0 {
        edits.push(Edit::Keep(suffix));
    }
    edits
}

/// Diffs the changed middle region via LCS, appending hunks to `edits`.
fn append_middle<T: PartialEq>(old: &[T], new: &[T], edits: &mut Vec<Edit>) {
    let (n, m) = (old.len(), new.len());
    if n == 0 && m == 0 {
        return;
    }
    if n == 0 {
        edits.push(Edit::Insert(m));
        return;
    }
    if m == 0 {
        edits.push(Edit::Delete(n));
        return;
    }
    if n.saturating_mul(m) > LCS_CELL_LIMIT {
        edits.push(Edit::Delete(n));
        edits.push(Edit::Insert(m));
        return;
    }

    // LCS length table; lcs[i][j] = LCS of old[i..], new[j..].
    let mut lcs = vec![0u32; (n + 1) * (m + 1)];
    let at = |i: usize, j: usize| i * (m + 1) + j;
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            lcs[at(i, j)] = if old[i] == new[j] {
                lcs[at(i + 1, j + 1)] + 1
            } else {
                lcs[at(i + 1, j)].max(lcs[at(i, j + 1)])
            };
        }
    }
    // Walk the table emitting hunks; `push` merges same-kind neighbours.
    let (mut i, mut j) = (0, 0);
    while i < n && j < m {
        if old[i] == new[j] {
            push(edits, Edit::Keep(1));
            i += 1;
            j += 1;
        } else if lcs[at(i + 1, j)] >= lcs[at(i, j + 1)] {
            push(edits, Edit::Delete(1));
            i += 1;
        } else {
            push(edits, Edit::Insert(1));
            j += 1;
        }
    }
    if i < n {
        push(edits, Edit::Delete(n - i));
    }
    if j < m {
        push(edits, Edit::Insert(m - j));
    }
}

/// Appends a hunk, growing the last one instead when it is the same kind.
fn push(edits: &mut Vec<Edit>, edit: Edit) {
    match (edits.last_mut(), edit) {
        (Some(Edit::Keep(a)), Edit::Keep(b))
        | (Some(Edit::Delete(a)), Edit::Delete(b))
        | (Some(Edit::Insert(a)), Edit::Insert(b)) => *a += b,
        (_, edit) => edits.push(edit),
    }
}

/// Applies an edit script: `Keep` copies lines from `old`, `Insert` takes
/// the next lines of `new`. The result equals `new` exactly when every
/// `Keep` pairs equal lines, which makes it the checking oracle for
/// [`diff_lines`].
///
/// # Panics
///
/// Panics if the script does not cover `old` and `new` exactly.
pub fn patch<T: Clone>(old: &[T], new: &[T], script: &[Edit]) -> Vec<T> {
    let mut out = Vec::with_capacity(new.len());
    let (mut i, mut j) = (0usize, 0usize);
    for edit in script {
        match *edit {
            Edit::Keep(n) => {
                out.extend_from_slice(&old[i..i + n]);
                i += n;
                j += n;
            }
            Edit::Delete(n) => i += n,
            Edit::Insert(n) => {
                out.extend_from_slice(&new[j..j + n]);
                j += n;
            }
        }
    }
    assert_eq!(i, old.len(), "edit script does not cover the old file");
    assert_eq!(j, new.len(), "edit script does not cover the new file");
    out
}

/// A bidirectional 1-based line-number mapping across an edit script.
///
/// Built once from a [`diff_lines`] script, it answers "where did old line
/// *n* land in the new file?" (and the inverse) in O(1). Lines inside
/// `Delete`/`Insert` hunks have no counterpart and map to `None` — only
/// `Keep` hunks carry a line across revisions. This is what makes warning
/// identities drift-stable: a finding's line can be followed through a
/// commit's edit script instead of being compared numerically.
///
/// # Examples
///
/// ```
/// use vc_vcs::diff::LineMap;
/// let map = LineMap::between("a\nb\nc\n", "x\na\nb\nc\n");
/// assert_eq!(map.old_to_new(1), Some(2)); // "a" shifted down by the insert
/// assert_eq!(map.new_to_old(1), None); // "x" is new
/// ```
#[derive(Clone, Debug)]
pub struct LineMap {
    /// `old_to_new[i]` is the new 1-based line of old line `i + 1`.
    old_to_new: Vec<Option<u32>>,
    /// `new_to_old[j]` is the old 1-based line of new line `j + 1`.
    new_to_old: Vec<Option<u32>>,
}

impl LineMap {
    /// Builds the mapping from an edit script.
    pub fn new(script: &[Edit]) -> LineMap {
        let mut old_to_new = Vec::new();
        let mut new_to_old = Vec::new();
        for edit in script {
            match edit {
                Edit::Keep(n) => {
                    for _ in 0..*n {
                        let old_line = old_to_new.len() as u32 + 1;
                        let new_line = new_to_old.len() as u32 + 1;
                        old_to_new.push(Some(new_line));
                        new_to_old.push(Some(old_line));
                    }
                }
                Edit::Delete(n) => old_to_new.extend(std::iter::repeat_n(None, *n)),
                Edit::Insert(n) => new_to_old.extend(std::iter::repeat_n(None, *n)),
            }
        }
        LineMap {
            old_to_new,
            new_to_old,
        }
    }

    /// Builds the mapping by diffing two file contents, split into
    /// [`lines`] as blame splits them.
    pub fn between(old: &str, new: &str) -> LineMap {
        let old: Vec<&str> = lines(old).collect();
        let new: Vec<&str> = lines(new).collect();
        LineMap::new(&diff_lines(&old, &new))
    }

    /// The new-revision line of old-revision line `line` (1-based), if the
    /// line survived the edit.
    pub fn old_to_new(&self, line: u32) -> Option<u32> {
        *self
            .old_to_new
            .get((line as usize).checked_sub(1)?)
            .unwrap_or(&None)
    }

    /// The old-revision line of new-revision line `line` (1-based), if the
    /// line existed before the edit.
    /// Like [`old_to_new`](LineMap::old_to_new), but a rewritten line (no
    /// exact image) is projected through its nearest *kept* neighbour: the
    /// closest preceding mapped line anchors the offset, falling back to the
    /// closest following one. `None` when the whole file was replaced — or
    /// when the projection falls outside the new file entirely (a deleted
    /// tail has no plausible image; inventing a line number past EOF would
    /// make downstream matchers chase lines that do not exist).
    ///
    /// This is the estimate a reviewer makes reading a diff — "that edited
    /// line is still *here*" — and is what lets a finding whose definition
    /// line was itself edited match across revisions.
    pub fn old_to_new_nearby(&self, line: u32) -> Option<u32> {
        if let Some(mapped) = self.old_to_new(line) {
            return Some(mapped);
        }
        let idx = (line as usize).checked_sub(1)?;
        if idx >= self.old_to_new.len() {
            return None;
        }
        let before = self.old_to_new[..idx]
            .iter()
            .enumerate()
            .rev()
            .find_map(|(i, m)| m.map(|mapped| (i, mapped)));
        if let Some((anchor, mapped)) = before {
            let projected = mapped + (idx - anchor) as u32;
            if projected as usize <= self.new_len() {
                return Some(projected);
            }
            // Projected past the new EOF: fall through to the following
            // anchor, if one exists (it never does for a pure tail
            // deletion, which is the point).
        }
        let after = self.old_to_new[idx + 1..]
            .iter()
            .enumerate()
            .find_map(|(i, m)| m.map(|mapped| (idx + 1 + i, mapped)));
        if let Some((anchor, mapped)) = after {
            let back = (anchor - idx) as u32;
            return mapped.checked_sub(back).filter(|&l| l >= 1);
        }
        None
    }

    pub fn new_to_old(&self, line: u32) -> Option<u32> {
        *self
            .new_to_old
            .get((line as usize).checked_sub(1)?)
            .unwrap_or(&None)
    }

    /// Number of lines in the old revision.
    pub fn old_len(&self) -> usize {
        self.old_to_new.len()
    }

    /// Number of lines in the new revision.
    pub fn new_len(&self) -> usize {
        self.new_to_old.len()
    }
}

/// The number of inserted plus deleted lines in a script (the "churn").
pub fn churn(script: &[Edit]) -> usize {
    script
        .iter()
        .map(|e| match e {
            Edit::Keep(_) => 0,
            Edit::Delete(n) | Edit::Insert(n) => *n,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// File text with one `\n`-terminated line per entry.
    fn text(ls: &[&str]) -> String {
        ls.iter().map(|l| format!("{l}\n")).collect()
    }

    fn check(old: &[&str], new: &[&str]) -> Vec<Edit> {
        let script = diff_lines(old, new);
        assert_eq!(
            patch(old, new, &script),
            new,
            "patch(diff) != new for {old:?} -> {new:?}"
        );
        script
    }

    #[test]
    fn identical_files_are_one_keep() {
        let s = check(&["a", "b"], &["a", "b"]);
        assert_eq!(s, vec![Edit::Keep(2)]);
    }

    #[test]
    fn pure_insertion() {
        let s = check(&["a", "c"], &["a", "b", "c"]);
        assert_eq!(churn(&s), 1);
    }

    #[test]
    fn pure_deletion() {
        let s = check(&["a", "b", "c"], &["a", "c"]);
        assert_eq!(churn(&s), 1);
    }

    #[test]
    fn replacement_in_middle() {
        let s = check(&["a", "b", "c"], &["a", "x", "c"]);
        assert_eq!(churn(&s), 2);
    }

    #[test]
    fn empty_to_full_and_back() {
        check(&[], &["a", "b"]);
        check(&["a", "b"], &[]);
        check(&[], &[]);
    }

    #[test]
    fn completely_different() {
        let s = check(&["a", "b"], &["x", "y", "z"]);
        assert_eq!(churn(&s), 5);
    }

    #[test]
    fn repeated_lines() {
        check(&["a", "a", "a"], &["a", "a"]);
        check(&["x", "a", "x", "a"], &["a", "x", "a", "x"]);
    }

    #[test]
    fn diff_is_minimal_for_single_edit() {
        let s = check(&["1", "2", "3", "4", "5"], &["1", "2", "changed", "4", "5"]);
        assert_eq!(churn(&s), 2, "expected one delete + one insert: {s:?}");
    }

    #[test]
    fn two_separate_edits() {
        let s = check(
            &["a", "b", "c", "d", "e", "f"],
            &["a", "B", "c", "d", "E", "f"],
        );
        assert_eq!(churn(&s), 4);
    }

    #[test]
    fn line_map_identity_on_unchanged_file() {
        let l = text(&["a", "b", "c"]);
        let map = LineMap::between(&l, &l);
        for i in 1..=3 {
            assert_eq!(map.old_to_new(i), Some(i));
            assert_eq!(map.new_to_old(i), Some(i));
        }
        assert_eq!(map.old_to_new(0), None);
        assert_eq!(map.old_to_new(4), None);
    }

    #[test]
    fn line_map_tracks_insertions_above() {
        let old = text(&["f1", "f2", "f3"]);
        let new = text(&["pad1", "pad2", "f1", "f2", "f3"]);
        let map = LineMap::between(&old, &new);
        assert_eq!(map.old_to_new(1), Some(3));
        assert_eq!(map.old_to_new(3), Some(5));
        assert_eq!(map.new_to_old(1), None);
        assert_eq!(map.new_to_old(2), None);
        assert_eq!(map.new_to_old(3), Some(1));
        assert_eq!(map.old_len(), 3);
        assert_eq!(map.new_len(), 5);
    }

    #[test]
    fn line_map_drops_deleted_and_replaced_lines() {
        let old = text(&["keep", "gone", "edited", "tail"]);
        let new = text(&["keep", "edited differently", "tail"]);
        let map = LineMap::between(&old, &new);
        assert_eq!(map.old_to_new(1), Some(1));
        assert_eq!(map.old_to_new(2), None, "deleted line has no image");
        assert_eq!(map.old_to_new(3), None, "rewritten line has no image");
        assert_eq!(map.old_to_new(4), Some(3));
        assert_eq!(map.new_to_old(2), None);
    }

    #[test]
    fn line_map_nearby_projects_rewritten_lines() {
        let old = text(&["head", "edited", "tail"]);
        let new = text(&["pad", "head", "edited differently", "tail"]);
        let map = LineMap::between(&old, &new);
        assert_eq!(map.old_to_new(2), None, "no exact image");
        assert_eq!(
            map.old_to_new_nearby(2),
            Some(3),
            "anchored one past the kept `head` line"
        );
        // Exact mappings pass through unchanged.
        assert_eq!(map.old_to_new_nearby(1), Some(2));
        assert_eq!(map.old_to_new_nearby(0), None);
        assert_eq!(map.old_to_new_nearby(4), None, "past end of file");
        // A fully replaced file has no anchors at all.
        let replaced = LineMap::between(&text(&["a", "b"]), &text(&["x", "y"]));
        assert_eq!(replaced.old_to_new_nearby(1), None);
        assert_eq!(replaced.old_to_new_nearby(2), None);
    }

    #[test]
    fn line_map_nearby_anchors_on_following_line_at_file_start() {
        // The first line is rewritten; the only anchor is below it.
        let old = text(&["edited", "kept"]);
        let new = text(&["edited differently", "kept", "extra"]);
        let map = LineMap::between(&old, &new);
        assert_eq!(map.old_to_new(1), None);
        assert_eq!(map.old_to_new_nearby(1), Some(1));
    }

    #[test]
    fn line_map_nearby_deletion_at_end_of_file() {
        // The tail of the file is deleted: the deleted lines project past
        // the new EOF and must report no image, not a phantom line number.
        let old = text(&["a", "b", "c", "d", "e"]);
        let new = text(&["a", "b"]);
        let map = LineMap::between(&old, &new);
        assert_eq!(map.old_to_new_nearby(2), Some(2), "kept line still maps");
        for gone in 3..=5 {
            assert_eq!(
                map.old_to_new_nearby(gone),
                None,
                "deleted tail line {gone} has no plausible image in a 2-line file"
            );
        }
        // A tail line *replaced* in place (projection still in range) keeps
        // its nearby image.
        let replaced = LineMap::between(&text(&["a", "b", "c"]), &text(&["a", "b", "x"]));
        assert_eq!(replaced.old_to_new_nearby(3), Some(3));
    }

    #[test]
    fn line_map_nearby_adjacent_hunks_project_through_their_own_anchor() {
        // Two edit hunks separated by a single kept line: each rewritten
        // line must anchor on its own side, not bleed into the other hunk.
        let old = text(&["k1", "e1", "e2", "k2", "e3", "k3"]);
        let new = text(&["k1", "n1", "n2", "n3", "k2", "n4", "k3"]);
        let map = LineMap::between(&old, &new);
        assert_eq!(map.old_to_new_nearby(2), Some(2), "first hunk, first line");
        assert_eq!(map.old_to_new_nearby(3), Some(3), "first hunk, second line");
        assert_eq!(
            map.old_to_new_nearby(5),
            Some(6),
            "second hunk anchors on k2, not on the first hunk's lines"
        );
        assert_eq!(map.old_to_new(4), Some(5), "the separator line is kept");
    }

    #[test]
    fn line_map_nearby_zero_length_new_file() {
        // Everything deleted: no anchors exist in either direction.
        let old = text(&["a", "b", "c"]);
        let map = LineMap::between(&old, &text(&[]));
        assert_eq!(map.new_len(), 0);
        for line in 1..=3 {
            assert_eq!(map.old_to_new(line), None);
            assert_eq!(map.old_to_new_nearby(line), None);
        }
        // And the mirror degenerate case: an empty old file has no lines to
        // project at all.
        let grown = LineMap::between(&text(&[]), &text(&["x"]));
        assert_eq!(grown.old_to_new_nearby(1), None);
        assert_eq!(grown.old_len(), 0);
    }

    #[test]
    fn line_map_splits_lines_as_blame_does() {
        // CRLF: each `\r` stays on its line, so a line that only lost its
        // `\r` is an edit, exactly as blame attributes it.
        let map = LineMap::between("a\r\nb\r\nc\r\n", "a\r\nb\nc\r\n");
        assert_eq!((map.old_len(), map.new_len()), (3, 3));
        assert_eq!(map.old_to_new(1), Some(1));
        assert_eq!(map.old_to_new(2), None, "`b\\r` and `b` differ");
        assert_eq!(map.old_to_new(3), Some(3));
        // A missing trailing newline changes no line.
        let map = LineMap::between("a\nb", "a\nb\n");
        assert_eq!((map.old_len(), map.new_len()), (2, 2));
        assert_eq!(map.old_to_new(2), Some(2));
        // Empty content has no lines; a lone newline is one empty line.
        let map = LineMap::between("", "\n");
        assert_eq!((map.old_len(), map.new_len()), (0, 1));
        assert_eq!(map.new_to_old(1), None);
    }

    #[test]
    fn line_map_roundtrips_kept_lines() {
        let old = ["a", "b", "c", "d", "e"];
        let new = ["x", "a", "c", "y", "e"];
        let map = LineMap::between(&text(&old), &text(&new));
        for i in 1..=old.len() as u32 {
            if let Some(j) = map.old_to_new(i) {
                assert_eq!(map.new_to_old(j), Some(i), "kept lines invert");
                assert_eq!(old[(i - 1) as usize], new[(j - 1) as usize]);
            }
        }
    }

    #[test]
    fn interleaved_shared_lines_use_lcs() {
        // LCS of abcab / acba is "acb" (3) -> churn = 2 + 1 = 3.
        let s = check(&["a", "b", "c", "a", "b"], &["a", "c", "b", "a"]);
        assert_eq!(churn(&s), 3, "{s:?}");
    }
}
