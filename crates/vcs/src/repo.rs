//! An in-memory version-control repository with per-line blame.
//!
//! The GitPython substitute: ValueCheck's authorship lookup needs
//! `blame(file, line) → author` and `log(file) → commits`, and its
//! familiarity model needs per-author delivery counts. The repository keeps a
//! linear history (like `git log --first-parent`) where each commit writes
//! full file contents; blame is maintained incrementally by diffing each
//! write against the previous content.
//!
//! A file's text lives once, in the commit write that last set it. The
//! per-file state holds only one [`BlameEntry`] per line and a reference
//! to that write, so the blame layer keeps no second copy of any line.

use std::collections::{
    BTreeMap,
    HashMap, //
};

use crate::diff::{
    diff_lines,
    lines,
    Edit, //
};

/// Identifier of an author.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AuthorId(pub u32);

/// Identifier of a commit; ids increase in history order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CommitId(pub u32);

/// An author identity.
#[derive(Clone, Debug)]
pub struct Author {
    /// Display name.
    pub name: String,
}

/// One file modification inside a commit (full new content).
#[derive(Clone, Debug)]
pub struct FileWrite {
    /// Repository-relative path.
    pub path: String,
    /// Complete new content.
    pub content: String,
}

/// A commit: author, timestamp, message, and file writes.
#[derive(Clone, Debug)]
pub struct Commit {
    /// The commit id.
    pub id: CommitId,
    /// Who authored it.
    pub author: AuthorId,
    /// Unix timestamp (seconds).
    pub timestamp: i64,
    /// Commit message.
    pub message: String,
    /// Files written by this commit.
    pub writes: Vec<FileWrite>,
}

/// Blame information for one line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlameEntry {
    /// The author of the line's last modification.
    pub author: AuthorId,
    /// The commit that introduced the line.
    pub commit: CommitId,
    /// Timestamp of that commit.
    pub timestamp: i64,
}

#[derive(Clone, Debug, Default)]
struct FileState {
    /// One entry per line of the file's current text.
    blame: Vec<BlameEntry>,
    /// The write that set the current text: (commit, index in its writes).
    /// `None` only for a state not yet written.
    write: Option<(CommitId, usize)>,
}

impl FileState {
    /// The file's current text, borrowed from the commit that set it.
    fn text<'c>(&self, commits: &'c [Commit]) -> &'c str {
        self.write
            .map_or("", |(c, k)| &commits[c.0 as usize].writes[k].content)
    }
}

/// An in-memory repository with a linear history.
#[derive(Clone, Debug, Default)]
pub struct Repository {
    authors: Vec<Author>,
    commits: Vec<Commit>,
    files: HashMap<String, FileState>,
    /// Per-file list of commit ids that touched the file, oldest first.
    file_log: HashMap<String, Vec<CommitId>>,
}

impl Repository {
    /// Creates an empty repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new author.
    pub fn add_author(&mut self, name: impl Into<String>) -> AuthorId {
        let id = AuthorId(self.authors.len() as u32);
        self.authors.push(Author { name: name.into() });
        id
    }

    /// The author with the given id.
    pub fn author(&self, id: AuthorId) -> &Author {
        &self.authors[id.0 as usize]
    }

    /// Number of registered authors.
    pub fn author_count(&self) -> usize {
        self.authors.len()
    }

    /// Records a commit writing the given files, returning its id.
    ///
    /// Timestamps must be non-decreasing across commits; out-of-order
    /// timestamps are clamped to the previous commit's to keep the history
    /// linear, matching how a rebase-based workflow behaves.
    pub fn commit(
        &mut self,
        author: AuthorId,
        timestamp: i64,
        message: impl Into<String>,
        writes: Vec<FileWrite>,
    ) -> CommitId {
        let timestamp = match self.commits.last() {
            Some(prev) if timestamp < prev.timestamp => prev.timestamp,
            _ => timestamp,
        };
        let id = CommitId(self.commits.len() as u32);
        self.commits.push(Commit {
            id,
            author,
            timestamp,
            message: message.into(),
            writes,
        });
        let blame = BlameEntry {
            author,
            commit: id,
            timestamp,
        };
        for (k, w) in self.commits[id.0 as usize].writes.iter().enumerate() {
            let state = self.files.entry(w.path.clone()).or_default();
            let old: Vec<&str> = lines(state.text(&self.commits)).collect();
            let new: Vec<&str> = lines(&w.content).collect();
            let mut reblamed = Vec::with_capacity(new.len());
            let mut pos = 0usize;
            for edit in diff_lines(&old, &new) {
                match edit {
                    Edit::Keep(n) => {
                        reblamed.extend_from_slice(&state.blame[pos..pos + n]);
                        pos += n;
                    }
                    Edit::Delete(n) => pos += n,
                    Edit::Insert(n) => reblamed.extend(std::iter::repeat_n(blame, n)),
                }
            }
            state.blame = reblamed;
            state.write = Some((id, k));
            self.file_log.entry(w.path.clone()).or_default().push(id);
        }
        id
    }

    /// Current content of a file, if it exists: the text of the write that
    /// last set it.
    pub fn file_content(&self, path: &str) -> Option<&str> {
        self.files.get(path).map(|s| s.text(&self.commits))
    }

    /// All tracked file paths, sorted.
    pub fn paths(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.files.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// Blame for one line (1-based), if the file and line exist.
    pub fn blame(&self, path: &str, line: u32) -> Option<BlameEntry> {
        let state = self.files.get(path)?;
        if line == 0 {
            return None;
        }
        state.blame.get((line - 1) as usize).copied()
    }

    /// The author of one line, if known.
    pub fn blame_author(&self, path: &str, line: u32) -> Option<AuthorId> {
        self.blame(path, line).map(|b| b.author)
    }

    /// Number of lines currently in a file.
    pub fn line_count(&self, path: &str) -> usize {
        self.files.get(path).map_or(0, |s| s.blame.len())
    }

    /// Commits that touched `path`, oldest first.
    pub fn log(&self, path: &str) -> &[CommitId] {
        self.file_log.get(path).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// The commit with the given id.
    pub fn commit_info(&self, id: CommitId) -> &Commit {
        &self.commits[id.0 as usize]
    }

    /// All commits, oldest first.
    pub fn commits(&self) -> &[Commit] {
        &self.commits
    }

    /// Reconstructs the full tree as of (and including) `at`, by replay.
    pub fn snapshot_at(&self, at: CommitId) -> HashMap<String, String> {
        let mut tree: HashMap<String, String> = HashMap::new();
        for c in &self.commits {
            if c.id > at {
                break;
            }
            for w in &c.writes {
                tree.insert(w.path.clone(), w.content.clone());
            }
        }
        tree
    }

    /// The latest commit id, if any commit exists.
    pub fn head(&self) -> Option<CommitId> {
        self.commits.last().map(|c| c.id)
    }

    /// Materializes the repository as of (and including) `at`: same authors,
    /// truncated history, blame and logs reflecting that point in time.
    ///
    /// This is the `git checkout <old>` equivalent the §3.1 preliminary
    /// experiment needs to analyse a 2019 snapshot with 2019 blame.
    pub fn checkout(&self, at: CommitId) -> Repository {
        self.replay(at, |_, _| {})
    }

    /// Replays the history through `at` (inclusive) into a fresh
    /// repository, calling `visit` after each commit with that repository
    /// (the commit's blame and logs) and its tree, sorted by path. Returns
    /// the repository as of `at`.
    pub fn replay<'a>(
        &'a self,
        at: CommitId,
        mut visit: impl FnMut(&Repository, &BTreeMap<&'a str, &'a str>),
    ) -> Repository {
        let mut out = Repository::new();
        for a in &self.authors {
            out.add_author(a.name.clone());
        }
        let mut tree: BTreeMap<&str, &str> = BTreeMap::new();
        for c in self.commits.iter().take_while(|c| c.id <= at) {
            out.commit(c.author, c.timestamp, c.message.clone(), c.writes.clone());
            for w in &c.writes {
                tree.insert(&w.path, &w.content);
            }
            visit(&out, &tree);
        }
        out
    }

    /// The last commit at or before `timestamp`, if any.
    pub fn commit_at_time(&self, timestamp: i64) -> Option<CommitId> {
        self.commits
            .iter()
            .take_while(|c| c.timestamp <= timestamp)
            .last()
            .map(|c| c.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(path: &str, content: &str) -> FileWrite {
        FileWrite {
            path: path.into(),
            content: content.into(),
        }
    }

    #[test]
    fn initial_commit_blames_every_line_to_author() {
        let mut repo = Repository::new();
        let alice = repo.add_author("alice");
        let c = repo.commit(alice, 1000, "init", vec![write("a.c", "l1\nl2\nl3\n")]);
        for line in 1..=3 {
            let b = repo.blame("a.c", line).unwrap();
            assert_eq!(b.author, alice);
            assert_eq!(b.commit, c);
        }
        assert_eq!(repo.blame("a.c", 4), None);
    }

    #[test]
    fn edit_reassigns_only_touched_lines() {
        let mut repo = Repository::new();
        let alice = repo.add_author("alice");
        let bob = repo.add_author("bob");
        repo.commit(alice, 1000, "init", vec![write("a.c", "l1\nl2\nl3\n")]);
        repo.commit(
            bob,
            2000,
            "edit line 2",
            vec![write("a.c", "l1\nl2-changed\nl3\n")],
        );
        assert_eq!(repo.blame_author("a.c", 1), Some(alice));
        assert_eq!(repo.blame_author("a.c", 2), Some(bob));
        assert_eq!(repo.blame_author("a.c", 3), Some(alice));
    }

    #[test]
    fn insertion_shifts_blame_correctly() {
        let mut repo = Repository::new();
        let alice = repo.add_author("alice");
        let bob = repo.add_author("bob");
        repo.commit(alice, 1000, "init", vec![write("a.c", "l1\nl3\n")]);
        repo.commit(bob, 2000, "insert", vec![write("a.c", "l1\nl2\nl3\n")]);
        assert_eq!(repo.blame_author("a.c", 1), Some(alice));
        assert_eq!(repo.blame_author("a.c", 2), Some(bob));
        assert_eq!(repo.blame_author("a.c", 3), Some(alice));
    }

    #[test]
    fn blame_covers_exactly_the_file() {
        let mut repo = Repository::new();
        let a = repo.add_author("a");
        repo.commit(a, 1, "c", vec![write("f", "x\ny\n")]);
        assert_eq!(repo.line_count("f"), 2);
        assert!(repo.blame("f", 0).is_none());
        assert!(repo.blame("f", 2).is_some());
        assert!(repo.blame("f", 3).is_none());
        assert_eq!(repo.file_content("f"), Some("x\ny\n"));
    }

    #[test]
    fn a_commit_writing_a_path_twice_blames_the_second_write() {
        let mut repo = Repository::new();
        let a = repo.add_author("a");
        let b = repo.add_author("b");
        let c1 = repo.commit(a, 1, "init", vec![write("f", "one\ntwo\n")]);
        let c2 = repo.commit(
            b,
            2,
            "twice",
            vec![write("f", "one\nx\n"), write("f", "one\ntwo\nthree\n")],
        );
        // The second write is diffed against the first: `two`, deleted by
        // the first write and restored by the second, is the committer's.
        assert_eq!(repo.file_content("f"), Some("one\ntwo\nthree\n"));
        assert_eq!(repo.line_count("f"), 3);
        assert_eq!(repo.blame_author("f", 1), Some(a));
        assert_eq!(repo.blame_author("f", 2), Some(b));
        assert_eq!(repo.blame("f", 3).map(|l| l.commit), Some(c2));
        assert_eq!(repo.log("f"), &[c1, c2, c2]);
    }

    #[test]
    fn empty_and_unterminated_content_count_lines_like_git() {
        let mut repo = Repository::new();
        let a = repo.add_author("a");
        let b = repo.add_author("b");
        repo.commit(a, 1, "empty", vec![write("f", "")]);
        assert_eq!(repo.line_count("f"), 0);
        assert_eq!(repo.file_content("f"), Some(""));
        assert_eq!(repo.blame("f", 1), None);
        repo.commit(a, 2, "unterminated", vec![write("f", "x\ny")]);
        assert_eq!(repo.line_count("f"), 2);
        assert_eq!(repo.file_content("f"), Some("x\ny"));
        // Terminating the last line changes no line, so blame stays.
        repo.commit(b, 3, "terminate", vec![write("f", "x\ny\n")]);
        assert_eq!(repo.line_count("f"), 2);
        assert_eq!(repo.blame_author("f", 2), Some(a));
        // A lone newline is one empty line.
        repo.commit(b, 4, "blank", vec![write("f", "\n")]);
        assert_eq!(repo.line_count("f"), 1);
        assert_eq!(repo.blame_author("f", 1), Some(b));
        repo.commit(b, 5, "truncate", vec![write("f", "")]);
        assert_eq!(repo.line_count("f"), 0);
    }

    #[test]
    fn log_lists_touching_commits_in_order() {
        let mut repo = Repository::new();
        let a = repo.add_author("a");
        let c1 = repo.commit(a, 1, "one", vec![write("f", "1\n")]);
        let _c2 = repo.commit(a, 2, "other file", vec![write("g", "1\n")]);
        let c3 = repo.commit(a, 3, "two", vec![write("f", "1\n2\n")]);
        assert_eq!(repo.log("f"), &[c1, c3]);
    }

    #[test]
    fn snapshot_replays_history() {
        let mut repo = Repository::new();
        let a = repo.add_author("a");
        let c1 = repo.commit(a, 1, "v1", vec![write("f", "v1\n")]);
        let c2 = repo.commit(a, 2, "v2", vec![write("f", "v2\n")]);
        assert_eq!(repo.snapshot_at(c1).get("f").unwrap(), "v1\n");
        assert_eq!(repo.snapshot_at(c2).get("f").unwrap(), "v2\n");
    }

    #[test]
    fn timestamps_are_monotone() {
        let mut repo = Repository::new();
        let a = repo.add_author("a");
        repo.commit(a, 100, "one", vec![write("f", "1\n")]);
        let c2 = repo.commit(a, 50, "backdated", vec![write("f", "2\n")]);
        assert_eq!(repo.commit_info(c2).timestamp, 100);
    }

    #[test]
    fn checkout_restores_historical_blame_and_logs() {
        let mut repo = Repository::new();
        let a = repo.add_author("a");
        let b = repo.add_author("b");
        let c1 = repo.commit(
            a,
            10,
            "init",
            vec![write(
                "f", "one
two
",
            )],
        );
        let _c2 = repo.commit(
            b,
            20,
            "edit",
            vec![write(
                "f",
                "one
two-x
",
            )],
        );
        let old = repo.checkout(c1);
        assert_eq!(old.blame_author("f", 2), Some(a));
        assert_eq!(repo.blame_author("f", 2), Some(b));
        assert_eq!(old.log("f").len(), 1);
        assert_eq!(old.head(), Some(c1));
    }

    #[test]
    fn replay_hands_each_commit_its_blame_and_sorted_tree() {
        let mut repo = Repository::new();
        let a = repo.add_author("a");
        let b = repo.add_author("b");
        repo.commit(a, 1, "one", vec![write("g", "1\n"), write("f", "x\n")]);
        repo.commit(b, 2, "two", vec![write("f", "y\n")]);
        repo.commit(a, 3, "three", vec![write("h", "z\n")]);
        let mut seen = Vec::new();
        let last = repo.replay(CommitId(1), |at, tree| {
            let files: Vec<(&str, &str)> = tree.iter().map(|(p, c)| (*p, *c)).collect();
            seen.push((at.head().unwrap(), at.blame_author("f", 1), files));
        });
        assert_eq!(
            seen,
            vec![
                (CommitId(0), Some(a), vec![("f", "x\n"), ("g", "1\n")]),
                (CommitId(1), Some(b), vec![("f", "y\n"), ("g", "1\n")]),
            ]
        );
        assert_eq!(last.head(), Some(CommitId(1)));
    }

    #[test]
    fn commit_at_time_picks_latest_at_or_before() {
        let mut repo = Repository::new();
        let a = repo.add_author("a");
        let c1 = repo.commit(a, 10, "one", vec![write("f", "1\n")]);
        let c2 = repo.commit(a, 20, "two", vec![write("f", "2\n")]);
        assert_eq!(repo.commit_at_time(5), None);
        assert_eq!(repo.commit_at_time(10), Some(c1));
        assert_eq!(repo.commit_at_time(15), Some(c1));
        assert_eq!(repo.commit_at_time(99), Some(c2));
    }

    #[test]
    fn rewrite_attributes_rewritten_region() {
        let mut repo = Repository::new();
        let a = repo.add_author("a");
        let b = repo.add_author("b");
        repo.commit(a, 1, "init", vec![write("f", "keep\nold1\nold2\nkeep2\n")]);
        repo.commit(
            b,
            2,
            "rewrite middle",
            vec![write("f", "keep\nnew1\nnew2\nnew3\nkeep2\n")],
        );
        assert_eq!(repo.blame_author("f", 1), Some(a));
        assert_eq!(repo.blame_author("f", 2), Some(b));
        assert_eq!(repo.blame_author("f", 3), Some(b));
        assert_eq!(repo.blame_author("f", 4), Some(b));
        assert_eq!(repo.blame_author("f", 5), Some(a));
    }
}
