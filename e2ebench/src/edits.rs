//! The `serve_commit` edit generator: one seeded edit to one function per
//! op, committed into `history.json` by an author other than the file's
//! last one.
//!
//! An edit either fixes a reported ignored-return-value finding, by
//! passing the call's result on (`f(a);` becomes `sink(f(a));`), or
//! reverts an earlier fix, which brings the finding back. Over a run the
//! daemon's `delta` therefore reports both `fixed` and `new` findings,
//! not only `persisting` ones.

use std::{collections::HashMap, fs, io, path::Path};

use vc_obs::{Json, SplitMix64};
use vc_vcs::Repository;

use crate::check::Row;

/// A finding the generator knows how to fix.
struct Target {
    file: String,
    /// 0-based line index of the ignored call.
    line: usize,
    function: String,
    variable: String,
    original: String,
    fixed: String,
    /// Who wrote the line, by blame at the history's head.
    author: String,
}

/// What one op changed.
pub struct Edit {
    /// True when the edit fixes the finding, false when it reverts a fix.
    pub fixes: bool,
    pub file: String,
    pub function: String,
    pub variable: String,
}

pub struct Editor {
    files: HashMap<String, String>,
    history: String,
    authors: Vec<String>,
    last_author: HashMap<String, String>,
    timestamp: i64,
    rng: SplitMix64,
    targets: Vec<Target>,
    fixed: Vec<usize>,
    edits: u64,
}

impl Editor {
    /// An editor over `sources` whose history is the compact
    /// `history.json` text `history`, with fix targets taken from the
    /// tree's reported findings `rows`.
    pub fn new(
        sources: &[(String, String)],
        history: &str,
        rows: &[Row],
        seed: u64,
    ) -> Result<Editor, String> {
        let spec = vc_vcs::HistorySpec::from_json(history)?;
        let mut authors: Vec<String> = Vec::new();
        let mut last_author = HashMap::new();
        for c in &spec.commits {
            if !authors.contains(&c.author) {
                authors.push(c.author.clone());
            }
            for w in &c.writes {
                last_author.insert(w.path.clone(), c.author.clone());
            }
        }
        let timestamp = spec.commits.iter().map(|c| c.timestamp).max().unwrap_or(0);
        let files: HashMap<String, String> = sources.iter().cloned().collect();
        let repo = spec.build();
        let targets: Vec<Target> = rows
            .iter()
            .filter_map(|r| fix_target(&files, &repo, r))
            .collect();
        // A fix needs an author who is neither the line's nor the file's
        // last one.
        if targets.is_empty() || authors.len() < 3 {
            return Err("tree has no fixable finding or fewer than 3 authors".into());
        }
        Ok(Editor {
            files,
            history: history.to_string(),
            authors,
            last_author,
            timestamp,
            rng: SplitMix64::new(seed ^ 0x5e7e_c0de),
            targets,
            fixed: Vec::new(),
            edits: 0,
        })
    }

    /// Picks and applies the next edit in memory and commits it. The
    /// first edit fixes, the second reverts; after that a seeded coin
    /// decides. A fix is committed by an author who neither wrote the line
    /// nor the file's last commit. A revert is committed by the line's
    /// original author, so the finding comes back with the authorship it
    /// had; it is only possible while that author is not the file's last.
    pub fn next_edit(&mut self) -> Edit {
        let unfixed: Vec<usize> = (0..self.targets.len())
            .filter(|i| !self.fixed.contains(i))
            .collect();
        let mut revertible: Vec<usize> = (0..self.fixed.len())
            .filter(|&k| {
                let t = &self.targets[self.fixed[k]];
                self.last_author.get(&t.file) != Some(&t.author)
            })
            .collect();
        let fixes = !unfixed.is_empty()
            && (revertible.is_empty()
                || match self.edits {
                    0 => true,
                    1 => false,
                    _ => self.rng.chance(0.5),
                });
        self.edits += 1;
        let (idx, author) = if fixes {
            let idx = unfixed[self.pick(unfixed.len())];
            let t = &self.targets[idx];
            let last = self.last_author.get(&t.file);
            let others: Vec<String> = self
                .authors
                .iter()
                .filter(|a| Some(*a) != last && **a != t.author)
                .cloned()
                .collect();
            self.fixed.push(idx);
            (idx, others[self.pick(others.len())].clone())
        } else {
            if revertible.is_empty() {
                // Everything is fixed and no revert keeps the rule: revert
                // anyway rather than stall.
                revertible = (0..self.fixed.len()).collect();
            }
            let k = revertible[self.pick(revertible.len())];
            let idx = self.fixed.swap_remove(k);
            (idx, self.targets[idx].author.clone())
        };

        let t = &self.targets[idx];
        let content = self.files.get_mut(&t.file).expect("target file exists");
        let mut lines: Vec<&str> = content.split('\n').collect();
        lines[t.line] = if fixes { &t.fixed } else { &t.original };
        *content = lines.join("\n");
        self.timestamp += 3600;
        let commit = Json::Obj(vec![
            ("author".into(), Json::Str(author.clone())),
            ("timestamp".into(), Json::Int(self.timestamp)),
            (
                "message".into(),
                Json::Str(format!(
                    "{} {}",
                    if fixes {
                        "check result in"
                    } else {
                        "revert check in"
                    },
                    t.function
                )),
            ),
            (
                "writes".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("path".into(), Json::Str(t.file.clone())),
                    ("content".into(), Json::Str(content.clone())),
                ])]),
            ),
        ]);
        append_commit(&mut self.history, &commit.to_string());
        self.last_author.insert(t.file.clone(), author);
        Edit {
            fixes,
            file: t.file.clone(),
            function: t.function.clone(),
            variable: t.variable.clone(),
        }
    }

    /// Saves the edited file, then replaces `history.json` atomically.
    pub fn write(&self, dir: &Path, edit: &Edit) -> io::Result<()> {
        fs::write(dir.join(&edit.file), &self.files[&edit.file])?;
        let tmp = dir.join("history.json.tmp");
        fs::write(&tmp, &self.history)?;
        fs::rename(&tmp, dir.join("history.json"))
    }

    fn pick(&mut self, n: usize) -> usize {
        self.rng.bounded(n as u64) as usize
    }
}

/// Appends one commit object to compact `{"commits":[...]}` text.
fn append_commit(history: &mut String, commit: &str) {
    assert!(history.ends_with("]}"), "history.json is compact spec JSON");
    history.truncate(history.len() - 2);
    if !history.ends_with('[') {
        history.push(',');
    }
    history.push_str(commit);
    history.push_str("]}");
}

/// A reported ignored-return-value finding (`$ret_<callee>_<line>`) whose
/// line is exactly one call statement to that callee and has a blame.
fn fix_target(files: &HashMap<String, String>, repo: &Repository, row: &Row) -> Option<Target> {
    let callee = row
        .variable
        .strip_prefix("$ret_")?
        .rsplit_once('_')
        .map(|(c, _)| c)?;
    if row.scenario != "retval" || row.line == 0 {
        return None;
    }
    let line = files
        .get(&row.file)?
        .split('\n')
        .nth(row.line as usize - 1)?;
    let code = line.trim_start();
    let indent = &line[..line.len() - code.len()];
    let call = code.trim_end().strip_suffix(';')?;
    if !call.starts_with(&format!("{callee}(")) || !call.ends_with(')') {
        return None;
    }
    Some(Target {
        file: row.file.clone(),
        line: row.line as usize - 1,
        function: row.function.clone(),
        variable: row.variable.clone(),
        original: line.to_string(),
        fixed: format!("{indent}sink({call});"),
        author: repo
            .blame_author(&row.file, row.line)
            .map(|a| repo.author(a).name.clone())?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(line: u32, variable: &str) -> Row {
        Row {
            file: "src/a.c".into(),
            line,
            function: "seq_1".into(),
            variable: variable.into(),
            scenario: "retval".into(),
        }
    }

    fn history(commits: &[(&str, &str, &str)]) -> String {
        let spec = vc_vcs::HistorySpec {
            commits: commits
                .iter()
                .enumerate()
                .map(|(i, (author, path, content))| vc_vcs::spec::CommitSpec {
                    author: (*author).into(),
                    timestamp: i as i64,
                    message: "m".into(),
                    writes: vec![vc_vcs::spec::WriteSpec {
                        path: (*path).into(),
                        content: (*content).into(),
                    }],
                })
                .collect(),
        };
        spec.to_json()
    }

    const SRC: &str = "int seq_1(int a) {\n   status_chk_1(a);\n   return 0;\n}\n";

    #[test]
    fn fixes_with_a_third_author_and_reverts_as_the_line_author() {
        // alice writes the line; bob commits the file last (unchanged).
        let hist = history(&[
            ("alice", "src/a.c", SRC),
            ("bob", "src/a.c", SRC),
            ("carol", "src/b.c", "int x;\n"),
        ]);
        let sources = vec![("src/a.c".to_string(), SRC.to_string())];
        let rows = [row(2, "$ret_status_chk_1_2"), row(3, "$ret_other_3")];
        let mut ed = Editor::new(&sources, &hist, &rows, 7).unwrap();
        assert_eq!(ed.targets.len(), 1, "only the call statement is a target");
        assert_eq!(ed.targets[0].author, "alice");

        let e1 = ed.next_edit();
        assert!(e1.fixes);
        assert_eq!(
            ed.files["src/a.c"],
            "int seq_1(int a) {\n   sink(status_chk_1(a));\n   return 0;\n}\n"
        );
        let e2 = ed.next_edit();
        assert!(!e2.fixes);
        assert_eq!(ed.files["src/a.c"], SRC);
        // Only the one target: the next edit must fix it again.
        assert!(ed.next_edit().fixes);

        let spec = vc_vcs::HistorySpec::from_json(&ed.history).unwrap();
        assert_eq!(spec.commits.len(), 6);
        assert_eq!(spec.commits[3].author, "carol", "neither alice nor bob");
        assert_eq!(spec.commits[4].author, "alice", "the line's author");
        assert_eq!(spec.commits[4].writes[0].content, SRC);
        assert_ne!(spec.commits[5].author, "alice", "not the line's author");
        assert!(spec.commits[4].timestamp > spec.commits[3].timestamp);
    }
}
