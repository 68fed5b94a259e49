//! Project loading for the `vcheck` command-line tool: a directory of MiniC
//! sources plus an optional `history.json` ([`vc_vcs::HistorySpec`]).

use std::{fs, io, path::Path, sync::Arc};

use vc_vcs::{
    HistorySpec,
    Repository, //
};

use crate::sentinel::{fnv1a, FNV_SEED};

/// A loaded project ready for analysis.
#[derive(Debug)]
pub struct Project {
    /// `(relative path, content)` pairs, sorted by path.
    pub sources: Vec<(String, String)>,
    /// The version-control history (synthesized single-author history when
    /// the project ships no `history.json`). Shared with the
    /// [`HistoryCache`] the project was loaded through, if any.
    pub repo: Arc<Repository>,
    /// Whether a real history was found.
    pub has_history: bool,
}

impl Project {
    /// Sources as `(&str, &str)` pairs for `Program::build`.
    pub fn source_refs(&self) -> Vec<(&str, &str)> {
        self.sources
            .iter()
            .map(|(p, c)| (p.as_str(), c.as_str()))
            .collect()
    }
}

/// Loads a project directory: every `*.c` file under `dir` (recursively,
/// relative paths as file names) plus `dir/history.json` when present.
///
/// With a history, analysis uses its blame; without one, a synthetic
/// single-author history is built from the working tree — cross-scope
/// findings are then limited to library-return-value cases, and `vcheck`
/// warns accordingly.
pub fn load_dir(dir: &Path) -> io::Result<Project> {
    let project = load_dir_or_empty(dir)?;
    if project.sources.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no .c files under {}", dir.display()),
        ));
    }
    Ok(project)
}

/// [`load_dir`] that accepts a directory with zero `.c` files, returning an
/// empty project instead of `NotFound`. This is the contract `vcheck scan`
/// exposes (empty report, exit 0): a repository that happens to contain no
/// C sources is clean, not broken. The directory itself must still exist.
pub fn load_dir_or_empty(dir: &Path) -> io::Result<Project> {
    load_dir_cached(dir, None)
}

/// The decoded, replayed `history.json` of the last load through it, kept
/// for the next load (the warm `vcheck serve` daemon holds one). It is keyed
/// on the file's exact content, `(length, FNV-1a)` — never on stat data, so
/// a rewrite with identical bytes still hits and an edit within the same
/// second still misses. The raw bytes are not kept.
#[derive(Debug, Default)]
pub struct HistoryCache {
    entry: Option<((usize, u64), Arc<Repository>)>,
    hits: u64,
    misses: u64,
}

impl HistoryCache {
    /// Loads served from the cached repository across the cache's lifetime.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Loads that had to decode and replay across the cache's lifetime.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Drops the cached repository (quarantine: the next load is cold).
    pub fn clear(&mut self) {
        self.entry = None;
    }

    /// The repository `history.json` content `text` replays to.
    fn repository(&mut self, text: &str) -> io::Result<Arc<Repository>> {
        let key = (text.len(), fnv1a(FNV_SEED, text.as_bytes()));
        if let Some((k, repo)) = &self.entry {
            if *k == key {
                self.hits += 1;
                return Ok(Arc::clone(repo));
            }
        }
        self.misses += 1;
        // Drop the stale repository first: a miss never holds two.
        self.entry = None;
        let repo = Arc::new(decode(text)?);
        self.entry = Some((key, Arc::clone(&repo)));
        Ok(repo)
    }
}

fn decode(text: &str) -> io::Result<Repository> {
    let spec = HistorySpec::from_json(text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("history.json: {e}")))?;
    Ok(spec.build())
}

/// [`load_dir_or_empty`] that takes the history from `cache` when
/// `history.json` has the content the cache last saw, and otherwise
/// decodes and replays it (refilling `cache`). Without a cache it never
/// hashes. Either way the working tree is checked against the history
/// head, so a cached history never masks an uncommitted edit.
pub fn load_dir_cached(dir: &Path, cache: Option<&mut HistoryCache>) -> io::Result<Project> {
    let mut sources: Vec<(String, String)> = Vec::new();
    collect_c_files(dir, dir, &mut sources)?;
    sources.sort_by(|a, b| a.0.cmp(&b.0));

    let history_path = dir.join("history.json");
    if !history_path.exists() {
        if let Some(cache) = cache {
            cache.clear();
        }
        let repo = Arc::new(HistorySpec::single_author(&sources).build());
        return Ok(Project {
            sources,
            repo,
            has_history: false,
        });
    }
    let text = fs::read_to_string(&history_path)?;
    let repo = match cache {
        Some(cache) => cache.repository(&text)?,
        None => Arc::new(decode(&text)?),
    };
    // The working tree must match the history head, or blame lines
    // would not line up with the parsed sources.
    for (path, content) in &sources {
        let head = repo.file_content(path).map(|c| c + "\n");
        if head.as_deref() != Some(content.as_str())
            && head.as_deref() != Some(content.trim_end_matches('\n'))
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("history.json head does not match working tree for {path}"),
            ));
        }
    }
    Ok(Project {
        sources,
        repo,
        has_history: true,
    })
}

fn collect_c_files(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_c_files(root, &path, out)?;
        } else if path.extension().map(|e| e == "c").unwrap_or(false) {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("vcheck_test_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("src")).unwrap();
        dir
    }

    #[test]
    fn loads_tree_without_history() {
        let dir = tmpdir("nohist");
        fs::write(dir.join("src/a.c"), "int f(void) { return 1; }\n").unwrap();
        let p = load_dir(&dir).unwrap();
        assert!(!p.has_history);
        assert_eq!(p.sources.len(), 1);
        assert_eq!(p.sources[0].0, "src/a.c");
        assert_eq!(p.repo.author_count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn loads_tree_with_matching_history() {
        let dir = tmpdir("hist");
        let content = "int f(void) { return 1; }\n";
        fs::write(dir.join("src/a.c"), content).unwrap();
        let spec = vc_vcs::HistorySpec {
            commits: vec![vc_vcs::spec::CommitSpec {
                author: "alice".into(),
                timestamp: 5,
                message: "init".into(),
                writes: vec![vc_vcs::spec::WriteSpec {
                    path: "src/a.c".into(),
                    content: content.into(),
                }],
            }],
        };
        fs::write(dir.join("history.json"), spec.to_json_pretty()).unwrap();
        let p = load_dir(&dir).unwrap();
        assert!(p.has_history);
        assert_eq!(
            p.repo
                .blame_author("src/a.c", 1)
                .map(|a| p.repo.author(a).name.clone()),
            Some("alice".to_string())
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_directory_loads_as_empty_project() {
        let dir = tmpdir("empty");
        // `tmpdir` creates `src/` but writes no files: zero `.c` sources.
        assert!(load_dir(&dir).is_err(), "strict load still rejects");
        let p = load_dir_or_empty(&dir).unwrap();
        assert!(p.sources.is_empty());
        assert!(!p.has_history);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_is_still_an_error() {
        let dir = std::env::temp_dir().join(format!("vc-no-such-dir-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        assert!(load_dir_or_empty(&dir).is_err());
    }

    #[test]
    fn history_cache_keys_on_content_and_a_miss_holds_one_repository() {
        let dir = tmpdir("cache");
        let history = |author: &str| vc_vcs::HistorySpec {
            commits: vec![vc_vcs::spec::CommitSpec {
                author: author.into(),
                timestamp: 5,
                message: "init".into(),
                writes: vec![vc_vcs::spec::WriteSpec {
                    path: "src/a.c".into(),
                    content: "int f(void) { return 1; }\n".into(),
                }],
            }],
        };
        fs::write(dir.join("src/a.c"), "int f(void) { return 1; }\n").unwrap();
        fs::write(dir.join("history.json"), history("alice").to_json()).unwrap();
        let mut cache = HistoryCache::default();
        let first = load_dir_cached(&dir, Some(&mut cache)).unwrap();
        let second = load_dir_cached(&dir, Some(&mut cache)).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!(
            Arc::ptr_eq(&first.repo, &second.repo),
            "a hit shares the repository"
        );
        drop(second);

        fs::write(dir.join("history.json"), history("bob").to_json()).unwrap();
        let third = load_dir_cached(&dir, Some(&mut cache)).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
        assert_eq!(
            Arc::strong_count(&first.repo),
            1,
            "the miss let go of the old one"
        );
        assert_eq!(
            third
                .repo
                .blame_author("src/a.c", 1)
                .map(|a| third.repo.author(a).name.clone()),
            Some("bob".to_string())
        );

        cache.clear();
        drop(third);
        load_dir_cached(&dir, Some(&mut cache)).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 3), "cleared means cold");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_mismatched_history() {
        let dir = tmpdir("mismatch");
        fs::write(dir.join("src/a.c"), "int f(void) { return 2; }\n").unwrap();
        let spec = vc_vcs::HistorySpec {
            commits: vec![vc_vcs::spec::CommitSpec {
                author: "alice".into(),
                timestamp: 5,
                message: "init".into(),
                writes: vec![vc_vcs::spec::WriteSpec {
                    path: "src/a.c".into(),
                    content: "int f(void) { return 1; }\n".into(),
                }],
            }],
        };
        fs::write(dir.join("history.json"), spec.to_json()).unwrap();
        assert!(load_dir(&dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
