//! Seeded input trees: full-scale `vc_workload` applications written to
//! disk the way `genapp` writes them (`*.c` sources plus `history.json`).
//! The ground truth stays in memory; `vcheck` never sees it.

use std::{
    fs, io,
    path::{Path, PathBuf},
};

use vc_vcs::HistorySpec;
use vc_workload::{generate, AppProfile, GroundTruth};

/// The four paper profiles, in the order `cli_scan` rotates over them.
pub const PROFILES: [&str; 4] = ["linux", "nfs-ganesha", "mysql", "openssl"];

/// One generated application, ready to be written out any number of times.
pub struct App {
    pub name: String,
    pub sources: Vec<(String, String)>,
    pub history: String,
    pub truth: GroundTruth,
    /// Findings a correct scan reports (Table 2 "#Detected").
    pub expect_reported: usize,
    /// Reported findings that are real bugs (Table 2 "#Confirmed").
    pub expect_confirmed: usize,
}

/// The full-scale profile `name` with its seed offset by `seed`.
fn profile(name: &str, seed: u64) -> AppProfile {
    let mut p = match name {
        "linux" => AppProfile::linux(),
        "nfs-ganesha" => AppProfile::nfs_ganesha(),
        "mysql" => AppProfile::mysql(),
        "openssl" => AppProfile::openssl(),
        other => panic!("unknown profile {other}"),
    };
    p.seed = p.seed.wrapping_add(seed);
    p
}

pub fn generate_app(name: &str, seed: u64) -> App {
    let profile = profile(name, seed);
    let app = generate(&profile);
    App {
        name: name.to_string(),
        history: HistorySpec::from_repo(&app.repo).to_json(),
        expect_reported: profile.detected(),
        expect_confirmed: profile.confirmed_bugs,
        sources: app.sources,
        truth: app.truth,
    }
}

impl App {
    /// Writes the tree under `dir` (created fresh).
    pub fn write_to(&self, dir: &Path) -> io::Result<()> {
        if dir.exists() {
            fs::remove_dir_all(dir)?;
        }
        for (path, content) in &self.sources {
            let full = dir.join(path);
            if let Some(parent) = full.parent() {
                fs::create_dir_all(parent)?;
            }
            fs::write(full, content)?;
        }
        fs::write(dir.join("history.json"), &self.history)
    }
}

/// A per-run scratch directory inside the checkout, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create(root: &Path, tag: &str) -> io::Result<WorkDir> {
        let dir = root.join(format!("{tag}-{}", std::process::id()));
        if dir.exists() {
            fs::remove_dir_all(&dir)?;
        }
        fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn join(&self, p: &str) -> PathBuf {
        self.0.join(p)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}
