//! Workspace discovery: which files the linter scans and in what order.
//!
//! The scan set is the first-party source — `crates/<name>/src/**/*.rs`
//! (crate name taken from the directory) plus the root façade
//! `src/**/*.rs` (crate name `livephase`). Vendored dependencies
//! (`vendor/`), integration tests, benches, and examples are
//! deliberately out of scope: the invariants the rules encode are about
//! shipped decision-path code. The walk is sorted at every level so
//! reports and JSON output are byte-stable across runs and filesystems.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::source::SourceFile;

/// A failure to read the workspace (before any rule ran).
#[derive(Debug)]
pub struct WorkspaceError {
    /// The path involved.
    pub path: PathBuf,
    /// The underlying I/O error.
    pub source: io::Error,
}

impl std::fmt::Display for WorkspaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.source)
    }
}

impl std::error::Error for WorkspaceError {}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, WorkspaceError> {
    let iter = fs::read_dir(dir).map_err(|source| WorkspaceError {
        path: dir.to_owned(),
        source,
    })?;
    let mut entries = Vec::new();
    for entry in iter {
        let entry = entry.map_err(|source| WorkspaceError {
            path: dir.to_owned(),
            source,
        })?;
        entries.push(entry.path());
    }
    entries.sort();
    Ok(entries)
}

/// Collects every `.rs` file under `dir`, recursively, sorted.
fn rs_files_under(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), WorkspaceError> {
    for path in read_dir_sorted(dir)? {
        if path.is_dir() {
            rs_files_under(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Loads and analyzes every first-party source file under `root`.
///
/// # Errors
///
/// Returns an error if a directory or file in the scan set cannot be
/// read. A missing `crates/` or `src/` directory is an error too: a
/// lint run that silently scanned nothing would report a clean
/// workspace it never looked at.
pub fn load_sources(root: &Path) -> Result<Vec<SourceFile>, WorkspaceError> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    for crate_dir in read_dir_sorted(&crates_dir)? {
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let crate_name = crate_dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let mut paths = Vec::new();
        rs_files_under(&src, &mut paths)?;
        for path in paths {
            let text = fs::read_to_string(&path).map_err(|source| WorkspaceError {
                path: path.clone(),
                source,
            })?;
            files.push(SourceFile::analyze(rel(root, &path), &crate_name, text));
        }
    }
    let facade = root.join("src");
    if facade.is_dir() {
        let mut paths = Vec::new();
        rs_files_under(&facade, &mut paths)?;
        for path in paths {
            let text = fs::read_to_string(&path).map_err(|source| WorkspaceError {
                path: path.clone(),
                source,
            })?;
            files.push(SourceFile::analyze(rel(root, &path), "livephase", text));
        }
    }
    Ok(files)
}

/// Walks upward from `start` to the directory whose `Cargo.toml`
/// declares `[workspace]`.
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d.to_owned());
            }
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_is_sorted_and_scoped() {
        let dir = std::env::temp_dir().join(format!("lint-ws-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        for sub in [
            "crates/beta/src",
            "crates/alpha/src/inner",
            "src",
            "vendor/dep/src",
        ] {
            fs::create_dir_all(dir.join(sub)).unwrap();
        }
        fs::write(dir.join("crates/beta/src/lib.rs"), "fn b() {}").unwrap();
        fs::write(dir.join("crates/alpha/src/lib.rs"), "fn a() {}").unwrap();
        fs::write(dir.join("crates/alpha/src/inner/m.rs"), "fn m() {}").unwrap();
        fs::write(dir.join("crates/alpha/src/notes.txt"), "skip me").unwrap();
        fs::write(dir.join("src/lib.rs"), "fn root() {}").unwrap();
        fs::write(dir.join("vendor/dep/src/lib.rs"), "fn v() {}").unwrap();

        let files = load_sources(&dir).unwrap();
        let got: Vec<(&str, &str)> = files
            .iter()
            .map(|f| (f.crate_name.as_str(), f.path.as_str()))
            .collect();
        assert_eq!(
            got,
            vec![
                ("alpha", "crates/alpha/src/inner/m.rs"),
                ("alpha", "crates/alpha/src/lib.rs"),
                ("beta", "crates/beta/src/lib.rs"),
                ("livephase", "src/lib.rs"),
            ]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn workspace_root_is_found_from_a_nested_dir() {
        let dir = std::env::temp_dir().join(format!("lint-root-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("crates/x/src")).unwrap();
        fs::write(dir.join("Cargo.toml"), "[workspace]\nmembers = []\n").unwrap();
        fs::write(dir.join("crates/x/Cargo.toml"), "[package]\nname = \"x\"\n").unwrap();
        let found = find_workspace_root(&dir.join("crates/x/src")).unwrap();
        assert_eq!(found, dir);
        fs::remove_dir_all(&dir).unwrap();
    }
}
