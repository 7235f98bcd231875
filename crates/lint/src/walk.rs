//! Workspace walker: collects `.rs` sources with workspace-relative
//! forward-slash paths so rules can scope by directory prefix on any host.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::source::SourceFile;

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", ".claude"];

/// Path prefixes (workspace-relative) excluded from scanning.  The lint
/// fixtures deliberately violate every rule; they are exercised by the
/// integration tests, not the workspace scan.
const SKIP_PREFIXES: &[&str] = &["crates/lint/tests/fixtures/"];

/// Walks `root`, lexing every `.rs` source in path order.
pub fn collect(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    walk_dir(root, &mut files)?;
    files.sort();
    let mut sources = Vec::new();
    for path in files {
        let rel = relative(root, &path);
        if SKIP_PREFIXES.iter().any(|p| rel.starts_with(p)) {
            continue;
        }
        sources.push(SourceFile::new(&rel, &fs::read_to_string(&path)?));
    }
    Ok(sources)
}

fn walk_dir(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk_dir(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes.
fn relative(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workspace_root() -> PathBuf {
        // crates/lint -> crates -> workspace root
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("lint crate lives two levels below the workspace root")
            .to_path_buf()
    }

    #[test]
    fn collects_sources_with_relative_paths() {
        let sources = collect(&workspace_root()).expect("walk workspace");
        assert!(sources.iter().any(|s| s.path == "crates/lint/src/walk.rs"));
    }

    #[test]
    fn skips_fixtures_and_target() {
        let sources = collect(&workspace_root()).expect("walk workspace");
        assert!(sources
            .iter()
            .all(|s| !s.path.starts_with("crates/lint/tests/fixtures/")));
        assert!(sources.iter().all(|s| !s.path.starts_with("target/")));
    }
}
