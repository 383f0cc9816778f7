//! Workspace discovery: find the root and enumerate the first-party
//! `.rs` files the invariants apply to.

use std::path::{Path, PathBuf};

/// Directory names that are never first-party source: vendored stand-in
/// crates, build output, and the linter's own deliberately-violating
/// fixture corpus.
const EXCLUDED_DIRS: &[&str] = &["vendor", "target", "fixtures", ".git"];

/// Top-level entries that contain first-party Rust source.
const SOURCE_ROOTS: &[&str] = &["src", "crates", "tests", "examples", "benches", "perfbench"];

/// Walk upward from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Enumerate every first-party `.rs` file under `root`, as sorted
/// workspace-relative `/`-separated paths.
pub fn first_party_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    for top in SOURCE_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, root, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if EXCLUDED_DIRS.contains(&name.as_ref()) {
                continue;
            }
            walk(&path, root, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_this_workspace_and_excludes_vendor_and_fixtures() {
        let here = std::env::current_dir().expect("cwd");
        let root = find_workspace_root(&here).expect("workspace root above the crate dir");
        let files = first_party_files(&root).expect("walk");
        assert!(files.iter().any(|f| f == "crates/cobra-lint/src/lib.rs"));
        assert!(files.iter().any(|f| f.starts_with("src/")));
        assert!(files.iter().any(|f| f == "perfbench/src/main.rs"));
        assert!(!files.iter().any(|f| f.starts_with("perfbench/target/")));
        assert!(!files.iter().any(|f| f.contains("vendor/")));
        assert!(!files.iter().any(|f| f.contains("/fixtures/")));
        assert!(!files.iter().any(|f| f.contains("target/")));
    }
}
