//! Atomic artifact output for the linter's own JSON report.
//!
//! Mirrors `cobra_sim::fsio::write_atomic` (write temp sibling, fsync,
//! rename) — duplicated rather than imported because cobra-lint is
//! deliberately dependency-free so it can gate CI before the rest of
//! the workspace builds. Files named `fsio.rs` are the one place the
//! atomic-artifacts rule permits raw `File::create` and `OpenOptions`.

use std::fs::File;
use std::io::{Error, ErrorKind, Write};
use std::path::Path;

/// Write `contents` to `path` atomically via a `.tmp` sibling.
pub fn write_atomic_str(path: &Path, contents: &str) -> std::io::Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    let file_name = path.file_name().ok_or_else(|| {
        Error::new(
            ErrorKind::InvalidInput,
            format!("not a writable file path: {}", path.display()),
        )
    })?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };
    let mut f = File::create(&tmp)?;
    f.write_all(contents.as_bytes())?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_replaces() {
        let dir = std::env::temp_dir().join(format!("cobra-lint-fsio-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let p = dir.join("findings.json");
        write_atomic_str(&p, "{\"a\":1}").expect("first write");
        write_atomic_str(&p, "{\"a\":2}").expect("second write");
        assert_eq!(std::fs::read_to_string(&p).expect("read"), "{\"a\":2}");
        assert!(!dir.join("findings.json.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
