//! Crash-safe file output: atomic write-temp-fsync-rename, and durable
//! appends for journals.
//!
//! Every artifact a run persists (CSV tables, run manifests, adaptive
//! checkpoints, bench JSON) is published through [`write_atomic`], so an
//! interrupted run can never leave a truncated file behind — a later
//! `--resume` or CI artifact step sees either the previous complete
//! version or the new complete version, nothing in between. A journal
//! (the adaptive checkpoint) then grows through [`append_durable`], and
//! its reader drops a final line without its newline: what a write cut
//! short by a crash leaves.

use std::fs::{File, OpenOptions};
use std::io::{Error, ErrorKind, Write};
use std::path::Path;

/// Write `contents` to `path` atomically: write to a sibling `.tmp`
/// file, `fsync` it, then rename over the destination. On any error the
/// destination is untouched (a stale `.tmp` sibling may remain; it is
/// overwritten by the next attempt).
///
/// The temp file lives in the destination's directory so the rename
/// never crosses a filesystem boundary (cross-device renames are not
/// atomic — they decay to copy+unlink).
pub fn write_atomic(path: &Path, contents: &[u8]) -> std::io::Result<()> {
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
    f.write_all(contents)?;
    // Durability before visibility: the rename must never publish a file
    // whose bytes are still in the page cache only.
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// [`write_atomic`] for string contents.
pub fn write_atomic_str(path: &Path, contents: &str) -> std::io::Result<()> {
    write_atomic(path, contents.as_bytes())
}

/// Append `contents` to the file at `path` with one write, then flush
/// its data to disk (`fdatasync`) before returning. The file must exist:
/// a journal is first published whole by [`write_atomic`], so a missing
/// file is an error rather than a journal without its head. A crash
/// before the flush completes can leave only part of `contents` at the
/// end of the file.
pub fn append_durable(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    let mut f = OpenOptions::new().append(true).open(path)?;
    f.write_all(contents)?;
    f.sync_data()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cobra-fsio-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn writes_and_replaces() {
        let dir = temp_dir("basic");
        let p = dir.join("out.json");
        write_atomic_str(&p, "{\"v\":1}").unwrap();
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "{\"v\":1}");
        write_atomic_str(&p, "{\"v\":2}").unwrap();
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "{\"v\":2}");
        // No temp residue after a successful write.
        assert!(!dir.join("out.json.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bare_filename_writes_to_cwd_relative_path() {
        // A manifest path like "run.json" has no parent directory; the
        // temp sibling must still land next to it rather than erroring.
        let dir = temp_dir("bare");
        let p = dir.join("bare.txt");
        write_atomic(&p, b"x").unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"x");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_directory_is_an_error_and_leaves_no_destination() {
        let dir = temp_dir("missing");
        let p = dir.join("no-such-subdir").join("out.json");
        assert!(write_atomic_str(&p, "x").is_err());
        assert!(!p.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn appends_extend_the_published_file() {
        let dir = temp_dir("append");
        let p = dir.join("journal.jsonl");
        write_atomic_str(&p, "head\n").unwrap();
        append_durable(&p, b"one\n").unwrap();
        append_durable(&p, b"two\n").unwrap();
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "head\none\ntwo\n");
        // An append never creates the journal it extends.
        let missing = dir.join("absent.jsonl");
        assert!(append_durable(&missing, b"x").is_err());
        assert!(!missing.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn directory_destination_is_an_error() {
        let dir = temp_dir("isdir");
        assert!(write_atomic_str(&dir, "x").is_err());
        // The failed rename leaves its temp sibling next to the target.
        let mut tmp = dir.as_os_str().to_os_string();
        tmp.push(".tmp");
        std::fs::remove_file(PathBuf::from(tmp)).ok();
        std::fs::remove_dir_all(&dir).ok();
    }
}
