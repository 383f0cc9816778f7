// Fixture: artifact output through the atomic helpers; reads and
// non-write fs calls stay untouched. Linted under a virtual
// crates/cobra-bench/src/ path.

use cobra_sim::fsio::{append_durable, write_atomic_str};

fn persist_manifest(path: &std::path::Path, body: &str) -> std::io::Result<()> {
    // write-temp-fsync-rename: old complete file or new complete file,
    // never a prefix.
    write_atomic_str(path, body)
}

fn append_checkpoint_line(path: &std::path::Path, line: &str) -> std::io::Result<()> {
    // One write and one fdatasync, in the helper module.
    append_durable(path, line.as_bytes())
}

fn load_manifest(path: &std::path::Path) -> std::io::Result<String> {
    // Reads are not artifacts.
    std::fs::read_to_string(path)
}

fn ensure_dir(path: &std::path::Path) -> std::io::Result<()> {
    // Directory creation is idempotent, not a truncation hazard.
    std::fs::create_dir_all(path)
}
