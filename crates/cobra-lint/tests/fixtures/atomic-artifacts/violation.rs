// Fixture: raw artifact writes — a crash mid-write leaves a truncated
// manifest that poisons --resume. Linted under a virtual
// crates/cobra-bench/src/ path (not fsio.rs).

use std::fs;
use std::fs::File;
use std::io::Write;

fn persist_manifest(path: &std::path::Path, body: &str) -> std::io::Result<()> {
    // The exact form the acceptance criterion re-introduces.
    fs::write(path, body)
}

fn persist_csv(path: &std::path::Path, rows: &[String]) -> std::io::Result<()> {
    let mut f = File::create(path)?;
    for r in rows {
        writeln!(f, "{r}")?;
    }
    Ok(())
}

fn append_checkpoint_line(path: &std::path::Path, line: &str) -> std::io::Result<()> {
    // An append with no flush: a crash can lose a boundary the run
    // already counted, and nothing marks the journal's synced end.
    let mut f = std::fs::OpenOptions::new().append(true).open(path)?;
    f.write_all(line.as_bytes())
}
