//! Crash-safety integration tests for the experiment harness, driven
//! through the real `e16_fault_degradation` binary: deterministic
//! interruption (`--halt-after-checkpoints`), bit-identical resume
//! (`--resume`), resume from a checkpoint whose last append was torn,
//! panic quarantine (`--poison-cell`), a resumed retry that keeps the
//! records after the retried cell, and fingerprint validation — all
//! at the process boundary, where exit codes and on-disk artifacts are
//! what a user actually sees.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn e16() -> &'static str {
    env!("CARGO_BIN_EXE_e16_fault_degradation")
}

fn run(args: &[&str]) -> Output {
    Command::new(e16())
        .args(args)
        .output()
        .expect("spawn e16_fault_degradation")
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cobra-e16-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Drop the per-cell `"timing"` lines — the one deliberately
/// nondeterministic (wall-clock) part of a v3 manifest — before
/// byte-comparing manifests across runs.
fn strip_timing(manifest: &str) -> String {
    manifest
        .lines()
        .filter(|l| !l.contains("\"timing\""))
        .flat_map(|l| [l, "\n"])
        .collect()
}

#[test]
fn kill_and_resume_produces_a_byte_identical_manifest() {
    let dir = fresh_dir("resume");
    let reference = dir.join("ref.json");
    let manifest = dir.join("m.json");
    let ckpt = dir.join("m.ckpt.json");

    // Uninterrupted reference run.
    let out = run(&["--quick", "--manifest", reference.to_str().unwrap()]);
    assert!(out.status.success(), "reference run failed");

    // Deterministically interrupted run: exit code 3, checkpoint left.
    let out = run(&[
        "--quick",
        "--manifest",
        manifest.to_str().unwrap(),
        "--halt-after-checkpoints",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(3), "halt must exit with code 3");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--resume"),
        "halt names the resume flag: {stderr}"
    );
    assert!(ckpt.exists(), "interrupted run leaves a checkpoint");
    assert!(!manifest.exists(), "interrupted run writes no manifest");

    // Resumed run: completes, and the manifest is byte-identical to the
    // uninterrupted reference (completed cells replayed, the interrupted
    // cell continued bit-identically from its last batch boundary).
    let out = run(&["--quick", "--resume", manifest.to_str().unwrap()]);
    assert!(out.status.success(), "resume run failed");
    assert_eq!(
        strip_timing(&read(&manifest)),
        strip_timing(&read(&reference)),
        "resumed manifest must be byte-identical to the uninterrupted run \
         (modulo the wall-clock timing lines)"
    );
    assert!(!ckpt.exists(), "completed resume cleans up its checkpoint");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_from_a_torn_checkpoint_tail_matches_the_uninterrupted_run() {
    let dir = fresh_dir("torn");
    let reference = dir.join("ref.json");
    let manifest = dir.join("m.json");
    let ckpt = dir.join("m.ckpt.json");

    let out = run(&["--quick", "--manifest", reference.to_str().unwrap()]);
    assert!(out.status.success(), "reference run failed");

    // The second boundary falls after the first cell with a boundary has
    // completed, so its append carries that cell's `done` line (continuing
    // its stream) and a later cell's `running` line.
    let out = run(&[
        "--quick",
        "--manifest",
        manifest.to_str().unwrap(),
        "--halt-after-checkpoints",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(3), "halt must exit with code 3");
    let whole = cobra_bench::Checkpoint::load(&ckpt).expect("the halted run's checkpoint loads");
    let text = read(&ckpt);
    let last = text.lines().last().unwrap();
    assert!(last.contains("\"status\": \"running\""), "{last}");
    assert!(
        text.lines()
            .any(|l| l.contains("\"status\": \"done\"") && !l.contains("\"from\": 0,")),
        "the last append continues a cell that turned done: {text}"
    );

    // A crash mid-append: the last few bytes never reached the disk. The
    // torn running line is dropped and its cell reruns from its first trial.
    let file = std::fs::OpenOptions::new().write(true).open(&ckpt).unwrap();
    file.set_len(text.len() as u64 - 5).unwrap();
    drop(file);
    let torn = cobra_bench::Checkpoint::load(&ckpt).expect("a torn tail still loads");
    assert_eq!(torn.cells[..], whole.cells[..whole.cells.len() - 1]);

    let out = run(&["--quick", "--resume", manifest.to_str().unwrap()]);
    assert!(out.status.success(), "resume from a torn tail failed");
    assert_eq!(
        strip_timing(&read(&manifest)),
        strip_timing(&read(&reference)),
        "a resume from a torn tail must reproduce the uninterrupted manifest \
         (modulo the wall-clock timing lines)"
    );
    assert!(!ckpt.exists(), "completed resume cleans up its checkpoint");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn poisoned_cell_is_quarantined_and_resume_retries_it() {
    let dir = fresh_dir("poison");
    let clean = dir.join("clean.json");
    let manifest = dir.join("m.json");
    let ckpt = dir.join("m.ckpt.json");

    // The same run without the poison: what the resumed run must equal.
    let out = run(&["--quick", "--manifest", clean.to_str().unwrap()]);
    assert!(out.status.success(), "clean run failed");

    // The poisoned cell panics on every attempt; the run must survive,
    // record the cell as failed, and keep its checkpoint for a retry.
    let out = run(&[
        "--quick",
        "--manifest",
        manifest.to_str().unwrap(),
        "--poison-cell",
        "regime delayed-delivery@8",
    ]);
    assert!(
        out.status.success(),
        "a quarantined cell must not kill the run"
    );
    let json = read(&manifest);
    assert!(json.contains("\"status\": \"failed\""), "{json}");
    assert!(json.contains("--poison-cell"), "{json}");
    assert!(json.contains("\"failed_cells\": 1"), "{json}");
    assert!(
        ckpt.exists(),
        "failed cells keep the checkpoint for --resume"
    );

    // Resuming without the poison flag retries only the failed cell and
    // ends with the clean run's manifest.
    let out = run(&["--quick", "--resume", manifest.to_str().unwrap()]);
    assert!(out.status.success(), "resume after quarantine failed");
    let json = read(&manifest);
    assert!(!json.contains("\"status\": \"failed\""), "{json}");
    assert!(json.contains("\"failed_cells\": 0"), "{json}");
    assert_eq!(
        strip_timing(&json),
        strip_timing(&read(&clean)),
        "resumed manifest must equal the unpoisoned run's \
         (modulo the wall-clock timing lines)"
    );
    assert!(!ckpt.exists(), "clean completion removes the checkpoint");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resuming_a_quarantined_cell_keeps_the_records_after_it() {
    let dir = fresh_dir("retry");
    let clean = dir.join("clean.json");
    let manifest = dir.join("m.json");
    let ckpt = dir.join("m.ckpt.json");

    let out = run(&["--quick", "--manifest", clean.to_str().unwrap()]);
    assert!(out.status.success(), "clean run failed");

    // Cell 6 is the first cell with a batch boundary. Quarantined, it
    // leaves a checkpoint with all 18 records, the 11 after it done.
    let out = run(&[
        "--quick",
        "--manifest",
        manifest.to_str().unwrap(),
        "--poison-cell",
        "cobra(k=2) loss=0.05 on grid d=2@6",
    ]);
    assert!(
        out.status.success(),
        "a quarantined cell must not kill the run"
    );
    let loaded = cobra_bench::Checkpoint::load(&ckpt).expect("the checkpoint is kept");
    assert_eq!(loaded.cells.len(), 18);
    assert_eq!(loaded.cells[6].status, cobra_bench::CellStatus::Failed);

    // The retry's boundaries fall while the run holds 7 records against
    // the file's 18. Publishing one would drop cells 7–17 from the file,
    // so none is written or counted: the halt never fires, cells 7–17 are
    // replayed from the checkpoint, and the run ends as the clean one.
    let out = run(&[
        "--quick",
        "--resume",
        manifest.to_str().unwrap(),
        "--halt-after-checkpoints",
        "1",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "the retried cell's boundaries must not halt the run: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("(18 cell record(s))"), "{stdout}");
    assert_eq!(
        strip_timing(&read(&manifest)),
        strip_timing(&read(&clean)),
        "the resumed manifest must equal the unpoisoned run's \
         (modulo the wall-clock timing lines)"
    );
    assert!(!ckpt.exists(), "clean completion removes the checkpoint");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_refuses_a_checkpoint_from_a_different_run() {
    let dir = fresh_dir("mismatch");
    let manifest = dir.join("m.json");

    let out = run(&[
        "--quick",
        "--manifest",
        manifest.to_str().unwrap(),
        "--halt-after-checkpoints",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(3));

    // Same destination, different master seed: the fingerprint check
    // must refuse instead of silently mixing streams.
    let out = run(&[
        "--quick",
        "--seed",
        "12345",
        "--resume",
        manifest.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "fingerprint mismatch exits 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("seed mismatch"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quick_manifest_reports_all_cells_precise_and_validates_as_json() {
    let dir = fresh_dir("smoke");
    let manifest = dir.join("m.json");
    let out = run(&["--quick", "--manifest", manifest.to_str().unwrap()]);
    assert!(out.status.success());
    let doc = cobra_bench::Json::parse(&read(&manifest)).expect("manifest is valid JSON");
    assert_eq!(
        doc.get("schema").and_then(|s| s.as_str()),
        Some("cobra-bench/run-manifest-v3")
    );
    let cells = doc.get("cells").and_then(|c| c.as_array()).unwrap();
    // 5 loss sweeps × 3 sides + 3 regimes.
    assert_eq!(cells.len(), 18);
    for cell in cells {
        assert_eq!(cell.get("status").and_then(|s| s.as_str()), Some("done"));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[PASS]"), "{stdout}");
    assert!(!stdout.contains("[FAIL]"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}
