//! A binary that runs no orchestrated cell writes no manifest,
//! checkpoint or trace, so it must refuse the flags that ask for them
//! instead of exiting 0 with nothing written. Driven through the real
//! `e14_branching_schedules` binary, one of the ten such binaries that
//! share `ExpConfig::from_env_without_cells`.

use std::path::PathBuf;
use std::process::Command;

fn fresh_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cobra-e14-flags-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn e14_exits_2_on_orchestration_flags_and_writes_nothing() {
    let dir = fresh_dir();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    for (flag, value) in [
        ("--manifest", path("m.json")),
        ("--resume", path("nothere.json")),
        ("--halt-after-checkpoints", "1".to_string()),
        ("--trace", path("t.jsonl")),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_e14_branching_schedules"))
            .args(["--quick", flag, &value])
            .output()
            .expect("spawn e14_branching_schedules");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(
            stderr.contains(flag),
            "{flag}: stderr does not name it: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{flag}: the experiment ran");
    }
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(left.is_empty(), "files written: {left:?}");
    std::fs::remove_dir_all(&dir).ok();
}
