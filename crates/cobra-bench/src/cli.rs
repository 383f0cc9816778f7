//! Minimal CLI parsing shared by the experiment binaries (no external
//! argument-parsing dependency needed for a handful of flags).

use std::path::PathBuf;

/// Common experiment configuration parsed from `std::env::args`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExpConfig {
    /// Paper-scale sweeps instead of CI-friendly ones.
    pub full: bool,
    /// Smoke-test mode: CI-scale sweeps with a minimal adaptive trial
    /// envelope (few trials, loose precision) — what the CI bench-smoke
    /// job runs to exercise the orchestration path in seconds.
    pub quick: bool,
    /// Master seed (default 0xC0BRA ≅ 0xC0B7A).
    pub seed: u64,
    /// If set, write CSV tables into this directory.
    pub csv_dir: Option<PathBuf>,
    /// If set, write the per-run JSON manifest (per-cell trials used,
    /// censoring, CI half-widths, precision flags) to this path. When
    /// unset but `csv_dir` is given, the manifest lands next to the CSVs
    /// as `<id>_manifest.json`.
    pub manifest: Option<PathBuf>,
    /// Resume an interrupted run from the checkpoint next to this
    /// manifest path (or from the `.ckpt.json` file itself). Completed
    /// cells are replayed from their recorded trial streams without
    /// re-simulation; the interrupted cell continues bit-identically
    /// from its last batch boundary. Implies `--manifest <same path>`
    /// when no manifest destination is given.
    pub resume: Option<PathBuf>,
    /// Deterministic harness fault-injection: stop the run (exit code 3)
    /// after this many checkpoint writes, leaving a resumable checkpoint
    /// behind. Used by the kill-and-resume tests and the CI resume-smoke
    /// step; requires a manifest destination (checkpoints live next to
    /// the manifest).
    pub halt_after_checkpoints: Option<usize>,
    /// If set, write the run's span timeline (JSONL, schema
    /// `cobra-obs/trace-v1`) to this path: one span per cell attempt,
    /// batch, and retry backoff, rendered by `trace_view`.
    pub trace: Option<PathBuf>,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            full: false,
            quick: false,
            seed: 0xC0B7A,
            csv_dir: None,
            manifest: None,
            resume: None,
            halt_after_checkpoints: None,
            trace: None,
        }
    }
}

impl ExpConfig {
    /// Parse from an iterator of arguments (excluding `argv[0]`).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut cfg = ExpConfig::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--full" => cfg.full = true,
                "--quick" => cfg.quick = true,
                "--seed" => {
                    let v = it.next().ok_or("--seed needs a value")?;
                    cfg.seed = v.parse::<u64>().map_err(|e| format!("bad seed {v}: {e}"))?;
                }
                "--csv" => {
                    let v = it.next().ok_or("--csv needs a directory")?;
                    cfg.csv_dir = Some(PathBuf::from(v));
                }
                "--manifest" => {
                    let v = it.next().ok_or("--manifest needs a path")?;
                    cfg.manifest = Some(PathBuf::from(v));
                }
                "--resume" => {
                    let v = it.next().ok_or("--resume needs a manifest path")?;
                    cfg.resume = Some(PathBuf::from(v));
                }
                "--halt-after-checkpoints" => {
                    let v = it.next().ok_or("--halt-after-checkpoints needs a count")?;
                    let n = v
                        .parse::<usize>()
                        .map_err(|e| format!("bad checkpoint count {v}: {e}"))?;
                    if n == 0 {
                        return Err("--halt-after-checkpoints needs a count >= 1".to_string());
                    }
                    cfg.halt_after_checkpoints = Some(n);
                }
                "--trace" => {
                    let v = it.next().ok_or("--trace needs a path")?;
                    cfg.trace = Some(PathBuf::from(v));
                }
                "--help" | "-h" => {
                    return Err(
                        "usage: <exp> [--full | --quick] [--seed <u64>] [--csv <dir>] \
                         [--manifest <path>] [--resume <manifest>] \
                         [--halt-after-checkpoints <n>] [--trace <path>]"
                            .to_string(),
                    )
                }
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        if cfg.full && cfg.quick {
            return Err("--full and --quick are mutually exclusive".to_string());
        }
        // A resumed run re-writes its artifacts at the same destination
        // unless told otherwise (resume paths ending in `.ckpt.json`
        // name the checkpoint, not the manifest, so they don't imply
        // a manifest destination).
        if cfg.manifest.is_none() {
            if let Some(resume) = &cfg.resume {
                if !resume.to_string_lossy().ends_with(".ckpt.json") {
                    cfg.manifest = Some(resume.clone());
                }
            }
        }
        Ok(cfg)
    }

    /// Parse from the process environment, exiting with a message on
    /// error (for use at the top of each binary's `main`).
    pub fn from_env() -> Self {
        Self::or_exit(Self::parse(std::env::args().skip(1)))
    }

    /// [`ExpConfig::from_env`] for a binary that runs no orchestrated
    /// cell, and so writes no manifest, checkpoint or trace: it exits 2
    /// on the flags that ask for them, naming the flag.
    pub fn from_env_without_cells() -> Self {
        Self::or_exit(Self::parse(std::env::args().skip(1)).and_then(Self::without_cells))
    }

    /// Refuse the orchestration flags: `--resume` (checked first, since
    /// it implies a manifest destination), `--manifest`,
    /// `--halt-after-checkpoints` and `--trace`.
    fn without_cells(self) -> Result<Self, String> {
        let flag = if self.resume.is_some() {
            "--resume"
        } else if self.manifest.is_some() {
            "--manifest"
        } else if self.halt_after_checkpoints.is_some() {
            "--halt-after-checkpoints"
        } else if self.trace.is_some() {
            "--trace"
        } else {
            return Ok(self);
        };
        Err(format!(
            "{flag}: this experiment runs no orchestrated cells, so it writes \
             no manifest, checkpoint or trace"
        ))
    }

    fn or_exit(parsed: Result<Self, String>) -> Self {
        parsed.unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2);
        })
    }

    /// Pick between a CI-scale and a full-scale value (`--quick` shares
    /// the CI-scale sweeps; only the adaptive trial envelope shrinks).
    pub fn scale<T>(&self, ci: T, full: T) -> T {
        if self.full {
            full
        } else {
            ci
        }
    }

    /// Human-readable mode name, as recorded in banners and manifests.
    pub fn mode_name(&self) -> &'static str {
        if self.full {
            "full"
        } else if self.quick {
            "quick"
        } else {
            "ci"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ExpConfig, String> {
        ExpConfig::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let cfg = parse(&[]).unwrap();
        assert!(!cfg.full);
        assert!(!cfg.quick);
        assert_eq!(cfg.seed, 0xC0B7A);
        assert!(cfg.csv_dir.is_none());
        assert!(cfg.manifest.is_none());
        assert_eq!(cfg.mode_name(), "ci");
    }

    #[test]
    fn full_flag() {
        let cfg = parse(&["--full"]).unwrap();
        assert!(cfg.full);
        assert_eq!(cfg.mode_name(), "full");
    }

    #[test]
    fn quick_flag() {
        let cfg = parse(&["--quick"]).unwrap();
        assert!(cfg.quick);
        assert_eq!(cfg.mode_name(), "quick");
    }

    #[test]
    fn quick_and_full_conflict() {
        assert!(parse(&["--quick", "--full"]).is_err());
    }

    #[test]
    fn seed_flag() {
        assert_eq!(parse(&["--seed", "123"]).unwrap().seed, 123);
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "abc"]).is_err());
    }

    #[test]
    fn csv_flag() {
        let cfg = parse(&["--csv", "/tmp/out"]).unwrap();
        assert_eq!(cfg.csv_dir.unwrap(), PathBuf::from("/tmp/out"));
    }

    #[test]
    fn manifest_flag() {
        let cfg = parse(&["--manifest", "/tmp/run.json"]).unwrap();
        assert_eq!(cfg.manifest.unwrap(), PathBuf::from("/tmp/run.json"));
        assert!(parse(&["--manifest"]).is_err());
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(parse(&["--bogus"]).is_err());
    }

    #[test]
    fn resume_flag_implies_manifest_destination() {
        let cfg = parse(&["--resume", "/tmp/m.json"]).unwrap();
        assert_eq!(cfg.resume.as_ref().unwrap(), &PathBuf::from("/tmp/m.json"));
        assert_eq!(cfg.manifest.unwrap(), PathBuf::from("/tmp/m.json"));
        // An explicit --manifest wins.
        let cfg = parse(&["--resume", "/tmp/m.json", "--manifest", "/tmp/n.json"]).unwrap();
        assert_eq!(cfg.manifest.unwrap(), PathBuf::from("/tmp/n.json"));
        // A checkpoint path names the checkpoint only.
        let cfg = parse(&["--resume", "/tmp/m.ckpt.json"]).unwrap();
        assert!(cfg.manifest.is_none());
        assert!(parse(&["--resume"]).is_err());
    }

    #[test]
    fn halt_after_checkpoints_flag() {
        let cfg = parse(&["--halt-after-checkpoints", "2"]).unwrap();
        assert_eq!(cfg.halt_after_checkpoints, Some(2));
        assert!(parse(&["--halt-after-checkpoints"]).is_err());
        assert!(parse(&["--halt-after-checkpoints", "0"]).is_err());
        assert!(parse(&["--halt-after-checkpoints", "x"]).is_err());
    }

    #[test]
    fn binaries_without_cells_refuse_orchestration_flags() {
        let refuse = |args: &[&str]| parse(args).and_then(ExpConfig::without_cells);
        for (args, flag) in [
            (&["--manifest", "m.json"][..], "--manifest"),
            (&["--resume", "nothere.json"], "--resume"),
            (&["--resume", "m.ckpt.json"], "--resume"),
            (
                &["--halt-after-checkpoints", "1"],
                "--halt-after-checkpoints",
            ),
            (&["--trace", "t.jsonl"], "--trace"),
            (&["--quick", "--trace", "t.jsonl", "--seed", "3"], "--trace"),
        ] {
            let err = refuse(args).unwrap_err();
            assert!(err.starts_with(flag), "{args:?}: {err}");
        }
        let cfg = refuse(&["--quick", "--seed", "3", "--csv", "out"]).unwrap();
        assert_eq!(
            cfg,
            parse(&["--quick", "--seed", "3", "--csv", "out"]).unwrap()
        );
        // A bad argument still fails as a bad argument.
        assert_eq!(
            refuse(&["--bogus"]).unwrap_err(),
            "unknown argument: --bogus"
        );
    }

    #[test]
    fn trace_flag() {
        let cfg = parse(&["--trace", "/tmp/run.trace.jsonl"]).unwrap();
        assert_eq!(cfg.trace.unwrap(), PathBuf::from("/tmp/run.trace.jsonl"));
        assert!(parse(&["--trace"]).is_err());
        assert!(parse(&[]).unwrap().trace.is_none());
    }

    #[test]
    fn help_is_an_err_with_usage() {
        let err = parse(&["--help"]).unwrap_err();
        assert!(err.contains("usage"));
    }

    #[test]
    fn scale_selector() {
        let ci = parse(&[]).unwrap();
        assert_eq!(ci.scale(10, 100), 10);
        let full = parse(&["--full"]).unwrap();
        assert_eq!(full.scale(10, 100), 100);
        // Quick mode shares CI-scale sweeps.
        let quick = parse(&["--quick"]).unwrap();
        assert_eq!(quick.scale(10, 100), 10);
    }
}
