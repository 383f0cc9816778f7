//! Crash-safe run checkpoints: the persisted per-cell adaptive state
//! that `--resume` replays.
//!
//! At every adaptive batch boundary the orchestrator writes a checkpoint
//! (schema `cobra-bench/checkpoint-v1`) next to the run manifest via the
//! atomic temp-file + rename writer, holding:
//!
//! * a **fingerprint** of the run ([`CheckpointFingerprint`]) — the
//!   experiment id, mode, master seed, stop rule, and batch size. Resume
//!   refuses a checkpoint whose fingerprint differs from the current
//!   invocation, because the trial streams would not line up;
//! * one record per cell reached so far ([`CellCheckpoint`]): its index
//!   in run order, its human-readable key (`"{sweep}@{scale}"`), its
//!   status, and the consumed per-trial outcome stream in global trial
//!   order. Feeding a `running` cell's stream back into the resumable
//!   runners continues it **bit-identically**; a `done` cell's stream is
//!   replayed through the stop rule without re-simulation.
//!
//! Trial streams are small (bounded by the rule's `max_trials` per
//! cell), so checkpoints are rewritten whole at each boundary rather
//! than appended — the atomic writer then guarantees a reader never sees
//! a torn file.

use crate::json::{escape_str, Json};
use cobra_sim::StopRule;
use std::path::{Path, PathBuf};

/// Identifies the run a checkpoint belongs to. All fields must match for
/// a resume to be sound: a different seed, rule, or batch size would
/// generate different trial streams or stop decisions than the ones the
/// checkpoint's prefixes came from.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointFingerprint {
    /// Experiment id (`"e16"`, …).
    pub id: String,
    /// Mode name (`"quick"` / `"ci"` / `"full"`).
    pub mode: String,
    /// The run's master seed.
    pub seed: u64,
    /// `StopRule::min_trials`.
    pub min_trials: usize,
    /// `StopRule::max_trials`.
    pub max_trials: usize,
    /// `StopRule::rel_precision`.
    pub rel_precision: f64,
    /// `StopRule::confidence`.
    pub confidence: f64,
    /// Trials launched between stop-rule consultations.
    pub batch: usize,
}

impl CheckpointFingerprint {
    /// Build the fingerprint of a run from its identity and envelope.
    pub fn new(id: &str, mode: &str, seed: u64, rule: &StopRule, batch: usize) -> Self {
        CheckpointFingerprint {
            id: id.to_string(),
            mode: mode.to_string(),
            seed,
            min_trials: rule.min_trials,
            max_trials: rule.max_trials,
            rel_precision: rule.rel_precision,
            confidence: rule.confidence,
            batch,
        }
    }

    /// Check that `self` (from a checkpoint file) matches `current` (the
    /// resuming invocation), naming the first mismatching field.
    pub fn ensure_matches(&self, current: &CheckpointFingerprint) -> Result<(), String> {
        let fields: [(&str, String, String); 8] = [
            ("experiment", self.id.clone(), current.id.clone()),
            ("mode", self.mode.clone(), current.mode.clone()),
            ("seed", self.seed.to_string(), current.seed.to_string()),
            (
                "min_trials",
                self.min_trials.to_string(),
                current.min_trials.to_string(),
            ),
            (
                "max_trials",
                self.max_trials.to_string(),
                current.max_trials.to_string(),
            ),
            (
                "rel_precision",
                self.rel_precision.to_string(),
                current.rel_precision.to_string(),
            ),
            (
                "confidence",
                self.confidence.to_string(),
                current.confidence.to_string(),
            ),
            ("batch", self.batch.to_string(), current.batch.to_string()),
        ];
        for (name, ckpt, cur) in fields {
            if ckpt != cur {
                return Err(format!(
                    "checkpoint {name} mismatch: checkpoint has {ckpt}, this run has {cur} \
                     (resume must use the same experiment, mode, seed, and envelope)"
                ));
            }
        }
        Ok(())
    }
}

/// Lifecycle state of one cell in a checkpoint/manifest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellStatus {
    /// The cell's adaptive run completed (rule met or trial cap hit).
    Done,
    /// The cell was quarantined after exhausting its retry budget
    /// (panic or watchdog); the rest of the run continued without it.
    Failed,
    /// The cell was interrupted mid-run; its `times` prefix resumes it.
    Running,
}

impl CellStatus {
    /// The status as it appears in JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            CellStatus::Done => "done",
            CellStatus::Failed => "failed",
            CellStatus::Running => "running",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "done" => Ok(CellStatus::Done),
            "failed" => Ok(CellStatus::Failed),
            "running" => Ok(CellStatus::Running),
            other => Err(format!("unknown cell status {other:?}")),
        }
    }
}

/// One cell's persisted adaptive state: the cell's only record. The
/// orchestrator renders the run manifest from these records.
#[derive(Clone, Debug, PartialEq)]
pub struct CellCheckpoint {
    /// Position of the cell in run order — the primary resume key (cell
    /// seeds derive from this index, so order is identity).
    pub index: usize,
    /// Human-readable identity (`"{sweep}@{scale}"`), cross-checked on
    /// resume so a checkpoint from a different binary fails loudly.
    pub key: String,
    /// Lifecycle state.
    pub status: CellStatus,
    /// Consumed per-trial outcomes in global trial order: a number of
    /// steps for a completed trial, `null` for a censored one.
    pub times: Vec<Option<usize>>,
    /// For `failed` cells: why the cell was quarantined.
    pub error: Option<String>,
    /// Wall-clock milliseconds spent simulating this cell so far,
    /// summed across attempts. Zero in checkpoints written before
    /// timing was recorded (the field is optional on parse, so v2-era
    /// checkpoints resume unchanged).
    pub wall_ms: u64,
    /// Attempts beyond the first (panic or watchdog retries).
    pub retries: u64,
    /// Backoff sleeps (ms) taken before each retry, in order.
    pub backoff_ms: Vec<u64>,
}

/// A whole checkpoint file: fingerprint plus the cells reached so far.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// The run identity this checkpoint belongs to.
    pub fingerprint: CheckpointFingerprint,
    /// Cell records in run order (indices are contiguous from 0).
    pub cells: Vec<CellCheckpoint>,
}

impl Checkpoint {
    /// Render the checkpoint as JSON.
    pub fn render(&self) -> String {
        let f = &self.fingerprint;
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"cobra-bench/checkpoint-v1\",\n");
        out.push_str(&format!(
            "  \"experiment\": \"{}\",\n  \"mode\": \"{}\",\n  \"seed\": {},\n",
            escape_str(&f.id),
            escape_str(&f.mode),
            f.seed
        ));
        out.push_str(&format!(
            "  \"rule\": {{\"min_trials\": {}, \"max_trials\": {}, \"rel_precision\": {}, \
             \"confidence\": {}, \"batch\": {}}},\n",
            f.min_trials, f.max_trials, f.rel_precision, f.confidence, f.batch
        ));
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let times: Vec<String> = c
                .times
                .iter()
                .map(|t| match t {
                    Some(steps) => steps.to_string(),
                    None => "null".to_string(),
                })
                .collect();
            let error = match &c.error {
                Some(e) => format!(", \"error\": \"{}\"", escape_str(e)),
                None => String::new(),
            };
            let backoff: Vec<String> = c.backoff_ms.iter().map(|b| b.to_string()).collect();
            out.push_str(&format!(
                "    {{\"index\": {}, \"key\": \"{}\", \"status\": \"{}\", \
                 \"times\": [{}], \"wall_ms\": {}, \"retries\": {}, \
                 \"backoff_ms\": [{}]{}}}{}\n",
                c.index,
                escape_str(&c.key),
                c.status.as_str(),
                times.join(", "),
                c.wall_ms,
                c.retries,
                backoff.join(", "),
                error,
                if i + 1 < self.cells.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parse a checkpoint document, validating schema and structure.
    pub fn parse(text: &str) -> Result<Checkpoint, String> {
        let doc = Json::parse(text)?;
        let field = |key: &str| {
            doc.get(key)
                .ok_or_else(|| format!("checkpoint missing field {key:?}"))
        };
        let schema = field("schema")?.as_str().ok_or("schema is not a string")?;
        if schema != "cobra-bench/checkpoint-v1" {
            return Err(format!("unsupported checkpoint schema {schema:?}"));
        }
        let rule = field("rule")?;
        let rule_field = |key: &str| {
            rule.get(key)
                .ok_or_else(|| format!("checkpoint rule missing field {key:?}"))
        };
        let fingerprint = CheckpointFingerprint {
            id: field("experiment")?
                .as_str()
                .ok_or("experiment is not a string")?
                .to_string(),
            mode: field("mode")?
                .as_str()
                .ok_or("mode is not a string")?
                .to_string(),
            seed: field("seed")?.as_u64().ok_or("seed is not a u64")?,
            min_trials: rule_field("min_trials")?
                .as_usize()
                .ok_or("min_trials is not an integer")?,
            max_trials: rule_field("max_trials")?
                .as_usize()
                .ok_or("max_trials is not an integer")?,
            rel_precision: rule_field("rel_precision")?
                .as_f64()
                .ok_or("rel_precision is not a number")?,
            confidence: rule_field("confidence")?
                .as_f64()
                .ok_or("confidence is not a number")?,
            batch: rule_field("batch")?
                .as_usize()
                .ok_or("batch is not an integer")?,
        };
        let mut cells = Vec::new();
        for (i, cell) in field("cells")?
            .as_array()
            .ok_or("cells is not an array")?
            .iter()
            .enumerate()
        {
            let cell_field = |key: &str| {
                cell.get(key)
                    .ok_or_else(|| format!("cell {i} missing field {key:?}"))
            };
            let index = cell_field("index")?
                .as_usize()
                .ok_or_else(|| format!("cell {i}: index is not an integer"))?;
            if index != i {
                return Err(format!(
                    "cell records out of order: position {i} has index {index}"
                ));
            }
            let mut times = Vec::new();
            for (j, t) in cell_field("times")?
                .as_array()
                .ok_or_else(|| format!("cell {i}: times is not an array"))?
                .iter()
                .enumerate()
            {
                if t.is_null() {
                    times.push(None);
                } else {
                    times.push(Some(t.as_usize().ok_or_else(|| {
                        format!("cell {i}: times[{j}] is neither integer nor null")
                    })?));
                }
            }
            // Timing fields arrived with manifest v3; older checkpoints
            // omit them and default to zero so v2-era runs still resume.
            let mut backoff_ms = Vec::new();
            if let Some(arr) = cell.get("backoff_ms").and_then(|b| b.as_array()) {
                for (j, b) in arr.iter().enumerate() {
                    backoff_ms.push(
                        b.as_u64().ok_or_else(|| {
                            format!("cell {i}: backoff_ms[{j}] is not an integer")
                        })?,
                    );
                }
            }
            cells.push(CellCheckpoint {
                index,
                key: cell_field("key")?
                    .as_str()
                    .ok_or_else(|| format!("cell {i}: key is not a string"))?
                    .to_string(),
                status: CellStatus::parse(
                    cell_field("status")?
                        .as_str()
                        .ok_or_else(|| format!("cell {i}: status is not a string"))?,
                )?,
                times,
                error: cell.get("error").and_then(|e| e.as_str()).map(String::from),
                wall_ms: cell.get("wall_ms").and_then(|v| v.as_u64()).unwrap_or(0),
                retries: cell.get("retries").and_then(|v| v.as_u64()).unwrap_or(0),
                backoff_ms,
            });
        }
        Ok(Checkpoint { fingerprint, cells })
    }

    /// Load and parse a checkpoint file; errors name the file.
    pub fn load(path: &Path) -> Result<Checkpoint, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read checkpoint {}: {e}", path.display()))?;
        Checkpoint::parse(&text)
            .map_err(|e| format!("malformed checkpoint {}: {e}", path.display()))
    }

    /// Write the checkpoint atomically (temp + fsync + rename); an
    /// interrupted write leaves the previous checkpoint intact.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        cobra_sim::write_atomic_str(path, &self.render())
    }
}

/// Where a run's checkpoint lives, given its manifest path: a sibling
/// file with `.ckpt.json` substituted for the final extension
/// (`e16_manifest.json` → `e16_manifest.ckpt.json`). Passing a path that
/// already ends in `.ckpt.json` returns it unchanged, so `--resume` can
/// name either file.
pub fn checkpoint_path_for(manifest: &Path) -> PathBuf {
    let name = manifest
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    if name.ends_with(".ckpt.json") {
        return manifest.to_path_buf();
    }
    let stem = name.strip_suffix(".json").unwrap_or(&name);
    manifest.with_file_name(format!("{stem}.ckpt.json"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            fingerprint: CheckpointFingerprint::new(
                "e16",
                "quick",
                u64::MAX,
                &StopRule::new(6, 20, 0.20),
                8,
            ),
            cells: vec![
                CellCheckpoint {
                    index: 0,
                    key: "loss p=0 on grid d=2@6".to_string(),
                    status: CellStatus::Done,
                    times: vec![Some(12), None, Some(15)],
                    error: None,
                    wall_ms: 42,
                    retries: 1,
                    backoff_ms: vec![50],
                },
                CellCheckpoint {
                    index: 1,
                    key: "loss p=0 on grid d=2@8".to_string(),
                    status: CellStatus::Running,
                    times: vec![Some(20)],
                    error: None,
                    wall_ms: 0,
                    retries: 0,
                    backoff_ms: Vec::new(),
                },
            ],
        }
    }

    #[test]
    fn render_parse_round_trips() {
        let ckpt = sample();
        let parsed = Checkpoint::parse(&ckpt.render()).unwrap();
        assert_eq!(parsed, ckpt);
    }

    #[test]
    fn failed_cell_error_round_trips_with_escapes() {
        let mut ckpt = sample();
        ckpt.cells[1].status = CellStatus::Failed;
        ckpt.cells[1].error = Some("panicked: \"bad\"\nat line 3".to_string());
        let parsed = Checkpoint::parse(&ckpt.render()).unwrap();
        assert_eq!(parsed, ckpt);
    }

    #[test]
    fn full_range_seed_survives_round_trip() {
        let parsed = Checkpoint::parse(&sample().render()).unwrap();
        assert_eq!(parsed.fingerprint.seed, u64::MAX);
    }

    #[test]
    fn fingerprint_mismatch_names_the_field() {
        let a = sample().fingerprint;
        let mut b = a.clone();
        b.seed = 7;
        let err = a.ensure_matches(&b).unwrap_err();
        assert!(err.contains("seed mismatch"), "{err}");
        let mut c = a.clone();
        c.mode = "full".to_string();
        assert!(a.ensure_matches(&c).unwrap_err().contains("mode"));
        assert!(a.ensure_matches(&a.clone()).is_ok());
    }

    #[test]
    fn out_of_order_cells_rejected() {
        let mut ckpt = sample();
        ckpt.cells[1].index = 5;
        let err = Checkpoint::parse(&ckpt.render()).unwrap_err();
        assert!(err.contains("out of order"), "{err}");
    }

    #[test]
    fn pre_timing_checkpoint_parses_with_zero_timing() {
        // Checkpoints written before the timing fields existed (manifest
        // v2 era) omit wall_ms / retries / backoff_ms entirely; they must
        // still load, defaulting to zero, so --resume accepts them.
        let text = "{\n  \"schema\": \"cobra-bench/checkpoint-v1\",\n  \
                    \"experiment\": \"e16\",\n  \"mode\": \"quick\",\n  \"seed\": 7,\n  \
                    \"rule\": {\"min_trials\": 6, \"max_trials\": 20, \
                    \"rel_precision\": 0.2, \"confidence\": 0.95, \"batch\": 8},\n  \
                    \"cells\": [\n    {\"index\": 0, \"key\": \"a@6\", \
                    \"status\": \"done\", \"times\": [12, null]}\n  ]\n}\n";
        let ckpt = Checkpoint::parse(text).unwrap();
        assert_eq!(ckpt.cells[0].wall_ms, 0);
        assert_eq!(ckpt.cells[0].retries, 0);
        assert!(ckpt.cells[0].backoff_ms.is_empty());
        assert_eq!(ckpt.cells[0].times, vec![Some(12), None]);
    }

    #[test]
    fn wrong_schema_rejected() {
        let text = sample().render().replace("checkpoint-v1", "checkpoint-v9");
        assert!(Checkpoint::parse(&text).unwrap_err().contains("schema"));
    }

    #[test]
    fn checkpoint_path_derivation() {
        assert_eq!(
            checkpoint_path_for(Path::new("/tmp/out/e16_manifest.json")),
            PathBuf::from("/tmp/out/e16_manifest.ckpt.json")
        );
        assert_eq!(
            checkpoint_path_for(Path::new("/tmp/out/e16_manifest.ckpt.json")),
            PathBuf::from("/tmp/out/e16_manifest.ckpt.json")
        );
        assert_eq!(
            checkpoint_path_for(Path::new("run")),
            PathBuf::from("run.ckpt.json")
        );
    }

    #[test]
    fn write_is_loadable() {
        let dir = std::env::temp_dir().join(format!("cobra-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.ckpt.json");
        let ckpt = sample();
        ckpt.write(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), ckpt);
        // Load errors name the file.
        let missing = dir.join("absent.ckpt.json");
        let err = Checkpoint::load(&missing).unwrap_err();
        assert!(err.contains("absent.ckpt.json"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
