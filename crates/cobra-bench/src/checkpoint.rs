//! Crash-safe run checkpoints: the persisted per-cell adaptive state
//! that `--resume` replays.
//!
//! A run's checkpoint (schema `cobra-bench/checkpoint-v2`) lives next to
//! its manifest and is an append-only journal of JSON lines:
//!
//! * a **header** line with the schema and the run's fingerprint
//!   ([`CheckpointFingerprint`]): the experiment id, mode, master seed,
//!   stop rule, and batch size. Resume refuses a checkpoint whose
//!   fingerprint differs from the current invocation, because the trial
//!   streams would not line up;
//! * then one **cell line** per change to a cell's record
//!   ([`CellCheckpoint`]): its index in run order, its human-readable key
//!   (`"{sweep}@{scale}"`), its status, `from` (the offset in the cell's
//!   per-trial outcome stream that the line's `times` continue from), the
//!   new outcomes, the timing fields, and a failed cell's error. Folding
//!   the lines in order gives each cell its latest status and timing and
//!   its whole stream in global trial order. Feeding a `running` cell's
//!   stream back into the resumable runners continues it
//!   **bit-identically**; a `done` cell's stream is replayed through the
//!   stop rule without re-simulation.
//!
//! A run's first batch boundary publishes a snapshot (the header and one
//! line per cell from offset 0, as [`Checkpoint::render`] writes it) with
//! the atomic temp-file + rename writer, which also replaces any stale
//! checkpoint at that path. A resumed run publishes it at the first
//! boundary whose records reach the loaded checkpoint's count, so retrying
//! a quarantined cell never drops the done records after it. Every later
//! boundary appends only the lines of the cells that changed since the
//! previous one, with one write and one `fdatasync`
//! ([`cobra_sim::append_durable`]). A crash mid-append can leave a final
//! line without its newline; that append was never synced, so
//! [`Checkpoint::parse`] drops it and returns the state of the last synced
//! boundary. A complete line that does not parse, or that breaks the index
//! or `from` order, is an error: a checkpoint is never half-read.

use crate::json::{escape_str, Json};
use cobra_sim::StopRule;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The journal format's schema string, carried by the header line.
const SCHEMA: &str = "cobra-bench/checkpoint-v2";

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
    /// summed across attempts.
    pub wall_ms: u64,
    /// Attempts beyond the first (panic or watchdog retries).
    pub retries: u64,
    /// Backoff sleeps (ms) taken before each retry, in order.
    pub backoff_ms: Vec<u64>,
}

/// A whole checkpoint: fingerprint plus the cells reached so far.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// The run identity this checkpoint belongs to.
    pub fingerprint: CheckpointFingerprint,
    /// Cell records in run order (indices are contiguous from 0).
    pub cells: Vec<CellCheckpoint>,
}

/// Append the journal's header line for `f`.
fn push_header(out: &mut String, f: &CheckpointFingerprint) {
    // Writing to a String cannot fail.
    let _ = writeln!(
        out,
        "{{\"schema\": \"{SCHEMA}\", \"experiment\": \"{}\", \"mode\": \"{}\", \
         \"seed\": {}, \"rule\": {{\"min_trials\": {}, \"max_trials\": {}, \
         \"rel_precision\": {}, \"confidence\": {}, \"batch\": {}}}}}",
        escape_str(&f.id),
        escape_str(&f.mode),
        f.seed,
        f.min_trials,
        f.max_trials,
        f.rel_precision,
        f.confidence,
        f.batch
    );
}

/// Append one cell line: `c`'s status and timing, and its outcomes from
/// offset `from` on.
fn push_line(out: &mut String, c: &CellCheckpoint, from: usize) {
    let _ = write!(
        out,
        "{{\"index\": {}, \"key\": \"{}\", \"status\": \"{}\", \"from\": {from}, \"times\": [",
        c.index,
        escape_str(&c.key),
        c.status.as_str()
    );
    for (j, t) in c.times[from..].iter().enumerate() {
        let sep = if j == 0 { "" } else { ", " };
        let _ = match t {
            Some(steps) => write!(out, "{sep}{steps}"),
            None => write!(out, "{sep}null"),
        };
    }
    let _ = write!(
        out,
        "], \"wall_ms\": {}, \"retries\": {}, \"backoff_ms\": [",
        c.wall_ms, c.retries
    );
    for (j, b) in c.backoff_ms.iter().enumerate() {
        let _ = write!(out, "{}{b}", if j == 0 { "" } else { ", " });
    }
    out.push(']');
    if let Some(e) = &c.error {
        let _ = write!(out, ", \"error\": \"{}\"", escape_str(e));
    }
    out.push_str("}\n");
}

/// The error for a checkpoint whose schema this build does not read.
fn unsupported(schema: &str) -> String {
    format!(
        "unsupported checkpoint schema {schema:?}: this build reads {SCHEMA:?} journals only; \
         rerun without --resume"
    )
}

fn parse_header(line: &str) -> Result<CheckpointFingerprint, String> {
    let doc = Json::parse(line)?;
    let field = |key: &str| {
        doc.get(key)
            .ok_or_else(|| format!("checkpoint missing field {key:?}"))
    };
    let schema = field("schema")?.as_str().ok_or("schema is not a string")?;
    if schema != SCHEMA {
        return Err(unsupported(schema));
    }
    let rule = field("rule")?;
    let rule_field = |key: &str| {
        rule.get(key)
            .ok_or_else(|| format!("checkpoint rule missing field {key:?}"))
    };
    Ok(CheckpointFingerprint {
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
    })
}

/// Fold one cell line into `cells`. A line either opens the next cell
/// (`from` 0) or continues the last one while it is still `running`
/// (`from` at the end of its stream): cells finish in run order, and a
/// stream only grows.
fn fold_line(cells: &mut Vec<CellCheckpoint>, line: &str) -> Result<(), String> {
    let doc = Json::parse(line)?;
    let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing field {key:?}"));
    let index = field("index")?
        .as_usize()
        .ok_or("index is not an integer")?;
    let key = field("key")?.as_str().ok_or("key is not a string")?;
    let status = CellStatus::parse(field("status")?.as_str().ok_or("status is not a string")?)?;
    let from = field("from")?.as_usize().ok_or("from is not an integer")?;
    let mut times = Vec::new();
    for (j, t) in field("times")?
        .as_array()
        .ok_or("times is not an array")?
        .iter()
        .enumerate()
    {
        times.push(match t {
            Json::Null => None,
            t => Some(
                t.as_usize()
                    .ok_or_else(|| format!("times[{j}] is neither integer nor null"))?,
            ),
        });
    }
    let mut backoff_ms = Vec::new();
    for (j, b) in field("backoff_ms")?
        .as_array()
        .ok_or("backoff_ms is not an array")?
        .iter()
        .enumerate()
    {
        backoff_ms.push(
            b.as_u64()
                .ok_or_else(|| format!("backoff_ms[{j}] is not an integer"))?,
        );
    }
    let error = match doc.get("error") {
        Some(e) => Some(e.as_str().ok_or("error is not a string")?.to_string()),
        None => None,
    };
    let wall_ms = field("wall_ms")?
        .as_u64()
        .ok_or("wall_ms is not an integer")?;
    let retries = field("retries")?
        .as_u64()
        .ok_or("retries is not an integer")?;

    let next = cells.len();
    match cells.last_mut() {
        Some(cell) if cell.index == index => {
            if cell.status != CellStatus::Running {
                return Err(format!(
                    "cell records out of order: cell {index} is already final ({})",
                    cell.status.as_str()
                ));
            }
            if cell.key != key {
                return Err(format!(
                    "cell {index} changes key from {:?} to {key:?}",
                    cell.key
                ));
            }
            if from != cell.times.len() {
                return Err(format!(
                    "cell {index}: from {from} does not continue its {} recorded outcome(s)",
                    cell.times.len()
                ));
            }
            cell.status = status;
            cell.times.extend(times);
            cell.error = error;
            cell.wall_ms = wall_ms;
            cell.retries = retries;
            cell.backoff_ms = backoff_ms;
        }
        _ if index == next => {
            if from != 0 {
                return Err(format!(
                    "cell {index}: from {from} is past its empty stream"
                ));
            }
            cells.push(CellCheckpoint {
                index,
                key: key.to_string(),
                status,
                times,
                error,
                wall_ms,
                retries,
                backoff_ms,
            });
        }
        _ => {
            return Err(format!(
                "cell records out of order: index {index} after {next} cell(s)"
            ))
        }
    }
    Ok(())
}

impl Checkpoint {
    /// Render the checkpoint as a snapshot journal: the header line and
    /// one line per cell holding its whole stream.
    pub fn render(&self) -> String {
        let mut out = String::new();
        push_header(&mut out, &self.fingerprint);
        for c in &self.cells {
            push_line(&mut out, c, 0);
        }
        out
    }

    /// Parse a checkpoint journal by folding its complete lines. A final
    /// segment without its newline (an append that was never synced) is
    /// dropped; every complete line must parse and keep the index and
    /// `from` order.
    pub fn parse(text: &str) -> Result<Checkpoint, String> {
        let synced = &text[..text.rfind('\n').map_or(0, |end| end + 1)];
        let mut lines = synced.lines();
        let header = lines
            .next()
            .ok_or("checkpoint has no complete header line")?;
        let fingerprint = parse_header(header).map_err(|e| {
            // A pre-journal checkpoint is one multi-line JSON document;
            // name its schema rather than its first line's syntax error.
            match Json::parse(text) {
                Ok(doc) => match doc.get("schema").and_then(Json::as_str) {
                    Some(schema) => unsupported(schema),
                    None => format!("checkpoint header: {e}"),
                },
                Err(_) => format!("checkpoint header: {e}"),
            }
        })?;
        let mut cells = Vec::new();
        for (n, line) in lines.enumerate() {
            fold_line(&mut cells, line).map_err(|e| format!("line {}: {e}", n + 2))?;
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

    /// Write the checkpoint as a snapshot, atomically (temp + fsync +
    /// rename); an interrupted write leaves the previous checkpoint
    /// intact.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        cobra_sim::write_atomic_str(path, &self.render())
    }
}

/// The writer side of a run's checkpoint journal. It remembers what the
/// file holds, so each sync writes only the cell lines that changed.
#[derive(Debug)]
pub(crate) struct Journal {
    path: PathBuf,
    fingerprint: CheckpointFingerprint,
    /// `None` until this run publishes its snapshot. Then: how many
    /// cells the file holds in their final state, and how many outcomes
    /// it holds of the cell after them.
    synced: Option<(usize, usize)>,
    /// How many records the checkpoint this run resumed from holds (0 for
    /// a fresh run). The snapshot that replaces it waits until it holds
    /// as many, so no loaded record leaves the file.
    loaded: usize,
}

impl Journal {
    /// A journal at `path` for the run `fingerprint` names, resuming from
    /// a checkpoint of `loaded` records. Nothing is written until the
    /// first [`Journal::sync`] that holds them all.
    pub(crate) fn new(path: PathBuf, fingerprint: CheckpointFingerprint, loaded: usize) -> Self {
        Journal {
            path,
            fingerprint,
            synced: None,
            loaded,
        }
    }

    /// The checkpoint file.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Make the file hold `finished` (final records, in run order)
    /// followed by `in_flight` (the running cell, numbered
    /// `finished.len()`), with one flush, and say whether it wrote. The
    /// first sync publishes a snapshot; later ones append one line per
    /// record that changed since the previous sync. Records must only move
    /// forward between syncs: a synced final record never changes, and a
    /// running cell's stream only grows.
    ///
    /// A snapshot that would hold fewer records than the loaded checkpoint
    /// is deferred: nothing is written and the sync returns `false`. A
    /// resumed run that retries a quarantined cell thus leaves the file as
    /// it was, with the done records after that cell, until its own
    /// records reach them.
    pub(crate) fn sync(
        &mut self,
        finished: &[CellCheckpoint],
        in_flight: Option<&CellCheckpoint>,
    ) -> std::io::Result<bool> {
        if self.synced.is_none() && finished.len() + usize::from(in_flight.is_some()) < self.loaded
        {
            return Ok(false);
        }
        let mut lines = String::new();
        let (settled, mut from) = match self.synced {
            Some(synced) => synced,
            None => {
                push_header(&mut lines, &self.fingerprint);
                (0, 0)
            }
        };
        for cell in &finished[settled..] {
            push_line(&mut lines, cell, from);
            from = 0;
        }
        if let Some(cell) = in_flight {
            debug_assert_eq!(
                cell.index,
                finished.len(),
                "the running cell follows the finished ones"
            );
            push_line(&mut lines, cell, from);
        }
        match self.synced {
            Some(_) => cobra_sim::append_durable(&self.path, lines.as_bytes())?,
            None => cobra_sim::write_atomic_str(&self.path, &lines)?,
        }
        self.synced = Some((finished.len(), in_flight.map_or(0, |c| c.times.len())));
        Ok(true)
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
    fn v1_checkpoint_is_refused_naming_its_schema() {
        // The pre-journal format was one JSON document rewritten whole at
        // every boundary. A clean finish deletes its checkpoint, so only
        // an interrupted run leaves one; resuming it is refused by name
        // instead of being read by a second parser.
        let text = "{\n  \"schema\": \"cobra-bench/checkpoint-v1\",\n  \
                    \"experiment\": \"e16\",\n  \"mode\": \"quick\",\n  \"seed\": 7,\n  \
                    \"rule\": {\"min_trials\": 6, \"max_trials\": 20, \
                    \"rel_precision\": 0.2, \"confidence\": 0.95, \"batch\": 8},\n  \
                    \"cells\": [\n    {\"index\": 0, \"key\": \"a@6\", \
                    \"status\": \"done\", \"times\": [12, null]}\n  ]\n}\n";
        let err = Checkpoint::parse(text).unwrap_err();
        assert!(err.contains("\"cobra-bench/checkpoint-v1\""), "{err}");
        assert!(err.contains("unsupported checkpoint schema"), "{err}");
    }

    #[test]
    fn wrong_schema_rejected() {
        let text = sample().render().replace("checkpoint-v2", "checkpoint-v9");
        let err = Checkpoint::parse(&text).unwrap_err();
        assert!(err.contains("checkpoint-v9"), "{err}");
    }

    /// A cell record with the fields the journal tests vary.
    fn cell(
        index: usize,
        status: CellStatus,
        times: &[Option<usize>],
        wall_ms: u64,
    ) -> CellCheckpoint {
        CellCheckpoint {
            index,
            key: format!("loss p=0.{index} on grid d=2@8"),
            status,
            times: times.to_vec(),
            error: None,
            wall_ms,
            retries: 0,
            backoff_ms: Vec::new(),
        }
    }

    /// A journal built through real syncs: cell 0 runs over two
    /// boundaries and turns `done` before the third; cell 1 retries with
    /// backoff and is quarantined with an error; cell 2 finishes after
    /// the last boundary and reaches the file in the closing sync.
    /// Returns the file's text and the state after each of its lines (the
    /// header alone first), checking on the way that every sync appends.
    fn journal_run(tag: &str) -> (String, Vec<Checkpoint>) {
        let dir = std::env::temp_dir().join(format!("cobra-journal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.ckpt.json");
        let fingerprint = sample().fingerprint;
        let mut journal = Journal::new(path.clone(), fingerprint.clone(), 0);
        let state = |cells: &[CellCheckpoint]| Checkpoint {
            fingerprint: fingerprint.clone(),
            cells: cells.to_vec(),
        };
        let c0_done = cell(
            0,
            CellStatus::Done,
            &[Some(12), None, Some(15), Some(9), Some(20)],
            31,
        );
        let mut c1_retried = cell(1, CellStatus::Running, &[Some(7), Some(8), None], 70);
        c1_retried.retries = 1;
        c1_retried.backoff_ms = vec![50];
        let c1_failed = CellCheckpoint {
            status: CellStatus::Failed,
            error: Some("panicked: \"boom\"\nat line 3".to_string()),
            retries: 2,
            backoff_ms: vec![50, 100],
            ..c1_retried.clone()
        };
        // (finished, in-flight) at each sync.
        let syncs = [
            (
                vec![],
                Some(cell(0, CellStatus::Running, &[Some(12), None], 10)),
            ),
            (
                vec![],
                Some(cell(
                    0,
                    CellStatus::Running,
                    &[Some(12), None, Some(15), Some(9)],
                    20,
                )),
            ),
            (
                vec![c0_done.clone()],
                Some(cell(1, CellStatus::Running, &[Some(7)], 4)),
            ),
            (vec![c0_done.clone()], Some(c1_retried)),
            (
                vec![c0_done.clone(), c1_failed.clone()],
                Some(cell(2, CellStatus::Running, &[Some(3)], 2)),
            ),
            (
                vec![
                    c0_done,
                    c1_failed,
                    cell(2, CellStatus::Done, &[Some(3), Some(4), Some(5)], 6),
                ],
                None,
            ),
        ];
        let mut states = vec![state(&[])];
        let mut text = String::new();
        for (finished, in_flight) in &syncs {
            let final_in_file = states
                .last()
                .unwrap()
                .cells
                .iter()
                .filter(|c| c.status != CellStatus::Running)
                .count();
            assert!(journal.sync(finished, in_flight.as_ref()).unwrap());
            let now = std::fs::read_to_string(&path).unwrap();
            assert!(now.starts_with(&text), "a sync after the first appends");
            // One line per record that changed: the final records past
            // the ones already final in the file, then the running cell.
            for j in final_in_file..finished.len() {
                states.push(state(&finished[..=j]));
            }
            if let Some(c) = in_flight {
                let mut cells = finished.clone();
                cells.push(c.clone());
                states.push(state(&cells));
            }
            assert_eq!(now.lines().count(), states.len());
            text = now;
        }
        std::fs::remove_dir_all(&dir).ok();
        (text, states)
    }

    #[test]
    fn journal_parses_to_the_last_complete_line_at_every_cut() {
        let (text, states) = journal_run("cuts");
        assert_eq!(Checkpoint::parse(&text).unwrap(), *states.last().unwrap());
        for cut in 0..=text.len() {
            let complete = text[..cut].matches('\n').count();
            let parsed = Checkpoint::parse(&text[..cut]);
            if complete == 0 {
                assert!(parsed.is_err(), "a cut inside the header parsed: {cut}");
            } else {
                assert_eq!(parsed.unwrap(), states[complete - 1], "cut at byte {cut}");
            }
        }
    }

    #[test]
    fn journal_appends_only_what_changed() {
        let (text, _) = journal_run("lines");
        let lines: Vec<&str> = text.lines().collect();
        // Header; cell 0 running twice, then done; cell 1 opened, retried,
        // failed; cell 2 opened, done.
        assert_eq!(lines.len(), 9);
        assert!(
            lines[3].contains("\"status\": \"done\", \"from\": 4, \"times\": [20]"),
            "{}",
            lines[3]
        );
        assert!(
            lines[6].contains("\"status\": \"failed\", \"from\": 3, \"times\": []"),
            "{}",
            lines[6]
        );
        assert!(
            lines[6].contains("\"backoff_ms\": [50, 100]"),
            "{}",
            lines[6]
        );
        assert!(
            lines[8].starts_with(
                "{\"index\": 2, \"key\": \"loss p=0.2 on grid d=2@8\", \
                 \"status\": \"done\", \"from\": 1, \"times\": [4, 5]"
            ),
            "{}",
            lines[8]
        );
    }

    #[test]
    fn journal_rejects_corrupt_or_disordered_complete_lines() {
        let (text, _) = journal_run("corrupt");
        let lines: Vec<&str> = text.lines().collect();
        let with = |i: usize, line: &str| -> String {
            let mut out = lines.clone();
            out[i] = line;
            out.iter().flat_map(|l| [*l, "\n"]).collect()
        };
        // A torn line that later lines were appended after: corruption.
        let torn = &lines[2][..lines[2].len() / 2];
        let err = Checkpoint::parse(&with(2, torn)).unwrap_err();
        assert!(err.starts_with("line 3: "), "{err}");
        // A cell index that skips ahead, or goes back to a final cell.
        let skip = lines[4].replace("\"index\": 1", "\"index\": 2");
        assert!(Checkpoint::parse(&with(4, &skip))
            .unwrap_err()
            .contains("out of order"));
        let back = lines[7].replace("\"index\": 2", "\"index\": 1");
        let err = Checkpoint::parse(&with(7, &back)).unwrap_err();
        assert!(
            err.contains("out of order") && err.contains("final"),
            "{err}"
        );
        // A `from` past the recorded stream, or short of it.
        let past = lines[3].replace("\"from\": 4", "\"from\": 5");
        let err = Checkpoint::parse(&with(3, &past)).unwrap_err();
        assert!(err.contains("from 5 does not continue its 4"), "{err}");
        let short = lines[3].replace("\"from\": 4", "\"from\": 3");
        assert!(Checkpoint::parse(&with(3, &short)).is_err());
        let opens_late = lines[1].replace("\"from\": 0", "\"from\": 1");
        let err = Checkpoint::parse(&with(1, &opens_late)).unwrap_err();
        assert!(err.contains("past its empty stream"), "{err}");
        // A continuation that renames its cell.
        let renamed = lines[2].replace("p=0.0", "p=0.9");
        assert!(Checkpoint::parse(&with(2, &renamed))
            .unwrap_err()
            .contains("changes key"));
        // Missing or mistyped fields.
        let no_from = lines[2].replace("\"from\": 2, ", "");
        assert!(Checkpoint::parse(&with(2, &no_from))
            .unwrap_err()
            .contains("\"from\""));
        let bad_time = lines[2].replace("[15, 9]", "[15, \"x\"]");
        assert!(Checkpoint::parse(&with(2, &bad_time))
            .unwrap_err()
            .contains("times[1]"));
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
