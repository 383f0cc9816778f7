//! Adaptive experiment orchestration: one [`ExperimentSpec`] per binary,
//! one [`Orchestrator`] per run.
//!
//! The orchestrator is the glue between the adaptive trial engine in
//! `cobra-sim` and the experiment binaries: it owns the run-wide
//! [`StopRule`] envelope (scaled by `--quick` / default / `--full`),
//! runs whole sweeps or single cells through the batched adaptive
//! runners, keeps one record per cell, and at the end writes a JSON
//! **run manifest** next to the CSV/Markdown output: per cell, the
//! trials actually consumed, the censored count, the achieved CI
//! half-width, and whether the precision target was met. The manifest is
//! what makes an adaptive run auditable — a fixed-trial sweep's cost is
//! visible in its plan, an adaptive sweep's cost only in its record.
//!
//! ## Crash safety and fault tolerance
//!
//! A cell's record is its [`CellCheckpoint`]: key, status, consumed
//! per-trial outcome stream, error, and timing. Checkpoints persist the
//! records, and the manifest is rendered from them: a done cell's line
//! comes from its stream replayed through the stop rule
//! ([`replay_outcomes`]) on a fresh run exactly as on a resumed one.
//! Every cell runs through the resumable adaptive runners with a
//! checkpoint observer at each batch boundary:
//!
//! * **checkpointing** — when the run has a manifest destination, the
//!   per-cell adaptive state (the consumed per-trial outcome stream) is
//!   journaled to a sibling `.ckpt.json` file at every batch boundary
//!   with one flush: the run's first boundary publishes a snapshot
//!   atomically, and each later one appends only the lines of the
//!   records that changed since (see [`crate::checkpoint`]). A resumed
//!   run publishes its snapshot only once its records reach the loaded
//!   checkpoint's count, so retrying a quarantined cell keeps the done
//!   records after it on disk; the boundaries before that write nothing
//!   and `--halt-after-checkpoints` does not count them. `--resume`
//!   replays completed cells from the checkpoint without re-simulation
//!   and continues the interrupted cell **bit-identically** from its last
//!   synced boundary (per-trial outcomes depend only on the global trial
//!   index and the cell seed, and stop decisions are replayed per trial,
//!   so a resumed run's manifest is byte-identical to an uninterrupted
//!   one);
//! * **watchdog + retry** — each cell attempt has a wall-clock budget,
//!   checked at batch boundaries; a timed-out attempt keeps its consumed
//!   prefix and retries from it with a doubled budget, a bounded number
//!   of times (timing is non-deterministic but results are not: any
//!   consumed prefix resumes bit-identically);
//! * **panic quarantine** — a panicking cell is caught
//!   ([`std::panic::catch_unwind`]; the workspace does not build with
//!   `panic = "abort"`), retried with bounded backoff, and after the
//!   retry budget recorded as `failed` in the manifest instead of
//!   killing the whole run;
//! * **deterministic fault injection** — `--halt-after-checkpoints <n>`
//!   stops the run (exit code 3) right after the n-th synced boundary,
//!   which is how the kill-and-resume tests and the CI resume-smoke step
//!   exercise the recovery path without real `kill -9` races.
//!
//! ## Run telemetry
//!
//! The manifest (schema `cobra-bench/run-manifest-v3`) additionally
//! records per cell what the watchdog already measures: wall-clock
//! milliseconds summed across attempts, the retry count, and the
//! backoff history. Timing lives on its own JSON line per cell so the
//! bit-identity checks (resume tests, CI `cmp`) can strip it before
//! comparing — results stay deterministic, timing never is. With
//! `--trace <path>`, the orchestrator also records a span timeline
//! (`cobra-obs/trace-v1` JSONL: one span per cell attempt, batch
//! boundary, and retry backoff) that the `trace_view` binary renders
//! as a waterfall.

use crate::checkpoint::{
    checkpoint_path_for, CellCheckpoint, CellStatus, Checkpoint, CheckpointFingerprint, Journal,
};
use crate::cli::ExpConfig;
use crate::json::escape_str;
use cobra_core::TypedProcess;
use cobra_graph::{Graph, Vertex};
use cobra_obs::TraceDoc;
use cobra_sim::runner::AdaptiveOutcome;
use cobra_sim::{
    cell_seed, replay_outcomes, run_cover_trials_adaptive_auto_resumable,
    run_hitting_trials_adaptive_resumable, AdaptivePlan, BatchControl, EmptySummary,
    ResumableOutcome, StopRule, SweepCell, SweepRow, SweepTable,
};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One attempt of a cell's resumable adaptive runner: takes the consumed
/// per-trial prefix and a per-batch callback, returns the (possibly
/// halted) outcome.
type CellAttempt<'a> = &'a dyn Fn(
    Vec<Option<usize>>,
    &mut dyn FnMut(&[Option<usize>]) -> BatchControl,
) -> ResumableOutcome;

/// What an experiment run is: identity, claim, mode, master seed, and
/// the adaptive trial envelope every sweep in the run uses.
#[derive(Clone, Debug)]
pub struct ExperimentSpec {
    /// Experiment id (`"e1"`, `"e4"`, …) — names the manifest file when
    /// only a CSV directory is given.
    pub id: String,
    /// One-line claim the experiment checks.
    pub claim: String,
    /// Mode name (`"quick"` / `"ci"` / `"full"`), echoed into the
    /// manifest so recorded runs are self-describing.
    pub mode: String,
    /// Master seed for the run (sweeps derive their own streams).
    pub seed: u64,
    /// Sequential stopping envelope for every adaptive sweep/cell.
    pub rule: StopRule,
    /// Trials launched in parallel between CI consultations.
    pub batch: usize,
}

impl ExperimentSpec {
    /// The default adaptive envelope for a mode:
    ///
    /// * `--quick` — a handful of trials at loose precision (smoke);
    /// * default (CI) — stop at 4% relative CI half-width, 10..=120
    ///   trials per cell;
    /// * `--full` — 2% half-width, 24..=400 trials per cell.
    ///
    /// Easy (low-variance) cells stop at the minimum; hard cells run
    /// until the CI is tight or the cap is hit, and the manifest records
    /// which happened.
    pub fn from_config(id: &str, claim: &str, cfg: &ExpConfig) -> Self {
        let (rule, batch) = if cfg.full {
            (StopRule::new(24, 400, 0.02), 32)
        } else if cfg.quick {
            (StopRule::new(6, 20, 0.20), 8)
        } else {
            (StopRule::new(10, 120, 0.04), 16)
        };
        ExperimentSpec {
            id: id.to_string(),
            claim: claim.to_string(),
            mode: cfg.mode_name().to_string(),
            seed: cfg.seed,
            rule,
            batch,
        }
    }

    /// Override the stopping envelope (builder style) — binaries whose
    /// cells are unusually expensive (e8's lollipop baseline) or whose
    /// comparisons need unusually tight means (e7's dominance check)
    /// tune the defaults.
    pub fn with_rule(mut self, rule: StopRule) -> Self {
        self.rule = rule;
        self
    }

    /// An [`AdaptivePlan`] of this spec at a given step budget and
    /// master seed.
    pub fn plan(&self, max_steps: usize, master_seed: u64) -> AdaptivePlan {
        AdaptivePlan::new(self.rule, self.batch, max_steps, master_seed)
    }
}

/// How a robustly-run cell ended (when the run itself was not halted).
#[derive(Clone, Debug)]
pub enum CellOutcome {
    /// The cell's adaptive run completed; its outcome is usable.
    Done(AdaptiveOutcome),
    /// The cell was quarantined (panic or watchdog timeout after the
    /// retry budget); it is recorded `failed` in the manifest and the
    /// run continues without its row.
    Failed(String),
}

/// The run was deliberately halted by `--halt-after-checkpoints`. The
/// checkpoint left on disk resumes it bit-identically.
#[derive(Clone, Debug)]
pub struct Interrupted {
    /// Checkpoint boundaries synced before halting.
    pub checkpoints: usize,
    /// Key (`"{sweep}@{scale}"`) of the cell that was in flight.
    pub cell: String,
    /// The checkpoint file left on disk.
    pub checkpoint: Option<PathBuf>,
    /// Preferred `--resume` argument: the manifest path when the run has
    /// one (resuming via the manifest re-arms the manifest destination),
    /// else the checkpoint path.
    pub resume_from: Option<PathBuf>,
}

impl Interrupted {
    /// Print the resume hint and exit with code 3 — the halt code the
    /// kill-and-resume tests and the CI resume-smoke step assert on.
    pub fn exit(&self) -> ! {
        eprintln!(
            "run halted after {} checkpoint write(s) at cell {:?}{}",
            self.checkpoints,
            self.cell,
            match self.resume_from.as_ref().or(self.checkpoint.as_ref()) {
                Some(p) => format!("; resume with --resume {}", p.display()),
                None => String::new(),
            }
        );
        std::process::exit(3);
    }
}

enum HaltReason {
    /// `--halt-after-checkpoints` budget reached.
    External,
    /// The cell attempt exceeded its wall-clock budget.
    Watchdog,
}

/// Crash-safety state of one run: checkpoint journal, resume data, the
/// per-cell records, and the fault-handling knobs.
#[derive(Debug)]
struct Recovery {
    /// The checkpoint journal, when the run has a manifest destination.
    journal: Option<Journal>,
    manifest_hint: Option<PathBuf>,
    prior: Vec<CellCheckpoint>,
    /// One record per finished cell, in run order: the only record of a
    /// cell. Checkpoints persist these, and the manifest is rendered
    /// from them.
    records: Vec<CellCheckpoint>,
    checkpoints_written: usize,
    halt_after: Option<usize>,
    watchdog_budget: Duration,
    watchdog_retries: usize,
    poisoned: HashSet<String>,
}

impl Default for Recovery {
    fn default() -> Self {
        Recovery {
            journal: None,
            manifest_hint: None,
            prior: Vec::new(),
            records: Vec::new(),
            checkpoints_written: 0,
            halt_after: None,
            // Generous per-attempt default: experiment cells run seconds
            // to a few minutes; a cell stuck for 10 minutes is wedged,
            // not slow. Two retries with doubled budgets give a genuinely
            // slow cell 70 minutes in total before quarantine.
            watchdog_budget: Duration::from_secs(600),
            watchdog_retries: 2,
            poisoned: HashSet::new(),
        }
    }
}

/// Runs adaptive sweeps/cells for one experiment and keeps one record
/// per cell; [`Orchestrator::finish`] renders the manifest from them.
#[derive(Debug)]
pub struct Orchestrator {
    spec: ExperimentSpec,
    recovery: Recovery,
    /// Zero point for span timestamps (milliseconds since run start).
    run_started: Instant,
    /// Span timeline, armed by `--trace`; `None` costs nothing.
    trace: Option<TraceDoc>,
    trace_path: Option<PathBuf>,
}

fn fatal(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

/// A finished cell's outcome; a quarantined cell or a halt exits the
/// process (codes 1 and 3).
fn done_or_exit(sweep: &str, scale: f64, run: Result<CellOutcome, Interrupted>) -> AdaptiveOutcome {
    match run {
        Ok(CellOutcome::Done(out)) => out,
        Ok(CellOutcome::Failed(e)) => {
            fatal(&format!("cell \"{sweep}@{scale}\" failed permanently: {e}"))
        }
        Err(i) => i.exit(),
    }
}

/// Write a run artifact atomically, creating its parent directory; a
/// failure exits nonzero naming the file.
fn write_artifact(what: &str, path: &Path, text: &str) {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                fatal(&format!("cannot create {}: {e}", parent.display()));
            }
        }
    }
    if let Err(e) = cobra_sim::write_atomic_str(path, text) {
        fatal(&format!("failed to write {what} {}: {e}", path.display()));
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Orchestrator {
    /// Start a run with no checkpoint destination (in-process use and
    /// tests). Binaries should use [`Orchestrator::for_run`], which
    /// wires up checkpointing, `--resume`, and `--halt-after-checkpoints`.
    pub fn new(spec: ExperimentSpec) -> Self {
        Orchestrator {
            spec,
            recovery: Recovery::default(),
            run_started: Instant::now(),
            trace: None,
            trace_path: None,
        }
    }

    /// Start a run wired to the config's crash-safety flags: derives the
    /// checkpoint path from the manifest destination, arms
    /// `--halt-after-checkpoints`, and loads + validates a `--resume`
    /// checkpoint. Exits with a contextual message on a config error
    /// (missing/mismatched checkpoint) — the binaries' convention.
    pub fn for_run(spec: ExperimentSpec, cfg: &ExpConfig) -> Self {
        match Self::try_for_run(spec, cfg) {
            Ok(orch) => orch,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }

    /// [`Orchestrator::for_run`] returning errors instead of exiting.
    pub fn try_for_run(spec: ExperimentSpec, cfg: &ExpConfig) -> Result<Self, String> {
        let mut orch = Orchestrator::new(spec);
        let fingerprint = orch.fingerprint();
        orch.recovery.manifest_hint = orch.manifest_path(cfg);
        orch.recovery.halt_after = cfg.halt_after_checkpoints;
        if let Some(trace) = &cfg.trace {
            orch.trace_path = Some(trace.clone());
            orch.trace = Some(TraceDoc::new());
        }
        if cfg.halt_after_checkpoints.is_some() && orch.recovery.manifest_hint.is_none() {
            return Err("--halt-after-checkpoints needs a checkpoint destination; \
                 pass --manifest <path> or --csv <dir>"
                .to_string());
        }
        if let Some(resume) = &cfg.resume {
            let ckpt_path = checkpoint_path_for(resume);
            let ckpt = Checkpoint::load(&ckpt_path)?;
            ckpt.fingerprint
                .ensure_matches(&fingerprint)
                .map_err(|e| format!("cannot resume from {}: {e}", ckpt_path.display()))?;
            println!(
                "resuming from {} ({} cell record(s))",
                ckpt_path.display(),
                ckpt.cells.len()
            );
            orch.recovery.prior = ckpt.cells;
        }
        let loaded = orch.recovery.prior.len();
        orch.recovery.journal = orch
            .recovery
            .manifest_hint
            .as_ref()
            .map(|m| Journal::new(checkpoint_path_for(m), fingerprint, loaded));
        Ok(orch)
    }

    /// Override the per-cell watchdog: wall-clock budget per attempt
    /// (checked at batch boundaries, doubled on each retry) and the
    /// number of retries before a cell is quarantined.
    pub fn with_watchdog(mut self, budget: Duration, retries: usize) -> Self {
        self.recovery.watchdog_budget = budget;
        self.recovery.watchdog_retries = retries;
        self
    }

    /// Deterministic fault injection: the cell with this key (format
    /// `"{sweep}@{scale}"`) panics at the start of every attempt,
    /// exercising the quarantine path end to end. Wired to e16's
    /// `--poison-cell` flag.
    pub fn poison_cell(&mut self, key: impl Into<String>) {
        self.recovery.poisoned.insert(key.into());
    }

    /// Milliseconds since the run started — the span timestamp base.
    fn elapsed_ms(&self) -> u64 {
        self.run_started.elapsed().as_millis() as u64
    }

    /// Record a span from `start_ms` until now, if tracing is armed.
    fn record_span(&mut self, kind: &str, name: &str, start_ms: u64) {
        let end = self.elapsed_ms();
        if let Some(tr) = self.trace.as_mut() {
            tr.push_span(kind, name, start_ms, end);
        }
    }

    fn fingerprint(&self) -> CheckpointFingerprint {
        CheckpointFingerprint::new(
            &self.spec.id,
            &self.spec.mode,
            self.spec.seed,
            &self.spec.rule,
            self.spec.batch,
        )
    }

    /// Run a whole cover sweep adaptively (each cell under its own step
    /// budget) and record every cell in the manifest. Cell `i` is seeded
    /// with `cell_seed(master_seed, i)` ([`cell_seed`]), so its stream is
    /// a plain [`run_cover_trials_adaptive_auto_resumable`] run's and
    /// pre-existing manifests keep their numbers. Quarantined cells stay
    /// in the manifest as `failed` but produce no table row; a halt exits
    /// with code 3.
    pub fn cover_sweep(
        &mut self,
        label: impl Into<String>,
        scale_name: impl Into<String>,
        cells: impl IntoIterator<Item = SweepCell>,
        process: &impl TypedProcess,
        master_seed: u64,
    ) -> Result<SweepTable, EmptySummary> {
        let label = label.into();
        let mut table = SweepTable::new(label.clone(), scale_name);
        for (cell_idx, cell) in cells.into_iter().enumerate() {
            let seed = cell_seed(master_seed, cell_idx);
            let outcome = self
                .try_cover_cell(
                    &label,
                    cell.scale,
                    &cell.graph,
                    process,
                    cell.start,
                    cell.max_steps,
                    seed,
                )
                .unwrap_or_else(|i| i.exit());
            if let CellOutcome::Done(out) = outcome {
                table.push(SweepRow::try_from_summary(
                    cell.scale,
                    &out.summary,
                    out.censored,
                )?);
            }
        }
        Ok(table)
    }

    /// Measure one cover cell adaptively and record it. Routes through
    /// the engine-selection heuristic: small lane-friendly cells use the
    /// bit-sliced 64-lane engine, everything else the scratch engine.
    /// A quarantined cell or a halt exits the process (codes 1 and 3);
    /// use [`Orchestrator::try_cover_cell`] to handle those yourself.
    #[allow(clippy::too_many_arguments)] // mirrors the runners' cell shape
    pub fn cover_cell(
        &mut self,
        sweep: &str,
        scale: f64,
        g: &Graph,
        process: &impl TypedProcess,
        start: Vertex,
        max_steps: usize,
        master_seed: u64,
    ) -> AdaptiveOutcome {
        let run = self.try_cover_cell(sweep, scale, g, process, start, max_steps, master_seed);
        done_or_exit(sweep, scale, run)
    }

    /// Fault-aware cover cell: checkpointed at batch boundaries,
    /// panic-quarantined, watchdog-retried, and resumed from a prior
    /// record when `--resume` loaded one.
    #[allow(clippy::too_many_arguments)] // mirrors the runners' cell shape
    pub fn try_cover_cell(
        &mut self,
        sweep: &str,
        scale: f64,
        g: &Graph,
        process: &impl TypedProcess,
        start: Vertex,
        max_steps: usize,
        master_seed: u64,
    ) -> Result<CellOutcome, Interrupted> {
        let plan = self.spec.plan(max_steps, master_seed);
        self.run_cell_robust(sweep, scale, &|prior, on_batch| {
            run_cover_trials_adaptive_auto_resumable(g, process, start, &plan, prior, on_batch)
        })
    }

    /// Measure one hitting cell adaptively and record it, with the
    /// robustness of [`Orchestrator::try_cover_cell`] and the exit
    /// behavior of [`Orchestrator::cover_cell`].
    #[allow(clippy::too_many_arguments)] // mirrors the runners' cell shape
    pub fn hitting_cell(
        &mut self,
        sweep: &str,
        scale: f64,
        g: &Graph,
        process: &impl TypedProcess,
        start: Vertex,
        target: Vertex,
        max_steps: usize,
        master_seed: u64,
    ) -> AdaptiveOutcome {
        let plan = self.spec.plan(max_steps, master_seed);
        let run = self.run_cell_robust(sweep, scale, &|prior, on_batch| {
            run_hitting_trials_adaptive_resumable(g, process, start, target, &plan, prior, on_batch)
        });
        done_or_exit(sweep, scale, run)
    }

    /// The robust per-cell core: resume, checkpoint, watchdog, retry,
    /// quarantine. `run` executes one attempt of the cell's resumable
    /// adaptive runner from a consumed prefix.
    fn run_cell_robust(
        &mut self,
        sweep: &str,
        scale: f64,
        run: CellAttempt<'_>,
    ) -> Result<CellOutcome, Interrupted> {
        // Records are kept in run order and a run stops at an interrupted
        // cell, so the records reached so far number this cell.
        let index = self.recovery.records.len();
        let key = format!("{sweep}@{scale}");
        let cell_start_ms = self.elapsed_ms();

        // The cell's record. Resume replays a done cell without
        // re-simulation and continues a running (or retries a failed)
        // cell from its recorded prefix; either way the recorded timing
        // carries forward so the manifest totals cover the
        // pre-interruption attempts too.
        let mut record = match self.recovery.prior.get(index).cloned() {
            Some(rec) if rec.key != key => fatal(&format!(
                "resume mismatch at cell {index}: checkpoint recorded {:?}, this run \
                 produced {key:?} — the checkpoint belongs to a different run",
                rec.key
            )),
            Some(rec) if rec.status == CellStatus::Done => {
                let outcome = replay_outcomes(&self.spec.rule, &rec.times);
                self.recovery.records.push(rec);
                self.record_span("cell", &key, cell_start_ms);
                return Ok(CellOutcome::Done(outcome));
            }
            Some(rec) => CellCheckpoint {
                status: CellStatus::Running,
                error: None,
                ..rec
            },
            None => CellCheckpoint {
                index,
                key: key.clone(),
                status: CellStatus::Running,
                times: Vec::new(),
                error: None,
                wall_ms: 0,
                retries: 0,
                backoff_ms: Vec::new(),
            },
        };

        let poisoned = self.recovery.poisoned.contains(&key);
        let retries = self.recovery.watchdog_retries;
        let mut budget = self.recovery.watchdog_budget;
        let mut attempt = 0usize;

        loop {
            let prior = record.times.clone();
            let started = Instant::now();
            let wall_before = record.wall_ms;
            let mut halt_reason: Option<HaltReason> = None;
            let mut batch_start_ms = self.elapsed_ms();
            let mut on_batch = |times: &[Option<usize>]| -> BatchControl {
                // Keep the consumed prefix in the record regardless of a
                // checkpoint destination: watchdog/panic retries resume
                // from it even without a file. The runner passes the
                // whole prefix, which starts with what the record holds.
                debug_assert!(times.starts_with(&record.times));
                let have = record.times.len();
                record.times.extend_from_slice(&times[have..]);
                record.wall_ms = wall_before + started.elapsed().as_millis() as u64;
                if let Some(tr) = self.trace.as_mut() {
                    let now = self.run_started.elapsed().as_millis() as u64;
                    tr.push_span("batch", &key, batch_start_ms, now);
                    batch_start_ms = now;
                }
                if let Some(journal) = self.recovery.journal.as_mut() {
                    let synced = match journal.sync(&self.recovery.records, Some(&record)) {
                        Ok(synced) => synced,
                        Err(e) => fatal(&format!(
                            "cannot write checkpoint {} while running cell {key:?}: {e}",
                            journal.path().display()
                        )),
                    };
                    // A deferred boundary (a resumed run short of its
                    // loaded records) writes nothing and is not counted.
                    if synced {
                        self.recovery.checkpoints_written += 1;
                        if let Some(n) = self.recovery.halt_after {
                            if self.recovery.checkpoints_written >= n {
                                halt_reason = Some(HaltReason::External);
                                return BatchControl::Halt;
                            }
                        }
                    }
                }
                if started.elapsed() > budget {
                    halt_reason = Some(HaltReason::Watchdog);
                    return BatchControl::Halt;
                }
                BatchControl::Continue
            };
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if poisoned {
                    panic!("injected fault: cell {key:?} poisoned via --poison-cell");
                }
                run(prior, &mut on_batch)
            }));
            record.wall_ms = wall_before + started.elapsed().as_millis() as u64;

            // A halted or panicked attempt leaves its last consumed prefix
            // in the record, and the retry resumes from it.
            let error = match result {
                Ok(out) if !out.halted => {
                    record.times = out.times;
                    record.status = CellStatus::Done;
                    self.recovery.records.push(record);
                    self.record_span("cell", &key, cell_start_ms);
                    return Ok(CellOutcome::Done(out.outcome));
                }
                Ok(_) => match halt_reason {
                    Some(HaltReason::External) | None => {
                        self.record_span("cell", &key, cell_start_ms);
                        let checkpoint = self
                            .recovery
                            .journal
                            .as_ref()
                            .map(|j| j.path().to_path_buf());
                        return Err(Interrupted {
                            checkpoints: self.recovery.checkpoints_written,
                            cell: key,
                            resume_from: self.recovery.manifest_hint.clone().or(checkpoint.clone()),
                            checkpoint,
                        });
                    }
                    Some(HaltReason::Watchdog) => {
                        let msg = format!(
                            "watchdog: cell exceeded its {:.3}s attempt budget after {} \
                             attempt(s)",
                            budget.as_secs_f64(),
                            attempt + 1
                        );
                        budget *= 2;
                        msg
                    }
                },
                Err(payload) => format!("panicked: {}", panic_message(payload)),
            };
            if attempt >= retries {
                self.record_span("cell", &key, cell_start_ms);
                eprintln!("cell {key:?} quarantined: {error}");
                // The consumed prefix is kept so a later --resume retries
                // the cell from where it stood, not from scratch.
                record.status = CellStatus::Failed;
                record.error = Some(error.clone());
                self.recovery.records.push(record);
                return Ok(CellOutcome::Failed(error));
            }
            attempt += 1;
            record.retries += 1;
            // Bounded backoff between attempts, recorded in the timing
            // block (and as a retry span when tracing).
            let backoff = Duration::from_millis(25u64 << attempt.min(6));
            record.backoff_ms.push(backoff.as_millis() as u64);
            let retry_start_ms = self.elapsed_ms();
            std::thread::sleep(backoff);
            self.record_span("retry", &key, retry_start_ms);
        }
    }

    /// Every recorded cell with its adaptive outcome: a done cell's
    /// stream replayed through the rule, exactly as `--resume` replays
    /// it, and a failed cell's as an empty stream.
    fn outcomes(&self) -> impl Iterator<Item = (&CellCheckpoint, AdaptiveOutcome)> + '_ {
        self.recovery.records.iter().map(|rec| {
            let times: &[Option<usize>] = match rec.status {
                CellStatus::Done => &rec.times,
                CellStatus::Failed | CellStatus::Running => &[],
            };
            (rec, replay_outcomes(&self.spec.rule, times))
        })
    }

    /// Total trials consumed so far across all recorded cells.
    pub fn total_trials(&self) -> usize {
        self.recovery
            .records
            .iter()
            .filter(|r| r.status == CellStatus::Done)
            .map(|r| r.times.len())
            .sum()
    }

    /// Cells that met the precision target so far.
    pub fn precise_cells(&self) -> usize {
        self.outcomes().filter(|(_, out)| out.precision_met).count()
    }

    /// Cells quarantined as failed so far.
    pub fn failed_cells(&self) -> usize {
        self.recovery
            .records
            .iter()
            .filter(|r| r.status == CellStatus::Failed)
            .count()
    }

    /// Render the run manifest as JSON (hand-rolled, like the bench
    /// baselines — no serde in the workspace), one line per cell record.
    pub fn render_manifest(&self) -> String {
        self.manifest_and_precise().0
    }

    /// The run manifest and its count of cells that met the precision
    /// target, from one replay of each done cell's stream.
    fn manifest_and_precise(&self) -> (String, usize) {
        let r = &self.spec.rule;
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"cobra-bench/run-manifest-v3\",\n");
        out.push_str(&format!(
            "  \"experiment\": \"{}\",\n  \"claim\": \"{}\",\n  \"mode\": \"{}\",\n  \"seed\": {},\n",
            escape_str(&self.spec.id),
            escape_str(&self.spec.claim),
            escape_str(&self.spec.mode),
            self.spec.seed
        ));
        out.push_str(&format!(
            "  \"rule\": {{\"min_trials\": {}, \"max_trials\": {}, \"rel_precision\": {}, \
             \"confidence\": {}, \"batch\": {}}},\n",
            r.min_trials, r.max_trials, r.rel_precision, r.confidence, self.spec.batch
        ));
        out.push_str("  \"cells\": [\n");
        let cells = self.recovery.records.len();
        let (mut censored, mut precise) = (0, 0);
        for (i, (rec, cell)) in self.outcomes().enumerate() {
            // A key is "{sweep}@{scale}", the scale printed as the
            // manifest prints it, and a scale never contains '@'.
            let (sweep, scale) = rec
                .key
                .rsplit_once('@')
                .expect("a cell key is \"{sweep}@{scale}\"");
            // Half-widths are 0 when no trial completed or the mean is 0.
            let (mean, half, rel) = match cell.summary.try_mean() {
                Ok(m) if m != 0.0 => {
                    let half = cell.summary.ci_half_width(r.confidence);
                    (format!("{m:.4}"), half, half / m.abs())
                }
                Ok(m) => (format!("{m:.4}"), 0.0, 0.0),
                Err(EmptySummary) => ("null".to_string(), 0.0, 0.0),
            };
            censored += cell.censored;
            precise += usize::from(cell.precision_met);
            let error = match &rec.error {
                Some(e) => format!(", \"error\": \"{}\"", escape_str(e)),
                None => String::new(),
            };
            // The deterministic result fields and the wall-clock timing
            // live on separate lines: the bit-identity checks (resume
            // test, CI manifest `cmp`) strip lines containing "timing"
            // before comparing.
            let backoff: Vec<String> = rec.backoff_ms.iter().map(|b| b.to_string()).collect();
            out.push_str(&format!(
                "    {{\"sweep\": \"{}\", \"scale\": {}, \"status\": \"{}\", \
                 \"trials_used\": {}, \"completed\": {}, \"censored\": {}, \"mean\": {}, \
                 \"ci_half_width\": {:.6}, \"rel_half_width\": {:.6}, \
                 \"precision_met\": {}{},\n",
                escape_str(sweep),
                scale,
                rec.status.as_str(),
                cell.trials_run(),
                cell.summary.count(),
                cell.censored,
                mean,
                half,
                rel,
                cell.precision_met,
                error
            ));
            out.push_str(&format!(
                "     \"timing\": {{\"wall_ms\": {}, \"retries\": {}, \
                 \"backoff_ms\": [{}]}}}}{}\n",
                rec.wall_ms,
                rec.retries,
                backoff.join(", "),
                if i + 1 < cells { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"totals\": {{\"cells\": {}, \"trials_used\": {}, \"censored\": {}, \
             \"precision_met_cells\": {}, \"failed_cells\": {}}}\n",
            cells,
            self.total_trials(),
            censored,
            precise,
            self.failed_cells()
        ));
        out.push_str("}\n");
        (out, precise)
    }

    /// Where the manifest goes for a config: the explicit `--manifest`
    /// path, else `<csv_dir>/<id>_manifest.json`, else nowhere.
    pub fn manifest_path(&self, cfg: &ExpConfig) -> Option<PathBuf> {
        cfg.manifest.clone().or_else(|| {
            cfg.csv_dir
                .as_ref()
                .map(|d| d.join(format!("{}_manifest.json", self.spec.id)))
        })
    }

    /// Print the run's cost line and write the JSON manifest (if the
    /// config names a destination). Call once, after the last sweep.
    ///
    /// Manifest writes are atomic; a write failure exits nonzero naming
    /// the file. A fully successful run deletes its checkpoint (nothing
    /// left to resume); a run with quarantined cells brings its checkpoint
    /// up to its last record instead so `--resume` can retry them.
    pub fn finish(mut self, cfg: &ExpConfig) {
        let cells = self.recovery.records.len();
        let (manifest, precise) = self.manifest_and_precise();
        println!(
            "adaptive run: {} cells, {} trials consumed, {}/{} cells met \
             the {:.1}% half-width target",
            cells,
            self.total_trials(),
            precise,
            cells,
            self.spec.rule.rel_precision * 100.0
        );
        let failed = self.failed_cells();
        if failed > 0 {
            eprintln!("{failed} cell(s) quarantined as failed — see the manifest");
        }
        if let (Some(path), Some(trace)) = (&self.trace_path, &self.trace) {
            write_artifact("trace", path, &trace.render());
            println!("(span timeline written to {})", path.display());
        }
        if let Some(path) = self.manifest_path(cfg) {
            write_artifact("manifest", &path, &manifest);
            println!("(run manifest written to {})", path.display());
            if let Some(journal) = self.recovery.journal.as_mut() {
                if failed == 0 {
                    // A completed run has nothing to resume; a stale
                    // checkpoint would only confuse the next invocation.
                    std::fs::remove_file(journal.path()).ok();
                } else {
                    if let Err(e) = journal.sync(&self.recovery.records, None) {
                        fatal(&format!(
                            "failed to write final checkpoint {}: {e}",
                            journal.path().display()
                        ));
                    }
                    eprintln!(
                        "(checkpoint kept at {} — --resume retries the failed cell(s))",
                        journal.path().display()
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_core::{CobraWalk, FaultPlan, FaultyCobraWalk, SimpleWalk};
    use cobra_graph::generators::classic;

    fn ci_cfg() -> ExpConfig {
        ExpConfig::default()
    }

    #[test]
    fn spec_modes_scale_the_envelope() {
        let quick = ExperimentSpec::from_config(
            "eX",
            "c",
            &ExpConfig {
                quick: true,
                ..ExpConfig::default()
            },
        );
        let ci = ExperimentSpec::from_config("eX", "c", &ci_cfg());
        let full = ExperimentSpec::from_config(
            "eX",
            "c",
            &ExpConfig {
                full: true,
                ..ExpConfig::default()
            },
        );
        assert!(quick.rule.max_trials < ci.rule.max_trials);
        assert!(ci.rule.max_trials < full.rule.max_trials);
        assert!(quick.rule.rel_precision > ci.rule.rel_precision);
        assert!(ci.rule.rel_precision > full.rule.rel_precision);
        assert_eq!(quick.mode, "quick");
        assert_eq!(ci.mode, "ci");
        assert_eq!(full.mode, "full");
    }

    #[test]
    fn cell_runs_record_into_manifest() {
        let spec = ExperimentSpec::from_config("eT", "test claim", &ci_cfg());
        let mut orch = Orchestrator::new(spec);
        let g = classic::complete(12).unwrap();
        let out = orch.cover_cell("k12", 12.0, &g, &CobraWalk::standard(), 0, 10_000, 7);
        assert!(out.precision_met);
        assert_eq!(orch.recovery.records.len(), 1);
        assert_eq!(orch.total_trials(), out.trials_run());
        assert_eq!(orch.precise_cells(), 1);
        let json = orch.render_manifest();
        assert!(json.contains("\"schema\": \"cobra-bench/run-manifest-v3\""));
        assert!(json.contains("\"sweep\": \"k12\""));
        assert!(json.contains("\"status\": \"done\""));
        assert!(json.contains("\"precision_met\": true"));
        assert!(json.contains("\"experiment\": \"eT\""));
        // Per-cell timing rides on its own line so determinism checks
        // can strip it.
        assert!(json.contains("\"timing\": {\"wall_ms\": "));
        assert!(json.contains("\"retries\": 0"));
    }

    #[test]
    fn sweep_runs_record_every_cell() {
        let spec = ExperimentSpec::from_config("eS", "sweep claim", &ci_cfg());
        let mut orch = Orchestrator::new(spec);
        let cells = [8usize, 12]
            .map(|n| SweepCell::new(n as f64, classic::cycle(n).unwrap(), 0u32, 50_000));
        let t = orch
            .cover_sweep("cobra on cycle", "n", cells, &CobraWalk::standard(), 3)
            .unwrap();
        assert_eq!(t.rows.len(), 2);
        assert_eq!(orch.recovery.records.len(), 2);
        // Adaptive trial counts land inside the envelope.
        for c in &orch.recovery.records {
            assert!(c.times.len() >= orch.spec.rule.min_trials);
            assert!(c.times.len() <= orch.spec.rule.max_trials);
        }
    }

    #[test]
    fn robust_sweep_matches_legacy_sweep_streams() {
        // The robust per-cell path must reproduce the exact numbers of a
        // plain adaptive run of each cell (same cell seeds, same engine
        // routing) — otherwise pre-existing manifests would shift.
        let spec = ExperimentSpec::from_config("eQ", "c", &ci_cfg());
        let make_cells = || {
            [8usize, 12, 16]
                .map(|n| SweepCell::new(n as f64, classic::cycle(n).unwrap(), 0, 50_000))
        };
        let mut orch = Orchestrator::new(spec.clone());
        let robust = orch
            .cover_sweep(
                "cobra on cycle",
                "n",
                make_cells(),
                &CobraWalk::standard(),
                5,
            )
            .unwrap();
        assert_eq!(robust.rows.len(), 3);
        for (cell_idx, (a, cell)) in robust.rows.iter().zip(make_cells()).enumerate() {
            let plan = spec.plan(cell.max_steps, cell_seed(5, cell_idx));
            let out = run_cover_trials_adaptive_auto_resumable(
                &cell.graph,
                &CobraWalk::standard(),
                cell.start,
                &plan,
                Vec::new(),
                |_| BatchControl::Continue,
            )
            .outcome;
            let b = SweepRow::from_summary(cell.scale, &out.summary, out.censored);
            assert_eq!(a.mean, b.mean);
            assert_eq!(a.trials, b.trials);
            assert_eq!(a.p95, b.p95);
        }
    }

    #[test]
    fn poisoned_cell_is_quarantined_and_the_run_continues() {
        let spec = ExperimentSpec::from_config(
            "eP",
            "poison",
            &ExpConfig {
                quick: true,
                ..ExpConfig::default()
            },
        );
        let mut orch = Orchestrator::new(spec);
        orch.poison_cell("cobra on cycle@12");
        let cells = [8usize, 12, 16]
            .map(|n| SweepCell::new(n as f64, classic::cycle(n).unwrap(), 0u32, 50_000));
        let t = orch
            .cover_sweep("cobra on cycle", "n", cells, &CobraWalk::standard(), 3)
            .unwrap();
        // The poisoned middle cell lost its row; the others survived.
        assert_eq!(t.scales(), vec![8.0, 16.0]);
        assert_eq!(orch.recovery.records.len(), 3);
        assert_eq!(orch.failed_cells(), 1);
        let json = orch.render_manifest();
        assert!(json.contains("\"status\": \"failed\""));
        assert!(json.contains("--poison-cell"));
        assert!(json.contains("\"failed_cells\": 1"));
    }

    #[test]
    fn watchdog_quarantines_a_wedged_cell() {
        // A zero budget with zero retries trips at the first batch
        // boundary. The quick envelope can stop before any boundary, so
        // pick a rule that cannot meet precision before its trial cap.
        let spec = ExperimentSpec::from_config("eW", "watchdog", &ci_cfg())
            .with_rule(StopRule::new(10, 200, 0.0001));
        let mut orch = Orchestrator::new(spec).with_watchdog(Duration::from_secs(0), 0);
        let g = classic::cycle(16).unwrap();
        let out = orch
            .try_cover_cell("slow", 16.0, &g, &CobraWalk::standard(), 0, 50_000, 3)
            .unwrap();
        match out {
            CellOutcome::Failed(msg) => assert!(msg.contains("watchdog"), "{msg}"),
            CellOutcome::Done(_) => panic!("cell should have been quarantined"),
        }
        assert_eq!(orch.failed_cells(), 1);
        assert!(orch.render_manifest().contains("\"failed_cells\": 1"));
    }

    #[test]
    fn watchdog_retry_preserves_progress_and_stays_bit_identical() {
        // A 1ns budget halts every attempt at its first batch boundary
        // (10, then 26 trials), so the third attempt reaches the 40-trial
        // cap only if each retry resumes from the consumed prefix; the
        // result must equal an undisturbed run's.
        let rule = StopRule::new(10, 40, 0.0001);
        let spec = ExperimentSpec::from_config("eR", "retry", &ci_cfg()).with_rule(rule);
        let g = classic::cycle(16).unwrap();
        let mut plain = Orchestrator::new(spec.clone());
        let want = plain.cover_cell("c", 16.0, &g, &CobraWalk::standard(), 0, 50_000, 3);
        let mut retried = Orchestrator::new(spec).with_watchdog(Duration::from_nanos(1), 40);
        let got = retried
            .try_cover_cell("c", 16.0, &g, &CobraWalk::standard(), 0, 50_000, 3)
            .unwrap();
        match got {
            CellOutcome::Done(out) => {
                assert_eq!(out.summary.count(), want.summary.count());
                assert_eq!(out.summary.try_mean().ok(), want.summary.try_mean().ok());
                assert_eq!(out.censored, want.censored);
            }
            CellOutcome::Failed(e) => panic!("retries should have completed the cell: {e}"),
        }
        let record = &retried.recovery.records[0];
        assert_eq!(record.retries, 2);
        assert_eq!(record.backoff_ms, vec![50, 100]);
    }

    #[test]
    fn manifest_path_prefers_explicit_flag() {
        let spec = ExperimentSpec::from_config("e9", "c", &ci_cfg());
        let orch = Orchestrator::new(spec);
        let explicit = ExpConfig {
            manifest: Some(PathBuf::from("/tmp/m.json")),
            csv_dir: Some(PathBuf::from("/tmp/csvs")),
            ..ExpConfig::default()
        };
        assert_eq!(
            orch.manifest_path(&explicit).unwrap(),
            PathBuf::from("/tmp/m.json")
        );
        let via_csv = ExpConfig {
            csv_dir: Some(PathBuf::from("/tmp/csvs")),
            ..ExpConfig::default()
        };
        assert_eq!(
            orch.manifest_path(&via_csv).unwrap(),
            PathBuf::from("/tmp/csvs/e9_manifest.json")
        );
        assert!(orch.manifest_path(&ExpConfig::default()).is_none());
    }

    #[test]
    fn fully_censored_cell_is_recorded_not_fatal() {
        let spec = ExperimentSpec::from_config(
            "eC",
            "censor",
            &ExpConfig {
                quick: true,
                ..ExpConfig::default()
            },
        );
        let mut orch = Orchestrator::new(spec);
        let g = classic::path(60).unwrap();
        // 5 steps cannot cover a 60-path: every trial censors.
        let out = orch.cover_cell("starved", 60.0, &g, &cobra_core::SimpleWalk::new(), 0, 5, 1);
        assert!(!out.precision_met);
        assert_eq!(out.summary.count(), 0);
        let json = orch.render_manifest();
        assert!(json.contains("\"precision_met\": false"));
        assert!(json.contains("\"mean\": null"));
    }

    /// Drop the per-cell timing lines: wall-clock is the one
    /// deliberately nondeterministic part of a v3 manifest.
    fn strip_timing(manifest: &str) -> String {
        manifest
            .lines()
            .filter(|l| !l.contains("\"timing\""))
            .flat_map(|l| [l, "\n"])
            .collect()
    }

    #[test]
    fn manifest_numbers_are_pinned() {
        // One cell of every kind the manifest records: a lane-routed
        // cover that meets precision, a faulty scratch cover with
        // extinctions, a fully censored cover, a hitting cell, and a
        // quarantined cell.
        let spec = ExperimentSpec::from_config("eM", "manifest pin", &ci_cfg());
        let mut orch = Orchestrator::new(spec).with_watchdog(Duration::from_secs(600), 0);
        orch.poison_cell("poisoned@4");
        let complete = classic::complete(32).unwrap();
        orch.cover_cell("lanes", 32.0, &complete, &CobraWalk::new(2), 0, 10_000, 1);
        let faulty = FaultyCobraWalk::new(2, FaultPlan::none().with_pebble_loss(0.1));
        let cycle = classic::cycle(16).unwrap();
        orch.cover_cell("faulty", 16.0, &cycle, &faulty, 0, 10_000, 2);
        let path = classic::path(60).unwrap();
        orch.cover_cell("starved", 60.0, &path, &SimpleWalk::new(), 0, 5, 3);
        let k8 = classic::complete(8).unwrap();
        orch.hitting_cell("hit", 0.5, &k8, &CobraWalk::new(2), 0, 3, 10_000, 4);
        let poisoned = orch
            .try_cover_cell("poisoned", 4.0, &k8, &CobraWalk::new(2), 0, 10_000, 5)
            .unwrap();
        assert!(matches!(poisoned, CellOutcome::Failed(_)));
        let want = r#"{
  "schema": "cobra-bench/run-manifest-v3",
  "experiment": "eM",
  "claim": "manifest pin",
  "mode": "ci",
  "seed": 789370,
  "rule": {"min_trials": 10, "max_trials": 120, "rel_precision": 0.04, "confidence": 0.95, "batch": 16},
  "cells": [
    {"sweep": "lanes", "scale": 32, "status": "done", "trials_used": 55, "completed": 55, "censored": 0, "mean": 7.4364, "ci_half_width": 0.295541, "rel_half_width": 0.039743, "precision_met": true,
    {"sweep": "faulty", "scale": 16, "status": "done", "trials_used": 120, "completed": 116, "censored": 4, "mean": 19.1379, "ci_half_width": 1.235633, "rel_half_width": 0.064565, "precision_met": false,
    {"sweep": "starved", "scale": 60, "status": "done", "trials_used": 120, "completed": 0, "censored": 120, "mean": null, "ci_half_width": 0.000000, "rel_half_width": 0.000000, "precision_met": false,
    {"sweep": "hit", "scale": 0.5, "status": "done", "trials_used": 120, "completed": 120, "censored": 0, "mean": 2.5083, "ci_half_width": 0.207463, "rel_half_width": 0.082710, "precision_met": false,
    {"sweep": "poisoned", "scale": 4, "status": "failed", "trials_used": 0, "completed": 0, "censored": 0, "mean": null, "ci_half_width": 0.000000, "rel_half_width": 0.000000, "precision_met": false, "error": "panicked: injected fault: cell \"poisoned@4\" poisoned via --poison-cell",
  ],
  "totals": {"cells": 5, "trials_used": 415, "censored": 124, "precision_met_cells": 1, "failed_cells": 1}
}
"#;
        assert_eq!(strip_timing(&orch.render_manifest()), want);
    }

    #[test]
    fn halt_after_checkpoints_interrupts_and_resume_completes_identically() {
        let dir = std::env::temp_dir().join(format!("cobra-orch-halt-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("m.json");
        // A rule that cannot stop early: every cell reaches its trial
        // cap, guaranteeing several batch boundaries (checkpoints).
        let rule = StopRule::new(10, 60, 0.0001);
        let mk_spec = || ExperimentSpec::from_config("eH", "halt", &ci_cfg()).with_rule(rule);
        let base_cfg = ExpConfig {
            manifest: Some(manifest.clone()),
            ..ExpConfig::default()
        };
        let g = classic::cycle(24).unwrap();

        // Uninterrupted reference run.
        let mut plain = Orchestrator::try_for_run(mk_spec(), &base_cfg).unwrap();
        let a1 = plain.cover_cell("c", 24.0, &g, &CobraWalk::standard(), 0, 50_000, 3);
        let a2 = plain.cover_cell("d", 24.0, &g, &CobraWalk::standard(), 0, 50_000, 4);
        let reference = plain.render_manifest();
        plain.finish(&base_cfg);
        let reference_file = std::fs::read_to_string(&manifest).unwrap();
        assert!(!checkpoint_path_for(&manifest).exists());

        // Interrupted run: halt right after the second checkpoint write.
        let halt_cfg = ExpConfig {
            halt_after_checkpoints: Some(2),
            ..base_cfg.clone()
        };
        let mut halted = Orchestrator::try_for_run(mk_spec(), &halt_cfg).unwrap();
        let first = halted.try_cover_cell("c", 24.0, &g, &CobraWalk::standard(), 0, 50_000, 3);
        let interrupted = match first {
            Err(i) => i,
            Ok(_) => panic!("expected the halt to interrupt the first cell"),
        };
        assert_eq!(interrupted.checkpoints, 2);
        let ckpt_path = interrupted.checkpoint.clone().unwrap();
        assert!(ckpt_path.exists());

        // Resumed run: replays/continues and matches the reference
        // manifest byte for byte, once the (wall-clock) timing lines
        // are stripped.
        let resume_cfg = ExpConfig {
            resume: Some(manifest.clone()),
            ..base_cfg.clone()
        };
        let mut resumed = Orchestrator::try_for_run(mk_spec(), &resume_cfg).unwrap();
        let b1 = resumed.cover_cell("c", 24.0, &g, &CobraWalk::standard(), 0, 50_000, 3);
        let b2 = resumed.cover_cell("d", 24.0, &g, &CobraWalk::standard(), 0, 50_000, 4);
        assert_eq!(a1.summary.try_mean().ok(), b1.summary.try_mean().ok());
        assert_eq!(a1.trials_run(), b1.trials_run());
        assert_eq!(a2.summary.try_mean().ok(), b2.summary.try_mean().ok());
        assert_eq!(
            strip_timing(&resumed.render_manifest()),
            strip_timing(&reference)
        );
        resumed.finish(&resume_cfg);
        assert_eq!(
            strip_timing(&std::fs::read_to_string(&manifest).unwrap()),
            strip_timing(&reference_file)
        );
        // The completed resume cleaned up its checkpoint.
        assert!(!ckpt_path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_at_every_boundary_holds_the_run_so_far() {
        // Halting after each boundary in turn and loading the journal
        // must give what a whole snapshot written there holds: finished
        // cells with their whole streams (a quarantined one with its
        // error), and the in-flight cell `running` with the prefix its
        // last boundary consumed.
        let dir = std::env::temp_dir().join(format!("cobra-orch-every-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("m.json");
        let rule = StopRule::new(10, 60, 0.0001);
        let spec = ExperimentSpec::from_config("eJ", "journal", &ci_cfg()).with_rule(rule);
        let start = |cfg: &ExpConfig| {
            let mut orch = Orchestrator::try_for_run(spec.clone(), cfg)
                .unwrap()
                .with_watchdog(Duration::from_secs(600), 0);
            orch.poison_cell("p@8");
            orch
        };
        let (cycle, k8) = (classic::cycle(24).unwrap(), classic::complete(8).unwrap());
        let run = |orch: &mut Orchestrator| -> Result<(), Interrupted> {
            let walk = CobraWalk::standard();
            orch.try_cover_cell("c", 24.0, &cycle, &walk, 0, 50_000, 3)?;
            orch.try_cover_cell("p", 8.0, &k8, &walk, 0, 50_000, 4)?;
            orch.try_cover_cell("d", 24.0, &cycle, &walk, 0, 50_000, 5)?;
            Ok(())
        };
        let mut reference = start(&ci_cfg());
        run(&mut reference).unwrap();
        let want = &reference.recovery.records;
        assert_eq!(want[1].status, CellStatus::Failed);
        // Cells c and d run to the 60-trial cap with boundaries after 10,
        // 26, 42 and 58 trials; the poisoned cell fails before any.
        let prefixes = [10, 26, 42, 58];
        for n in 1..=8 {
            let cfg = ExpConfig {
                manifest: Some(manifest.clone()),
                halt_after_checkpoints: Some(n),
                ..ExpConfig::default()
            };
            let halted = run(&mut start(&cfg)).unwrap_err();
            assert_eq!(halted.checkpoints, n);
            let got = Checkpoint::load(&checkpoint_path_for(&manifest)).unwrap();
            let in_flight = if n <= 4 { 0 } else { 2 };
            assert_eq!(got.cells.len(), in_flight + 1, "boundary {n}");
            for (g, w) in got.cells[..in_flight].iter().zip(want) {
                assert_eq!(
                    (g.index, &g.key, g.status, &g.times, &g.error),
                    (w.index, &w.key, w.status, &w.times, &w.error),
                    "boundary {n}"
                );
            }
            let last = &got.cells[in_flight];
            assert_eq!(last.status, CellStatus::Running, "boundary {n}");
            assert_eq!(
                last.times[..],
                want[in_flight].times[..prefixes[(n - 1) % 4]],
                "boundary {n}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resumed_retry_keeps_the_loaded_records_after_it() {
        // A run quarantines its middle cell and keeps a three-record
        // checkpoint. Resuming retries that cell, whose four boundaries
        // fall while the run holds fewer records than the file: they
        // write nothing and the halt after one checkpoint never fires, so
        // the file keeps the done record after the retried cell.
        let dir = std::env::temp_dir().join(format!("cobra-orch-retry-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("m.json");
        let ckpt = checkpoint_path_for(&manifest);
        let rule = StopRule::new(10, 60, 0.0001);
        let spec = ExperimentSpec::from_config("eQ", "retry", &ci_cfg()).with_rule(rule);
        let cycle = classic::cycle(24).unwrap();
        let cell = |orch: &mut Orchestrator, key: &str, seed: u64| {
            orch.try_cover_cell(key, 24.0, &cycle, &CobraWalk::standard(), 0, 50_000, seed)
                .unwrap()
        };
        let cfg = ExpConfig {
            manifest: Some(manifest.clone()),
            ..ExpConfig::default()
        };
        let mut poisoned = Orchestrator::try_for_run(spec.clone(), &cfg)
            .unwrap()
            .with_watchdog(Duration::from_secs(600), 0);
        poisoned.poison_cell("p@24");
        for (key, seed) in [("c", 3), ("p", 4), ("d", 5)] {
            cell(&mut poisoned, key, seed);
        }
        poisoned.finish(&cfg);
        let loaded = Checkpoint::load(&ckpt).unwrap();
        let status: Vec<_> = loaded.cells.iter().map(|c| c.status).collect();
        assert_eq!(
            status,
            [CellStatus::Done, CellStatus::Failed, CellStatus::Done]
        );

        let resume_cfg = ExpConfig {
            resume: Some(manifest.clone()),
            halt_after_checkpoints: Some(1),
            ..cfg
        };
        let mut resumed = Orchestrator::try_for_run(spec, &resume_cfg).unwrap();
        cell(&mut resumed, "c", 3);
        assert!(matches!(cell(&mut resumed, "p", 4), CellOutcome::Done(_)));
        assert_eq!(resumed.recovery.records[1].times.len(), 60);
        assert_eq!(Checkpoint::load(&ckpt).unwrap(), loaded);
        cell(&mut resumed, "d", 5);
        assert_eq!(resumed.recovery.checkpoints_written, 0);
        resumed.finish(&resume_cfg);
        assert!(!ckpt.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_flag_writes_a_span_timeline() {
        let dir = std::env::temp_dir().join(format!("cobra-orch-trace-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("run.trace.jsonl");
        // Force the trial cap so at least one batch boundary fires.
        let rule = StopRule::new(10, 60, 0.0001);
        let spec = ExperimentSpec::from_config("eV", "trace", &ci_cfg()).with_rule(rule);
        let cfg = ExpConfig {
            trace: Some(trace.clone()),
            ..ExpConfig::default()
        };
        let mut orch = Orchestrator::try_for_run(spec, &cfg).unwrap();
        let g = classic::cycle(24).unwrap();
        orch.cover_cell("c", 24.0, &g, &CobraWalk::standard(), 0, 50_000, 3);
        orch.finish(&cfg);
        let text = std::fs::read_to_string(&trace).unwrap();
        let header = text.lines().next().unwrap();
        assert!(
            header.starts_with("{\"schema\": \"cobra-obs/trace-v1\""),
            "{header}"
        );
        assert!(text.contains("\"kind\": \"cell\""), "{text}");
        assert!(text.contains("\"kind\": \"batch\""), "{text}");
        assert!(text.contains("\"name\": \"c@24\""), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_with_mismatched_fingerprint_is_refused() {
        let dir = std::env::temp_dir().join(format!("cobra-orch-fpr-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("m.json");
        let ckpt = Checkpoint {
            fingerprint: CheckpointFingerprint::new(
                "eF",
                "ci",
                999, // not the resuming run's default seed
                &ExperimentSpec::from_config("eF", "c", &ci_cfg()).rule,
                16,
            ),
            cells: Vec::new(),
        };
        ckpt.write(&checkpoint_path_for(&manifest)).unwrap();
        let cfg = ExpConfig {
            manifest: Some(manifest.clone()),
            resume: Some(manifest),
            ..ExpConfig::default()
        };
        let err =
            Orchestrator::try_for_run(ExperimentSpec::from_config("eF", "c", &ci_cfg()), &cfg)
                .unwrap_err();
        assert!(err.contains("seed mismatch"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn halt_without_checkpoint_destination_is_a_config_error() {
        let cfg = ExpConfig {
            halt_after_checkpoints: Some(1),
            ..ExpConfig::default()
        };
        let err =
            Orchestrator::try_for_run(ExperimentSpec::from_config("eN", "c", &ci_cfg()), &cfg)
                .unwrap_err();
        assert!(err.contains("--halt-after-checkpoints"), "{err}");
    }
}
