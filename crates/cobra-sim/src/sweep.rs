//! Parameter sweeps producing tabular results.
//!
//! Every experiment is a sweep: "for n in …, measure cover time of
//! process P on family F". [`SweepTable`] collects labelled rows of
//! `(scale, statistics…)` pairs that render straight into CSV/Markdown
//! (see [`crate::table`]) and feed the fitters in `cobra-analysis`.

use crate::convergence::AdaptivePlan;
use crate::runner::{
    run_cover_trials_adaptive_auto_resumable, run_cover_trials_auto, AdaptiveOutcome, BatchControl,
    TrialPlan,
};
use crate::stats::{EmptySummary, Summary};
use cobra_core::TypedProcess;
use cobra_graph::{Graph, Vertex};

/// One row of a sweep: a scale point plus measured statistics.
#[derive(Clone, Debug)]
pub struct SweepRow {
    /// The swept scale (e.g. `n`, side length, depth).
    pub scale: f64,
    /// Extra context columns (e.g. measured conductance), name → value.
    pub context: Vec<(String, f64)>,
    /// Mean of the measured quantity.
    pub mean: f64,
    /// Standard error of the mean.
    pub stderr: f64,
    /// Median.
    pub median: f64,
    /// 95th percentile (the "w.h.p." side of the paper's claims).
    pub p95: f64,
    /// Number of completed trials.
    pub trials: usize,
    /// Number of censored (budget-exhausted) trials.
    pub censored: usize,
}

impl SweepRow {
    /// Build a row from a scale and a summary. Panics on an empty summary;
    /// use [`SweepRow::try_from_summary`] when total censoring is a
    /// reachable condition.
    pub fn from_summary(scale: f64, summary: &Summary, censored: usize) -> Self {
        SweepRow::try_from_summary(scale, summary, censored)
            .expect("SweepRow::from_summary on a summary with no completed trials")
    }

    /// Build a row from a scale and a summary, or `Err(EmptySummary)` when
    /// the summary holds no completed trials (e.g. the whole cell was
    /// censored by a too-small step budget).
    pub fn try_from_summary(
        scale: f64,
        summary: &Summary,
        censored: usize,
    ) -> Result<Self, EmptySummary> {
        summary.try_mean().map(|mean| {
            // One sort for both order statistics (`quantile` re-sorts the
            // sample per call, and sweeps build thousands of rows).
            let qs = summary.quantiles(&[0.5, 0.95]);
            SweepRow {
                scale,
                context: Vec::new(),
                mean,
                stderr: summary.stderr(),
                median: qs[0],
                p95: qs[1],
                trials: summary.count(),
                censored,
            }
        })
    }

    /// Attach a named context value (builder style).
    pub fn with_context(mut self, name: &str, value: f64) -> Self {
        self.context.push((name.to_string(), value));
        self
    }
}

/// A labelled collection of sweep rows for one measured series.
#[derive(Clone, Debug)]
pub struct SweepTable {
    /// Series label (e.g. `"cobra(k=2) on grid d=2"`).
    pub label: String,
    /// Name of the scale column (e.g. `"n"`).
    pub scale_name: String,
    /// The rows, in sweep order.
    pub rows: Vec<SweepRow>,
}

impl SweepTable {
    /// An empty table.
    pub fn new(label: impl Into<String>, scale_name: impl Into<String>) -> Self {
        SweepTable {
            label: label.into(),
            scale_name: scale_name.into(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push(&mut self, row: SweepRow) {
        self.rows.push(row);
    }

    /// The scale column.
    pub fn scales(&self) -> Vec<f64> {
        self.rows.iter().map(|r| r.scale).collect()
    }

    /// The mean column.
    pub fn means(&self) -> Vec<f64> {
        self.rows.iter().map(|r| r.mean).collect()
    }

    /// The p95 column.
    pub fn p95s(&self) -> Vec<f64> {
        self.rows.iter().map(|r| r.p95).collect()
    }

    /// Total censored trials across all rows.
    pub fn total_censored(&self) -> usize {
        self.rows.iter().map(|r| r.censored).sum()
    }
}

/// The per-cell master seed of sweep cell `cell_idx` under a sweep
/// master seed: `SeedSequence::new(master).child(cell_idx).seed_at(0)`.
///
/// This is **the** derivation both sweep runners use; anything that
/// re-executes individual sweep cells out of band (the checkpoint/resume
/// orchestrator in cobra-bench) must call this helper rather than
/// re-deriving, so the two can never drift and a resumed cell replays
/// the exact trial stream of the original run.
pub fn cell_seed(master_seed: u64, cell_idx: usize) -> u64 {
    crate::seeds::SeedSequence::new(master_seed)
        .child(cell_idx as u64)
        .seed_at(0)
}

/// One cell of a cover sweep: a scale point, the graph to measure on, the
/// start vertex, and an optional per-cell step budget (experiments
/// routinely size the budget to the scale — e.g. `O(n)` for cobra on
/// grids, `O(n²)` for the simple-walk baseline — so a shared budget would
/// change each cell's censoring semantics).
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// The swept scale recorded in the row.
    pub scale: f64,
    /// The graph for this cell.
    pub graph: Graph,
    /// Start vertex for every trial of the cell.
    pub start: Vertex,
    /// Per-cell step budget; `None` uses the plan's `max_steps`.
    pub max_steps: Option<usize>,
}

impl SweepCell {
    /// A cell using the sweep plan's shared step budget.
    pub fn new(scale: f64, graph: Graph, start: Vertex) -> Self {
        SweepCell {
            scale,
            graph,
            start,
            max_steps: None,
        }
    }

    /// Override the step budget for this cell (builder style).
    pub fn with_budget(mut self, max_steps: usize) -> Self {
        assert!(max_steps >= 1, "need a positive step budget");
        self.max_steps = Some(max_steps);
        self
    }
}

/// Run a cover-time sweep: one row per [`SweepCell`], each measured on
/// the engine [`crate::runner::lane_cover_applies`] picks — the
/// bit-sliced lane engine for small graphs with lane-friendly processes,
/// the batched scratch engine otherwise — under a per-cell child seed of
/// `plan.master_seed` (so cells are decorrelated but the whole sweep is
/// reproducible from one master seed) and the cell's own step budget
/// when it carries one. The engine choice depends only on the cell shape
/// and plan, never on outcomes, so each cell stays bit-reproducible.
///
/// Returns `Err(EmptySummary)` if any cell completes zero trials — a
/// budget bug that would otherwise surface as a panic deep in the stats.
pub fn run_cover_sweep_cells<P: TypedProcess + Sync>(
    label: impl Into<String>,
    scale_name: impl Into<String>,
    cells: impl IntoIterator<Item = SweepCell>,
    process: &P,
    plan: &TrialPlan,
) -> Result<SweepTable, EmptySummary> {
    let mut table = SweepTable::new(label, scale_name);
    for (cell_idx, cell) in cells.into_iter().enumerate() {
        let cell_plan = TrialPlan {
            master_seed: cell_seed(plan.master_seed, cell_idx),
            max_steps: cell.max_steps.unwrap_or(plan.max_steps),
            ..*plan
        };
        let out = run_cover_trials_auto(&cell.graph, process, cell.start, &cell_plan);
        table.push(SweepRow::try_from_summary(
            cell.scale,
            &out.summary,
            out.censored,
        )?);
    }
    Ok(table)
}

/// Adaptive-stopping record for one sweep cell, alongside its
/// [`SweepRow`] — what per-run manifests persist so a sweep's cost and
/// precision are auditable after the fact.
#[derive(Clone, Debug)]
pub struct AdaptiveCellReport {
    /// The cell's scale (same value as the corresponding row).
    pub scale: f64,
    /// Trials consumed (completed + censored).
    pub trials_used: usize,
    /// Completed trials.
    pub completed: usize,
    /// Censored trials.
    pub censored: usize,
    /// Absolute CI half-width of the mean at the rule's confidence
    /// level (0 when the cell completed no trials).
    pub ci_half_width: f64,
    /// `ci_half_width / mean` — the quantity the stop rule targets
    /// (0 when the cell completed no trials).
    pub rel_half_width: f64,
    /// Whether the rule's precision target was met before the trial cap.
    pub precision_met: bool,
}

impl AdaptiveCellReport {
    /// Build the report from a cell's outcome under the plan's rule.
    pub fn from_outcome(scale: f64, out: &AdaptiveOutcome, confidence: f64) -> Self {
        let (half, rel) = match out.summary.try_mean() {
            Ok(mean) if mean != 0.0 => {
                let half = out.summary.ci_half_width(confidence);
                (half, half / mean.abs())
            }
            Ok(_) => (0.0, 0.0),
            Err(_) => (0.0, 0.0),
        };
        AdaptiveCellReport {
            scale,
            trials_used: out.trials_run(),
            completed: out.summary.count(),
            censored: out.censored,
            ci_half_width: half,
            rel_half_width: rel,
            precision_met: out.precision_met,
        }
    }
}

/// Result of an adaptive sweep: the usual table plus per-cell stopping
/// reports in the same order.
#[derive(Clone, Debug)]
pub struct AdaptiveSweep {
    /// One row per cell, as in the fixed-trial sweep.
    pub table: SweepTable,
    /// One stopping report per cell, aligned with `table.rows`.
    pub reports: Vec<AdaptiveCellReport>,
}

impl AdaptiveSweep {
    /// Total trials consumed across all cells.
    pub fn total_trials(&self) -> usize {
        self.reports.iter().map(|r| r.trials_used).sum()
    }

    /// Whether every cell met the precision target.
    pub fn all_precise(&self) -> bool {
        self.reports.iter().all(|r| r.precision_met)
    }
}

/// Adaptive-stopping variant of [`run_cover_sweep_cells`]: each cell
/// runs [`run_cover_trials_adaptive_auto_resumable`] to completion under
/// a per-cell child seed of `plan.master_seed` (same derivation as the
/// fixed sweep) and the cell's own step budget when it carries one.
/// Small lane-friendly cells route through the 64-lane engine
/// (eligibility keys on the rule's `max_trials`, never on consumed
/// trials). Results are bit-identical
/// across worker counts and batch sizes (both engines' invariant), and
/// per-cell cost adapts to per-cell variance — easy cells stop at
/// `rule.min_trials`, hard cells run until the CI is tight or the cap
/// is hit.
///
/// Returns `Err(EmptySummary)` if any cell completes zero trials — a
/// budget bug, as in the fixed sweep. A cell that merely fails to reach
/// the precision target is *not* an error; it is reported via its
/// [`AdaptiveCellReport::precision_met`] flag.
pub fn run_cover_sweep_cells_adaptive<P: TypedProcess + Sync>(
    label: impl Into<String>,
    scale_name: impl Into<String>,
    cells: impl IntoIterator<Item = SweepCell>,
    process: &P,
    plan: &AdaptivePlan,
) -> Result<AdaptiveSweep, EmptySummary> {
    let mut table = SweepTable::new(label, scale_name);
    let mut reports = Vec::new();
    for (cell_idx, cell) in cells.into_iter().enumerate() {
        let cell_plan = AdaptivePlan {
            master_seed: cell_seed(plan.master_seed, cell_idx),
            max_steps: cell.max_steps.unwrap_or(plan.max_steps),
            ..*plan
        };
        let out = run_cover_trials_adaptive_auto_resumable(
            &cell.graph,
            process,
            cell.start,
            &cell_plan,
            Vec::new(),
            |_| BatchControl::Continue,
        )
        .outcome;
        reports.push(AdaptiveCellReport::from_outcome(
            cell.scale,
            &out,
            plan.rule.confidence,
        ));
        table.push(SweepRow::try_from_summary(
            cell.scale,
            &out.summary,
            out.censored,
        )?);
    }
    Ok(AdaptiveSweep { table, reports })
}

/// [`run_cover_sweep_cells`] for sweeps whose cells all share the plan's
/// step budget, taking plain `(scale, graph, start)` tuples.
pub fn run_cover_sweep<P: TypedProcess + Sync>(
    label: impl Into<String>,
    scale_name: impl Into<String>,
    cells: impl IntoIterator<Item = (f64, Graph, Vertex)>,
    process: &P,
    plan: &TrialPlan,
) -> Result<SweepTable, EmptySummary> {
    run_cover_sweep_cells(
        label,
        scale_name,
        cells
            .into_iter()
            .map(|(scale, graph, start)| SweepCell::new(scale, graph, start)),
        process,
        plan,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_summary() -> Summary {
        Summary::from_slice(&[10.0, 12.0, 14.0, 16.0, 18.0])
    }

    #[test]
    fn row_from_summary() {
        let r = SweepRow::from_summary(100.0, &sample_summary(), 2);
        assert_eq!(r.scale, 100.0);
        assert_eq!(r.mean, 14.0);
        assert_eq!(r.median, 14.0);
        assert_eq!(r.trials, 5);
        assert_eq!(r.censored, 2);
        assert!(r.p95 >= 17.0);
    }

    #[test]
    fn row_context_builder() {
        let r = SweepRow::from_summary(10.0, &sample_summary(), 0)
            .with_context("phi", 0.25)
            .with_context("d", 3.0);
        assert_eq!(r.context.len(), 2);
        assert_eq!(r.context[0], ("phi".to_string(), 0.25));
    }

    #[test]
    fn try_from_summary_reports_empty_cells() {
        let err = SweepRow::try_from_summary(10.0, &Summary::new(), 5);
        assert_eq!(err.unwrap_err(), EmptySummary);
        let ok = SweepRow::try_from_summary(10.0, &sample_summary(), 1).unwrap();
        assert_eq!(ok.trials, 5);
    }

    #[test]
    fn cover_sweep_produces_one_row_per_cell() {
        use cobra_core::CobraWalk;
        use cobra_graph::generators::classic;
        let cells = [8usize, 12, 16].map(|n| (n as f64, classic::cycle(n).unwrap(), 0u32));
        let plan = TrialPlan::new(10, 100_000, 7);
        let t =
            run_cover_sweep("cobra on cycle", "n", cells, &CobraWalk::standard(), &plan).unwrap();
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.scales(), vec![8.0, 12.0, 16.0]);
        assert_eq!(t.total_censored(), 0);
        assert!(t.means().iter().all(|&m| m > 0.0));
    }

    #[test]
    fn per_cell_budgets_override_the_plan() {
        use cobra_core::SimpleWalk;
        use cobra_graph::generators::classic;
        // Plan budget is generous, but the cell's own 3-step budget must
        // win: a 50-path cannot be covered in 3 steps, so the cell fully
        // censors and the sweep errors.
        let cells = [SweepCell::new(50.0, classic::path(50).unwrap(), 0u32).with_budget(3)];
        let plan = TrialPlan::new(5, 1_000_000, 1);
        let err = run_cover_sweep_cells("rw on path", "n", cells, &SimpleWalk::new(), &plan);
        assert_eq!(err.unwrap_err(), EmptySummary);
        // Without the override, the generous plan budget completes it.
        let cells = [SweepCell::new(50.0, classic::path(50).unwrap(), 0u32)];
        let ok =
            run_cover_sweep_cells("rw on path", "n", cells, &SimpleWalk::new(), &plan).unwrap();
        assert_eq!(ok.rows.len(), 1);
        assert_eq!(ok.rows[0].censored, 0);
    }

    #[test]
    #[should_panic(expected = "positive step budget")]
    fn cell_budget_rejects_zero() {
        use cobra_graph::generators::classic;
        let _ = SweepCell::new(8.0, classic::cycle(8).unwrap(), 0u32).with_budget(0);
    }

    #[test]
    fn cover_sweep_surfaces_budget_starvation_as_error() {
        use cobra_core::SimpleWalk;
        use cobra_graph::generators::classic;
        // 3 steps cannot cover a 50-path: the sweep must error, not panic.
        let cells = [(50.0, classic::path(50).unwrap(), 0u32)];
        let plan = TrialPlan::new(5, 3, 1);
        let err = run_cover_sweep("rw on path", "n", cells, &SimpleWalk::new(), &plan);
        assert_eq!(err.unwrap_err(), EmptySummary);
    }

    #[test]
    fn table_columns() {
        let mut t = SweepTable::new("cobra on grid", "n");
        t.push(SweepRow::from_summary(10.0, &sample_summary(), 0));
        t.push(SweepRow::from_summary(20.0, &sample_summary(), 1));
        assert_eq!(t.scales(), vec![10.0, 20.0]);
        assert_eq!(t.means(), vec![14.0, 14.0]);
        assert_eq!(t.p95s().len(), 2);
        assert_eq!(t.total_censored(), 1);
        assert_eq!(t.label, "cobra on grid");
        assert_eq!(t.scale_name, "n");
    }
}
