//! Parameter sweeps producing tabular results.
//!
//! Every experiment is a sweep: "for n in …, measure cover time of
//! process P on family F". [`SweepTable`] collects labelled rows of
//! `(scale, statistics…)` pairs that render straight into CSV/Markdown
//! (see [`crate::table`]) and feed the fitters in `cobra-analysis`.

use crate::runner::AdaptiveOutcome;
use crate::stats::{EmptySummary, Summary};
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
}

/// The per-cell master seed of sweep cell `cell_idx` under a sweep
/// master seed: `SeedSequence::new(master).child(cell_idx).seed_at(0)`.
///
/// This is **the** derivation of a sweep cell's trial stream; the
/// checkpoint/resume orchestrator in cobra-bench calls it for every cell
/// it runs or resumes, so a resumed cell replays the exact trial stream
/// of the original run.
pub fn cell_seed(master_seed: u64, cell_idx: usize) -> u64 {
    crate::seeds::SeedSequence::new(master_seed)
        .child(cell_idx as u64)
        .seed_at(0)
}

/// One cell of a cover sweep: a scale point, the graph to measure on, the
/// start vertex, and the cell's step budget (experiments size the budget
/// to the scale — e.g. `O(n)` for cobra on grids, `O(n²)` for the
/// simple-walk baseline — so a shared budget would change each cell's
/// censoring semantics).
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// The swept scale recorded in the row.
    pub scale: f64,
    /// The graph for this cell.
    pub graph: Graph,
    /// Start vertex for every trial of the cell.
    pub start: Vertex,
    /// Per-trial step budget of the cell.
    pub max_steps: usize,
}

impl SweepCell {
    /// A cell whose trials each get `max_steps ≥ 1` rounds.
    pub fn new(scale: f64, graph: Graph, start: Vertex, max_steps: usize) -> Self {
        assert!(max_steps >= 1, "need a positive step budget");
        SweepCell {
            scale,
            graph,
            start,
            max_steps,
        }
    }
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
    #[should_panic(expected = "positive step budget")]
    fn cell_budget_rejects_zero() {
        use cobra_graph::generators::classic;
        let _ = SweepCell::new(8.0, classic::cycle(8).unwrap(), 0u32, 0);
    }

    #[test]
    fn table_columns() {
        let mut t = SweepTable::new("cobra on grid", "n");
        t.push(SweepRow::from_summary(10.0, &sample_summary(), 0));
        t.push(SweepRow::from_summary(20.0, &sample_summary(), 1));
        assert_eq!(t.scales(), vec![10.0, 20.0]);
        assert_eq!(t.means(), vec![14.0, 14.0]);
        assert_eq!(t.label, "cobra on grid");
        assert_eq!(t.scale_name, "n");
    }
}
