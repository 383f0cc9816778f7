//! # cobra-obs
//!
//! Deterministic observability primitives for the cobra-walk engines:
//! the [`Probe`] instrumentation seam, per-trial counter blocks
//! ([`CountingProbe`]), bounded event traces ([`TraceProbe`]), and the
//! `cobra-obs/trace-v1` JSONL document builder ([`TraceDoc`]).
//!
//! ## Design constraints
//!
//! * **Zero-cost when off.** Every [`Probe`] method has an inlined
//!   empty default, and the engines are generic over `Pb: Probe`, so
//!   the [`NoopProbe`] route monomorphizes to exactly the unprobed
//!   code: same instructions, same RNG stream, zero allocations. The
//!   umbrella `tests/probe_neutrality.rs` pins this bit-for-bit.
//! * **Logical clocks only.** Probe events are functions of the trial's
//!   deterministic execution (round indices, frontier sizes, draw
//!   counts, coverage deltas, fault counts) — never of wall-clock time.
//!   This crate is in scope for the workspace `no-wall-clock` lint;
//!   timing spans are *recorded elsewhere* (the bench harness) and only
//!   *formatted* here, via [`TraceDoc::push_span`].
//! * **No I/O.** [`TraceDoc::render`] produces a string; writing it is
//!   the caller's job (the harness routes it through its atomic
//!   temp-file + rename writer).
//!
//! ## Event model
//!
//! One trial emits, in order: `on_trial_begin`, then per round
//! `on_draws` (from the process kernel, when it can account for its
//! draws) followed by `on_round` and `on_coverage` (from the measure
//! driver), with `on_fault` interleaved by fault-injecting processes,
//! and finally `on_trial_end`. Probes must not assume every hook fires:
//! only the cobra kernels (plain, scheduled and fault-injected) account
//! their draws, the cover driver alone does not call `on_trial_begin` (the
//! runners do), and the lane engine reports per-batch (64 fused trials)
//! rather than per-trial.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

/// The instrumentation seam: engines call these hooks at deterministic
/// points of a trial. Every method has an inlined no-op default, so a
/// probe implements only what it observes and [`NoopProbe`] compiles
/// away entirely.
pub trait Probe {
    /// Compile-time on/off switch; `false` only for [`NoopProbe`].
    /// Engines gate hook calls whose *arguments* are expensive to
    /// compute (e.g. a support-size scan for processes without an O(1)
    /// frontier) behind this const, so the noop route skips the
    /// computation entirely instead of trusting the optimizer to erase
    /// an allocation.
    const ENABLED: bool = true;

    /// A trial with this global index is about to run.
    #[inline]
    fn on_trial_begin(&mut self, trial: u64) {
        let _ = trial;
    }

    /// A round (parallel step) completed; `frontier` is the number of
    /// occupied vertices *after* the round. For the lane engine one
    /// "round" advances all 64 fused lanes and `frontier` is the number
    /// of still-active lanes.
    #[inline]
    fn on_round(&mut self, round: u64, frontier: u64) {
        let _ = (round, frontier);
    }

    /// The process kernel consumed `draws` neighbor draws this round,
    /// of which `merged` landed on an already-claimed destination (the
    /// coalescing that keeps the cobra frontier sub-multiplicative).
    #[inline]
    fn on_draws(&mut self, draws: u64, merged: u64) {
        let _ = (draws, merged);
    }

    /// Coverage grew by `newly` vertices to `total` covered.
    #[inline]
    fn on_coverage(&mut self, newly: u64, total: u64) {
        let _ = (newly, total);
    }

    /// A fault-injecting process applied `count` faults of `kind` this
    /// round (only called when `count > 0`).
    #[inline]
    fn on_fault(&mut self, kind: FaultKind, count: u64) {
        let _ = (kind, count);
    }

    /// The trial finished after `steps` rounds; `completed` is false
    /// for a censored (step-budget-exhausted) trial.
    #[inline]
    fn on_trial_end(&mut self, steps: u64, completed: bool) {
        let _ = (steps, completed);
    }
}

/// The probe that observes nothing. The unprobed engine entry points
/// delegate to the probed bodies with a `NoopProbe`, and the optimizer
/// erases every hook — pinned bit-identical and zero-alloc against the
/// pre-seam engines by the umbrella test suite.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoopProbe;

impl Probe for NoopProbe {
    const ENABLED: bool = false;
}

/// The fault classes the fault-injection layer reports through
/// [`Probe::on_fault`]. Mirrors `cobra_core::fault::FaultPlan`'s knobs
/// without depending on it (this crate is a leaf).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A pebble was dropped by the per-round loss coin or an in-flight
    /// queue overflow.
    PebbleLoss,
    /// A pebble's delivery was deferred to a later round.
    Delay,
    /// A pebble was dropped because its sender or destination vertex
    /// was inside an outage window.
    Outage,
    /// A sender was skipped by an adversarial deletion wave.
    Deletion,
}

impl FaultKind {
    /// Stable lowercase name, as it appears in trace documents.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::PebbleLoss => "pebble_loss",
            FaultKind::Delay => "delay",
            FaultKind::Outage => "outage",
            FaultKind::Deletion => "deletion",
        }
    }

    /// All kinds, in the order used by counter blocks.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::PebbleLoss,
        FaultKind::Delay,
        FaultKind::Outage,
        FaultKind::Deletion,
    ];

    /// Index of this kind in [`FaultKind::ALL`] (and in
    /// [`TrialCounters::faults`]).
    pub fn index(self) -> usize {
        match self {
            FaultKind::PebbleLoss => 0,
            FaultKind::Delay => 1,
            FaultKind::Outage => 2,
            FaultKind::Deletion => 3,
        }
    }
}

/// One trial's aggregated counters, as accumulated by
/// [`CountingProbe`]. All fields are deterministic functions of the
/// trial's seed and the engine route.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrialCounters {
    /// Global trial index (from [`Probe::on_trial_begin`]).
    pub trial: u64,
    /// Rounds observed.
    pub rounds: u64,
    /// Sum of post-round frontier sizes (area under the
    /// frontier-occupancy curve).
    pub frontier_sum: u64,
    /// Largest post-round frontier seen.
    pub max_frontier: u64,
    /// Total neighbor draws consumed by the process kernel.
    pub draws: u64,
    /// Total draws that coalesced onto an already-claimed destination.
    pub merged: u64,
    /// Total newly-covered vertices (equals `n` for a completed cover).
    pub covered: u64,
    /// Fault counts indexed by [`FaultKind::index`].
    pub faults: [u64; 4],
    /// Steps reported at trial end.
    pub steps: u64,
    /// Whether the trial completed (vs. censored).
    pub completed: bool,
}

impl TrialCounters {
    /// Total faults across all kinds.
    pub fn total_faults(&self) -> u64 {
        self.faults.iter().sum()
    }
}

/// A probe that accumulates one [`TrialCounters`] block per trial.
/// Blocks are keyed by the *global* trial index, so counter streams are
/// independent of worker counts and batch sizes (the adaptive engine
/// may begin speculative trials it later discards; discarded blocks are
/// dropped by reconciling against the consumed trial set).
#[derive(Clone, Debug, Default)]
pub struct CountingProbe {
    cur: TrialCounters,
    in_trial: bool,
    finished: Vec<TrialCounters>,
}

impl CountingProbe {
    /// A fresh probe with no recorded trials.
    pub fn new() -> Self {
        CountingProbe::default()
    }

    /// Finished trial blocks, in the order trials ended on this probe.
    pub fn trials(&self) -> &[TrialCounters] {
        &self.finished
    }

    /// The block currently being accumulated (between `on_trial_begin`
    /// and `on_trial_end`), if any.
    pub fn current(&self) -> Option<&TrialCounters> {
        self.in_trial.then_some(&self.cur)
    }

    /// Sum all finished blocks into one aggregate (the aggregate's
    /// `trial` is the block count and `completed` is true iff every
    /// trial completed).
    pub fn totals(&self) -> TrialCounters {
        let mut t = TrialCounters {
            completed: true,
            ..TrialCounters::default()
        };
        for b in &self.finished {
            t.trial += 1;
            t.rounds += b.rounds;
            t.frontier_sum += b.frontier_sum;
            t.max_frontier = t.max_frontier.max(b.max_frontier);
            t.draws += b.draws;
            t.merged += b.merged;
            t.covered += b.covered;
            for (acc, f) in t.faults.iter_mut().zip(b.faults) {
                *acc += f;
            }
            t.steps += b.steps;
            t.completed &= b.completed;
        }
        t
    }
}

impl Probe for CountingProbe {
    fn on_trial_begin(&mut self, trial: u64) {
        self.cur = TrialCounters {
            trial,
            ..TrialCounters::default()
        };
        self.in_trial = true;
    }

    fn on_round(&mut self, _round: u64, frontier: u64) {
        self.cur.rounds += 1;
        self.cur.frontier_sum += frontier;
        self.cur.max_frontier = self.cur.max_frontier.max(frontier);
    }

    fn on_draws(&mut self, draws: u64, merged: u64) {
        self.cur.draws += draws;
        self.cur.merged += merged;
    }

    fn on_coverage(&mut self, newly: u64, _total: u64) {
        self.cur.covered += newly;
    }

    fn on_fault(&mut self, kind: FaultKind, count: u64) {
        self.cur.faults[kind.index()] += count;
    }

    fn on_trial_end(&mut self, steps: u64, completed: bool) {
        self.cur.steps = steps;
        self.cur.completed = completed;
        self.in_trial = false;
        self.finished.push(self.cur);
    }
}

/// One deterministic trace event, as buffered by [`TraceProbe`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// `on_trial_begin(trial)`.
    TrialBegin {
        /// Global trial index.
        trial: u64,
    },
    /// One round, with the draw accounting (if any) folded in.
    Round {
        /// Round index within the trial.
        round: u64,
        /// Post-round frontier occupancy.
        frontier: u64,
        /// Draws consumed this round (0 when the route reports none).
        draws: u64,
        /// Draws that coalesced this round.
        merged: u64,
    },
    /// Coverage grew (only emitted when `newly > 0`).
    Coverage {
        /// Newly covered vertices.
        newly: u64,
        /// Covered total after this event.
        total: u64,
    },
    /// A nonzero fault count of one kind this round.
    Fault {
        /// The fault class.
        kind: FaultKind,
        /// How many faults of that class fired.
        count: u64,
    },
    /// `on_trial_end(steps, completed)`.
    TrialEnd {
        /// Rounds the trial ran.
        steps: u64,
        /// Whether it completed (vs. censored).
        completed: bool,
    },
}

/// A probe that buffers [`TraceEvent`]s in a bounded ring: the newest
/// `capacity` events are kept, older ones are counted in `dropped`.
/// Draw accounting (`on_draws`) is merged into the following round
/// event instead of occupying its own slot, and zero-growth coverage
/// callbacks are elided, so a ring of a few thousand events holds many
/// complete small-graph trials.
#[derive(Clone, Debug)]
pub struct TraceProbe {
    buf: Vec<TraceEvent>,
    head: usize,
    dropped: u64,
    pending_draws: (u64, u64),
    capacity: usize,
}

impl TraceProbe {
    /// A trace ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceProbe {
            buf: Vec::with_capacity(capacity),
            head: 0,
            dropped: 0,
            pending_draws: (0, 0),
            capacity,
        }
    }

    fn record(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Events currently buffered, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf[self.head..].iter().chain(&self.buf[..self.head])
    }

    /// Buffered event count.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been buffered yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted by the ring bound so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Probe for TraceProbe {
    fn on_trial_begin(&mut self, trial: u64) {
        self.pending_draws = (0, 0);
        self.record(TraceEvent::TrialBegin { trial });
    }

    fn on_round(&mut self, round: u64, frontier: u64) {
        let (draws, merged) = std::mem::take(&mut self.pending_draws);
        self.record(TraceEvent::Round {
            round,
            frontier,
            draws,
            merged,
        });
    }

    fn on_draws(&mut self, draws: u64, merged: u64) {
        self.pending_draws.0 += draws;
        self.pending_draws.1 += merged;
    }

    fn on_coverage(&mut self, newly: u64, total: u64) {
        if newly > 0 {
            self.record(TraceEvent::Coverage { newly, total });
        }
    }

    fn on_fault(&mut self, kind: FaultKind, count: u64) {
        self.record(TraceEvent::Fault { kind, count });
    }

    fn on_trial_end(&mut self, steps: u64, completed: bool) {
        self.record(TraceEvent::TrialEnd { steps, completed });
    }
}

/// The trace document schema identifier, written into every header.
pub const TRACE_SCHEMA: &str = "cobra-obs/trace-v1";

/// Escape a string for embedding in a JSON document: quotes, backslashes
/// and control characters. Trace fields here, and cobra-bench's
/// manifests and checkpoints, are escaped with it.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Builder for a `cobra-obs/trace-v1` JSONL document: a header line
/// (schema, event count, drop count) followed by one JSON object per
/// line — probe events (`"ev": "trial_begin" | "round" | "coverage" |
/// "fault" | "trial_end"`) and harness-recorded timing spans
/// (`"ev": "span"`). The builder only formats; timestamps are supplied
/// by the caller (the bench harness), keeping wall-clock reads out of
/// this crate.
#[derive(Clone, Debug, Default)]
pub struct TraceDoc {
    lines: Vec<String>,
    dropped: u64,
}

impl TraceDoc {
    /// An empty document.
    pub fn new() -> Self {
        TraceDoc::default()
    }

    /// Number of event lines recorded so far.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Append a timing span measured by the harness: `kind` groups the
    /// waterfall (`"cell"`, `"batch"`, `"retry"`, …), `name` identifies
    /// the unit, and the timestamps are milliseconds relative to the
    /// run's start.
    pub fn push_span(&mut self, kind: &str, name: &str, start_ms: u64, end_ms: u64) {
        self.lines.push(format!(
            "{{\"ev\": \"span\", \"kind\": \"{}\", \"name\": \"{}\", \
             \"start_ms\": {}, \"end_ms\": {}}}",
            escape_json(kind),
            escape_json(name),
            start_ms,
            end_ms.max(start_ms)
        ));
    }

    /// Append every buffered event of a [`TraceProbe`], carrying its
    /// drop count into the header.
    pub fn push_probe(&mut self, probe: &TraceProbe) {
        self.dropped += probe.dropped();
        for ev in probe.events() {
            self.lines.push(match *ev {
                TraceEvent::TrialBegin { trial } => {
                    format!("{{\"ev\": \"trial_begin\", \"trial\": {trial}}}")
                }
                TraceEvent::Round {
                    round,
                    frontier,
                    draws,
                    merged,
                } => format!(
                    "{{\"ev\": \"round\", \"round\": {round}, \"frontier\": {frontier}, \
                     \"draws\": {draws}, \"merged\": {merged}}}"
                ),
                TraceEvent::Coverage { newly, total } => {
                    format!("{{\"ev\": \"coverage\", \"newly\": {newly}, \"total\": {total}}}")
                }
                TraceEvent::Fault { kind, count } => format!(
                    "{{\"ev\": \"fault\", \"kind\": \"{}\", \"count\": {count}}}",
                    kind.as_str()
                ),
                TraceEvent::TrialEnd { steps, completed } => format!(
                    "{{\"ev\": \"trial_end\", \"steps\": {steps}, \"completed\": {completed}}}"
                ),
            });
        }
    }

    /// Render the full JSONL document (header line first). The caller
    /// writes it — through the harness's atomic writer.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"schema\": \"{}\", \"events\": {}, \"dropped\": {}}}\n",
            TRACE_SCHEMA,
            self.lines.len(),
            self.dropped
        ));
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive_one_trial<P: Probe>(p: &mut P) {
        p.on_trial_begin(7);
        p.on_draws(8, 3);
        p.on_round(0, 5);
        p.on_coverage(5, 6);
        p.on_draws(10, 4);
        p.on_round(1, 6);
        p.on_coverage(0, 6);
        p.on_fault(FaultKind::PebbleLoss, 2);
        p.on_trial_end(2, true);
    }

    #[test]
    fn noop_probe_is_a_unit() {
        let mut p = NoopProbe;
        drive_one_trial(&mut p);
        assert_eq!(p, NoopProbe);
        assert_eq!(std::mem::size_of::<NoopProbe>(), 0);
    }

    #[test]
    fn counting_probe_accumulates_per_trial_blocks() {
        let mut p = CountingProbe::new();
        drive_one_trial(&mut p);
        assert_eq!(p.trials().len(), 1);
        let t = p.trials()[0];
        assert_eq!(t.trial, 7);
        assert_eq!(t.rounds, 2);
        assert_eq!(t.frontier_sum, 11);
        assert_eq!(t.max_frontier, 6);
        assert_eq!(t.draws, 18);
        assert_eq!(t.merged, 7);
        assert_eq!(t.covered, 5);
        assert_eq!(t.faults[FaultKind::PebbleLoss.index()], 2);
        assert_eq!(t.total_faults(), 2);
        assert_eq!(t.steps, 2);
        assert!(t.completed);
        assert!(p.current().is_none());
    }

    #[test]
    fn counting_probe_totals_aggregate() {
        let mut p = CountingProbe::new();
        drive_one_trial(&mut p);
        p.on_trial_begin(8);
        p.on_round(0, 3);
        p.on_trial_end(1, false);
        let t = p.totals();
        assert_eq!(t.trial, 2);
        assert_eq!(t.rounds, 3);
        assert_eq!(t.max_frontier, 6);
        assert!(!t.completed);
    }

    #[test]
    fn trace_probe_merges_draws_and_elides_empty_coverage() {
        let mut p = TraceProbe::new(64);
        drive_one_trial(&mut p);
        let evs: Vec<_> = p.events().copied().collect();
        assert_eq!(
            evs,
            vec![
                TraceEvent::TrialBegin { trial: 7 },
                TraceEvent::Round {
                    round: 0,
                    frontier: 5,
                    draws: 8,
                    merged: 3
                },
                TraceEvent::Coverage { newly: 5, total: 6 },
                TraceEvent::Round {
                    round: 1,
                    frontier: 6,
                    draws: 10,
                    merged: 4
                },
                TraceEvent::Fault {
                    kind: FaultKind::PebbleLoss,
                    count: 2
                },
                TraceEvent::TrialEnd {
                    steps: 2,
                    completed: true
                },
            ]
        );
        assert_eq!(p.dropped(), 0);
    }

    #[test]
    fn trace_ring_keeps_newest_and_counts_drops() {
        let mut p = TraceProbe::new(3);
        for r in 0..10u64 {
            p.on_round(r, 1);
        }
        assert_eq!(p.len(), 3);
        assert_eq!(p.dropped(), 7);
        let rounds: Vec<u64> = p
            .events()
            .map(|e| match e {
                TraceEvent::Round { round, .. } => *round,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(rounds, vec![7, 8, 9]);
    }

    #[test]
    fn trace_doc_renders_header_spans_and_events() {
        let mut probe = TraceProbe::new(8);
        drive_one_trial(&mut probe);
        let mut doc = TraceDoc::new();
        doc.push_span("cell", "cobra on cycle@8", 0, 12);
        doc.push_probe(&probe);
        let text = doc.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + doc.len());
        assert!(lines[0].contains("\"schema\": \"cobra-obs/trace-v1\""));
        assert!(lines[0].contains("\"dropped\": 0"));
        assert!(lines[1].contains("\"ev\": \"span\""));
        assert!(lines[1].contains("cobra on cycle@8"));
        assert!(text.contains("\"ev\": \"round\""));
        assert!(text.contains("\"ev\": \"fault\""));
        assert!(text.contains("\"kind\": \"pebble_loss\""));
    }

    #[test]
    fn span_end_clamps_to_start() {
        let mut doc = TraceDoc::new();
        doc.push_span("retry", "x", 10, 3);
        assert!(doc.render().contains("\"start_ms\": 10, \"end_ms\": 10"));
    }

    #[test]
    fn escaping_controls_and_quotes() {
        let mut doc = TraceDoc::new();
        doc.push_span("cell", "a\"b\\c\nd\u{1}", 0, 1);
        let text = doc.render();
        assert!(text.contains("a\\\"b\\\\c\\nd\\u0001"), "{text}");
    }

    #[test]
    fn fault_kind_round_trip() {
        for k in FaultKind::ALL {
            assert_eq!(FaultKind::ALL[k.index()], k);
            assert!(!k.as_str().is_empty());
        }
    }
}
