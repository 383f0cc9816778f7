//! `lanes-small`: 2-cobra cover from vertex 0 on complete_64,
//! grid_16x16, cycle_256 and star_256 through the auto-routing runner the
//! orchestrator uses, keeping the per-trial outcome stream. Every cell is
//! lane-routed, so the lane kernel and its batch runner do nearly all
//! the work; the four cells span design effects from about 1.6 to 23.

use crate::common::{self, secs, stage, with_workers, Ctx};
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{self, BLOCK};
use crate::Workload;
use cobra_core::{run_lane_cover, CobraWalk, LaneScratch, LANE_WIDTH};
use cobra_graph::generators::{classic, grid};
use cobra_graph::metrics::bfs::eccentricity;
use cobra_graph::{Graph, NeighborSampler};
use cobra_obs::{CountingProbe, NoopProbe};
use cobra_sim::{
    lane_cover_applies, run_cover_trials_adaptive_auto_resumable, run_cover_trials_lanes_probed,
    AdaptivePlan, BatchControl, SeedSequence, StopRule, TrialPlan,
};
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// 64-lane batches per cell: enough blocks that the design-effect
/// estimate moves by only a few percent between seeds.
pub const BATCHES: usize = 400;
pub const TRIALS: usize = BATCHES * LANE_WIDTH;
const MAX_STEPS: usize = 1_000_000;

/// A precision no cell can reach, so every adaptive run goes to its cap.
pub const UNREACHABLE: f64 = 1e-9;

pub struct LanesSmall;

pub struct Cell {
    pub name: &'static str,
    pub g: Graph,
    pub sampler: NeighborSampler,
    pub seed: u64,
    /// Fewest rounds any cover can take (eccentricity, doubling bound).
    floor: usize,
}

pub struct Inputs {
    pub cells: Vec<Cell>,
}

/// One cell's result in one repetition.
pub struct CellRun {
    pub times: Vec<Option<usize>>,
    pub wall_s: f64,
}

fn plan(cell: &Cell) -> AdaptivePlan {
    AdaptivePlan::new(
        StopRule::new(TRIALS, TRIALS, UNREACHABLE),
        TRIALS,
        MAX_STEPS,
        cell.seed,
    )
}

/// Every cell through the orchestrator's auto-routing resumable runner.
fn run_cells(inp: &Inputs, sp: &mut Spans) -> Result<Vec<CellRun>, String> {
    let cobra = CobraWalk::standard();
    let mut runs = Vec::new();
    for cell in &inp.cells {
        let plan = plan(cell);
        let t = Instant::now();
        let out = sp.time(cell.name, |sp| {
            sp.time("runner.run_cover_trials_adaptive_auto_resumable", |_| {
                run_cover_trials_adaptive_auto_resumable(
                    &cell.g,
                    &cobra,
                    0,
                    &plan,
                    Vec::new(),
                    |_| BatchControl::Continue,
                )
            })
        });
        let wall_s = secs(t);
        if out.halted || out.times.len() != TRIALS {
            return Err(format!(
                "{}: runner consumed {} of {TRIALS} trials",
                cell.name,
                out.times.len()
            ));
        }
        runs.push(CellRun {
            times: out.times,
            wall_s,
        });
    }
    Ok(runs)
}

pub fn as_f64(times: &[Option<usize>]) -> Vec<f64> {
    times.iter().map(|t| t.unwrap_or(0) as f64).collect()
}

/// Design effect of each cell's outcome stream.
fn design_effects(run: &[CellRun]) -> Result<Vec<f64>, String> {
    run.iter()
        .map(|r| {
            stats::design_effect(&as_f64(&r.times), BLOCK)
                .ok_or("degenerate outcome stream".to_string())
        })
        .collect()
}

impl Workload for LanesSmall {
    const NAME: &'static str = "lanes-small";
    type Inputs = Inputs;
    type Rep = Vec<CellRun>;

    /// Build the four graphs and their sampler tables.
    fn setup(ctx: &Ctx, sp: &mut Spans) -> Result<Inputs, String> {
        type Builder = (&'static str, fn() -> Graph);
        let builders: [Builder; 4] = [
            ("complete_64", || {
                classic::complete(64).expect("complete graph")
            }),
            ("grid_16x16", || grid::grid(&[15, 15])),
            ("cycle_256", || classic::cycle(256).expect("cycle graph")),
            ("star_256", || classic::star(256).expect("star graph")),
        ];
        let cells = builders
            .into_iter()
            .enumerate()
            .map(|(i, (name, build))| {
                let g = sp.time("generators.build", |_| build());
                let sampler = sp.time("sampler.build", |_| NeighborSampler::new(&g));
                let floor = eccentricity(&g, 0)
                    .expect("connected graph")
                    .max(common::branching_floor(g.num_vertices(), 2));
                Cell {
                    name,
                    sampler,
                    seed: common::stage_seed(ctx.seed, stage::LANES_SMALL, i as u64),
                    floor,
                    g,
                }
            })
            .collect();
        Ok(Inputs { cells })
    }

    fn rep(inp: &mut Inputs, sp: &mut Spans) -> Result<Vec<CellRun>, String> {
        run_cells(inp, sp)
    }

    fn check(inp: &Inputs, first: &Vec<CellRun>, run: &Vec<CellRun>) -> Result<(), String> {
        let cobra = CobraWalk::standard();
        for ((cell, a), b) in inp.cells.iter().zip(first).zip(run) {
            if !lane_cover_applies(&cell.g, &cobra, TRIALS) {
                return Err(format!("{} is not lane-routed", cell.name));
            }
            if let Some(i) = b
                .times
                .iter()
                .position(|t| t.is_none_or(|s| s < cell.floor))
            {
                return Err(format!(
                    "{} trial {i}: cover time {:?} below the {}-round floor or censored",
                    cell.name, b.times[i], cell.floor
                ));
            }
            if a.times != b.times {
                return Err(format!(
                    "{}: outcomes differ between repetitions",
                    cell.name
                ));
            }
        }
        Ok(())
    }

    fn check_once(_: &Inputs, first: &Vec<CellRun>) -> Result<u64, String> {
        Ok(first
            .iter()
            .flat_map(|c| &c.times)
            .filter(|t| t.is_none())
            .count() as u64)
    }

    fn rep_wall(rep: &Vec<CellRun>) -> f64 {
        rep.iter().map(|c| c.wall_s).sum()
    }

    fn slim(rep: &mut Vec<CellRun>) {
        rep.iter_mut().for_each(|c| c.times = Vec::new());
    }

    fn trials_per_rep(inp: &Inputs) -> usize {
        inp.cells.len() * TRIALS
    }

    fn cells(inp: &Inputs, _: &Vec<CellRun>, report: &mut Report) {
        for c in &inp.cells {
            report.line(format!(
                "cell {:<12} n {:>4}  trials {TRIALS}  route lanes",
                c.name,
                c.g.num_vertices(),
            ));
        }
    }

    /// `eff_samples_per_s` from each cell's best wall over the
    /// repetitions; `wall_s` is the sum of those bests.
    fn e2e(
        inp: &Inputs,
        first: &Vec<CellRun>,
        reps: &[Vec<CellRun>],
        report: &mut Report,
    ) -> Result<(), String> {
        let des = design_effects(first)?;
        let (mut eff, mut wall_s) = (Vec::new(), 0.0);
        for (i, cell) in inp.cells.iter().enumerate() {
            let wall = stats::best(&reps.iter().map(|r| r[i].wall_s).collect::<Vec<_>>());
            eff.push(TRIALS as f64 / des[i] / wall);
            wall_s += wall;
            report.line(format!(
                "cell {:<12} trials {TRIALS:>6}  design effect {:>6.2} ± {:.2}  best wall {wall:.4} s",
                cell.name,
                des[i],
                stats::design_effect_se(des[i], BATCHES),
            ));
        }
        report.metric("eff_samples_per_s", stats::geo_mean(&eff), "samples/s");
        report.metric("wall_s", wall_s, "s");
        Ok(())
    }

    /// The cells at `workers` workers: (trials, wall seconds), outcomes
    /// checked against the reference repetition.
    fn runner(
        inp: &Inputs,
        reference: &Vec<CellRun>,
        workers: usize,
    ) -> Result<(usize, f64), String> {
        let runs = with_workers(workers, || run_cells(inp, &mut Spans::new(false)))?;
        Self::check(inp, reference, &runs)?;
        Ok((Self::trials_per_rep(inp), Self::rep_wall(&runs)))
    }

    /// `CountingProbe` ÷ `NoopProbe` wall of the probed lane runner, one
    /// worker, outcomes checked against the reference.
    fn counting_overhead(inp: &Inputs, reference: &Vec<CellRun>) -> Result<f64, String> {
        let cobra = CobraWalk::standard();
        let (mut noop, mut counting) = (0.0, 0.0);
        with_workers(common::WORKERS, || {
            for (cell, r) in inp.cells.iter().zip(reference) {
                let plan = TrialPlan::new(TRIALS, MAX_STEPS, cell.seed);
                let want = common::digest_times(&r.times);
                let t = Instant::now();
                let (a, _) =
                    run_cover_trials_lanes_probed(&cell.g, &cobra, 0, &plan, |_| NoopProbe);
                noop += secs(t);
                let t = Instant::now();
                let (b, _) = run_cover_trials_lanes_probed(&cell.g, &cobra, 0, &plan, |_| {
                    CountingProbe::new()
                });
                counting += secs(t);
                if common::digest(&a) != want || common::digest(&b) != want {
                    return Err(format!("{}: probed lane runner diverged", cell.name));
                }
            }
            Ok(())
        })?;
        Ok(counting / noop - 1.0)
    }

    /// The lane layer, measured on this workload's cells: a serial replay
    /// of every batch with the runner's per-batch seeding (timed,
    /// `NoopProbe`), and the probed lane runner for rounds and live lanes.
    /// Both must reproduce the reference outcomes bit-for-bit. Then the
    /// RNG and sampler draw costs on the same graphs.
    fn layers(
        _: &Ctx,
        inp: &mut Inputs,
        reference: &Vec<CellRun>,
        sp: &mut Spans,
        report: &mut Report,
    ) -> Result<(), String> {
        let cobra = CobraWalk::standard();
        let (mut batch_ms, mut ns_per_vertex_round) = (Vec::new(), Vec::new());
        let (mut live, mut lane_rounds) = (0u64, 0u64);
        for (cell, r) in inp.cells.iter().zip(reference) {
            let seq = SeedSequence::new(cell.seed);
            let mut scratch = LaneScratch::new(&cell.g);
            let mut replay = Vec::with_capacity(TRIALS);
            let mut batch_ns = Vec::with_capacity(BATCHES);
            for b in 0..BATCHES {
                let mut rng = seq.rng_at(b as u64);
                let t = Instant::now();
                let out = sp.time("lanes.run_lane_cover", |_| {
                    run_lane_cover(
                        &cell.g,
                        &cell.sampler,
                        2,
                        0,
                        u64::MAX,
                        MAX_STEPS,
                        &mut scratch,
                        &mut rng,
                    )
                });
                batch_ns.push(t.elapsed().as_nanos() as f64);
                replay.extend((0..LANE_WIDTH).map(|j| out.cover_time(j)));
            }
            if replay != r.times {
                return Err(format!(
                    "{}: lane replay diverged from the runner",
                    cell.name
                ));
            }
            let plan = TrialPlan::new(TRIALS, MAX_STEPS, cell.seed);
            let (out, probes) = with_workers(common::WORKERS, || {
                run_cover_trials_lanes_probed(&cell.g, &cobra, 0, &plan, |_| CountingProbe::new())
            });
            if common::digest(&out) != common::digest_times(&r.times) {
                return Err(format!("{}: probed lane runner diverged", cell.name));
            }
            let n = cell.g.num_vertices() as f64;
            for (ns, p) in batch_ns.iter().zip(&probes) {
                let t = p.totals();
                batch_ms.push(ns / 1e6);
                ns_per_vertex_round.push(ns / (n * t.rounds as f64));
                live += t.frontier_sum;
                lane_rounds += t.rounds;
            }
        }
        report.timing("lanes.batch_ms", &batch_ms, "ms");
        report.timing("lanes.ns_per_vertex_round", &ns_per_vertex_round, "ns");
        report.metric(
            "lanes.live_share",
            live as f64 / (LANE_WIDTH as f64 * lane_rounds as f64),
            "ratio",
        );
        for (cell, de) in inp.cells.iter().zip(design_effects(reference)?) {
            report.metric(format!("lanes.design_effect.{}", cell.name), de, "ratio");
        }
        micro_draws(inp, report);
        Ok(())
    }
}

/// ns per `u64` of the engine's RNG and per `NeighborSampler` draw at
/// random vertices of this workload's graphs.
fn micro_draws(inp: &Inputs, report: &mut Report) {
    let mut rng = StdRng::seed_from_u64(inp.cells[0].seed);
    let u64_ns: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            let mut acc = 0u64;
            for _ in 0..1 << 18 {
                acc ^= rng.next_u64();
            }
            black_box(acc);
            t.elapsed().as_nanos() as f64 / (1u64 << 18) as f64
        })
        .collect();
    report.timing("rand.u64_ns", &u64_ns, "ns");
    let mut draw = Vec::new();
    for Cell { g, sampler, .. } in &inp.cells {
        let n = g.num_vertices() as u64;
        let verts: Vec<u32> = (0..4096).map(|_| rng.random_range(0..n) as u32).collect();
        for _ in 0..5 {
            let t = Instant::now();
            let mut acc = 0u32;
            for _ in 0..64 {
                for &v in &verts {
                    acc ^= sampler.bind(g, v).draw(&mut rng);
                }
            }
            black_box(acc);
            draw.push(t.elapsed().as_nanos() as f64 / (64.0 * verts.len() as f64));
        }
    }
    report.timing("sampler.draw_ns", &draw, "ns");
}
