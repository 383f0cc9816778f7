//! `sweep-ckpt`: e1-, e4- and e16-shaped runs through `Orchestrator`,
//! each with a manifest destination, the CI-mode batch size and a
//! precision target no cell can reach, so every cell runs to its fixed
//! cap and writes a checkpoint at every batch boundary. The only
//! workload that exercises the orchestrator, checkpoint and manifest
//! writes, the fault kernel and the CSR sampler on graphs above the lane
//! engine's size limit.

use crate::common::{self, secs, stage, with_process, with_workers, Ctx, Digest, Proc};
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{self, BLOCK};
use crate::Workload;
use cobra_bench::checkpoint::CheckpointFingerprint;
use cobra_bench::{
    checkpoint_path_for, CellCheckpoint, CellOutcome, CellStatus, Checkpoint, ExpConfig,
    ExperimentSpec, Json, Orchestrator,
};
use cobra_core::{CobraWalk, FaultPlan, FaultyCobraWalk, SimpleWalk, TypedProcess, TypedState};
use cobra_graph::generators::{grid, random_regular};
use cobra_graph::{Graph, NeighborSampler, Vertex};
use cobra_obs::{CountingProbe, NoopProbe};
use cobra_sim::{
    lane_cover_applies, run_cover_trials_adaptive_auto_resumable, run_cover_trials_lanes_probed,
    run_cover_trials_typed_probed, AdaptivePlan, BatchControl, SeedSequence, StopRule, TrialPlan,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The CI-mode envelope's minimum trials and batch size.
const MIN_TRIALS: usize = 10;
const CI_BATCH: usize = 16;

pub struct SweepCkpt;

pub struct Cell {
    pub sweep: &'static str,
    pub scale: usize,
    pub g: Graph,
    pub sampler: NeighborSampler,
    pub proc: Proc,
    pub start: Vertex,
    pub max_steps: usize,
    pub seed: u64,
    /// Simple walk on a path from an endpoint: the exact expected cover
    /// time is the hitting time of the far endpoint.
    pub exact: bool,
    /// Counted in `eff_samples_per_s`: see [`CellSpec::eff`].
    pub eff: bool,
}

impl Cell {
    fn key(&self) -> String {
        format!("{}@{}", self.sweep, self.scale as f64)
    }

    fn lane_routed(&self, cap: usize) -> bool {
        with_process!(&self.proc, p => lane_cover_applies(&self.g, p, cap))
    }
}

/// One orchestrated experiment run.
pub struct Run {
    pub id: &'static str,
    pub claim: &'static str,
    pub cap: usize,
    pub seed: u64,
    pub cells: Vec<Cell>,
}

impl Run {
    fn rule(&self) -> StopRule {
        StopRule::new(MIN_TRIALS, self.cap, crate::lanes_small::UNREACHABLE)
    }

    fn manifest(&self, dir: &Path) -> PathBuf {
        dir.join(format!("{}_manifest.json", self.id))
    }
}

pub struct Inputs {
    pub runs: Vec<Run>,
    pub dir: PathBuf,
}

/// What each cell of each run is: family, process, scale, step budget.
enum Shape {
    Grid { d: usize },
    RandomRegular,
}

struct CellSpec {
    sweep: &'static str,
    shape: Shape,
    scale: usize,
    proc: Proc,
    max_steps: usize,
    /// Counted in `eff_samples_per_s`. Fixed here, by name, rather than
    /// by the router's decision, so a routing change moves only `wall_s`.
    /// The counted cells are the ones above `LANE_MAX_N` and the fault
    /// cells: their runner seeds every trial apart, so their design
    /// effect is 1.
    eff: bool,
}

fn run_specs() -> [(&'static str, &'static str, usize, Vec<CellSpec>); 4] {
    let cell = |sweep, shape, scale, proc, max_steps| CellSpec {
        sweep,
        shape,
        scale,
        proc,
        max_steps,
        eff: false,
    };
    let counted = |c: CellSpec| CellSpec { eff: true, ..c };
    let cobra = || Proc::Cobra(CobraWalk::standard());
    let rw = || Proc::Simple(SimpleWalk::new());
    let faulty = || {
        Proc::Faulty(FaultyCobraWalk::new(
            2,
            FaultPlan::none().with_pebble_loss(0.1),
        ))
    };
    let grid = |d| Shape::Grid { d };
    let rr = || Shape::RandomRegular;
    [
        (
            "e1",
            "2-cobra cover on [0,n]^d is O(n); simple RW ~n² on d ≤ 2",
            256,
            vec![
                cell(
                    "cobra(k=2) on grid d=1",
                    grid(1),
                    512,
                    cobra(),
                    4000 + 400 * 512,
                ),
                cell(
                    "cobra(k=2) on grid d=2",
                    grid(2),
                    16,
                    cobra(),
                    4000 + 500 * 16,
                ),
                counted(cell(
                    "cobra(k=2) on grid d=2",
                    grid(2),
                    33,
                    cobra(),
                    4000 + 500 * 33,
                )),
                cell(
                    "simple-rw on grid d=2",
                    grid(2),
                    11,
                    rw(),
                    2000 * 11 * 11 + 50_000,
                ),
                cell(
                    "simple-rw on grid d=2",
                    grid(2),
                    15,
                    rw(),
                    2000 * 15 * 15 + 50_000,
                ),
                cell(
                    "cobra(k=2) on grid d=3",
                    grid(3),
                    6,
                    cobra(),
                    4000 + 800 * 6,
                ),
                counted(cell(
                    "cobra(k=2) on grid d=3",
                    grid(3),
                    10,
                    cobra(),
                    4000 + 800 * 10,
                )),
            ],
        ),
        (
            // The simple walk on paths, where the exact answer is known:
            // enough 64-lane batches for a batch-means standard error.
            "e1-path",
            "simple RW cover of [0,n] from an endpoint takes n² rounds in expectation",
            2048,
            vec![
                cell(
                    "simple-rw on grid d=1",
                    grid(1),
                    32,
                    rw(),
                    200 * 32 * 32 + 10_000,
                ),
                cell(
                    "simple-rw on grid d=1",
                    grid(1),
                    64,
                    rw(),
                    200 * 64 * 64 + 10_000,
                ),
            ],
        ),
        (
            "e4",
            "2-cobra cover of random regular expanders is O(log n)",
            64,
            vec![
                counted(cell(
                    "cobra(k=2) on random-regular(d=4)",
                    rr(),
                    4096,
                    cobra(),
                    20_000,
                )),
                counted(cell(
                    "cobra(k=2) on random-regular(d=4)",
                    rr(),
                    65_536,
                    cobra(),
                    20_000,
                )),
            ],
        ),
        (
            "e16",
            "2-cobra grid cover degrades gracefully under 10% pebble loss",
            256,
            vec![
                counted(cell(
                    "faulty-cobra(k=2, loss=0.1) on grid d=2",
                    grid(2),
                    16,
                    faulty(),
                    8000 + 1500 * 16,
                )),
                counted(cell(
                    "faulty-cobra(k=2, loss=0.1) on grid d=2",
                    grid(2),
                    32,
                    faulty(),
                    8000 + 1500 * 32,
                )),
            ],
        ),
    ]
}

/// Build every graph and sampler table and create the output directory.
fn build(ctx: &Ctx, sp: &mut Spans) -> Result<Inputs, String> {
    let dir = ctx.out_dir.join("sweep-ckpt");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut arm = 0u64;
    let mut runs = Vec::new();
    for (i, (id, claim, cap, specs)) in run_specs().into_iter().enumerate() {
        let mut cells = Vec::new();
        for s in specs {
            let g = sp.time("sweep.generators.build", |_| match s.shape {
                Shape::Grid { d } => grid::grid(&vec![s.scale; d]),
                Shape::RandomRegular => {
                    let mut rng = StdRng::seed_from_u64(common::stage_seed(
                        ctx.seed,
                        stage::SWEEP_GRAPHS,
                        arm,
                    ));
                    random_regular::random_regular(s.scale, 4, &mut rng).expect("4-regular graph")
                }
            });
            let sampler = sp.time("sweep.sampler.build", |_| NeighborSampler::new(&g));
            let exact = matches!((&s.shape, &s.proc), (Shape::Grid { d: 1 }, Proc::Simple(_)));
            cells.push(Cell {
                sweep: s.sweep,
                scale: s.scale,
                g,
                sampler,
                proc: s.proc,
                start: 0,
                max_steps: s.max_steps,
                seed: common::stage_seed(ctx.seed, stage::SWEEP_CELLS, arm),
                exact,
                eff: s.eff,
            });
            arm += 1;
        }
        runs.push(Run {
            id,
            claim,
            cap,
            seed: common::stage_seed(ctx.seed, stage::SWEEP_RUNS, i as u64),
            cells,
        });
    }
    Ok(Inputs { runs, dir })
}

/// One cell's orchestrated result.
#[derive(Clone, Debug)]
pub struct CellResult {
    pub digest: Digest,
    pub trials: usize,
    pub censored: usize,
    pub precision_met: bool,
    pub quarantined: bool,
    pub wall_s: f64,
}

/// One orchestrated run's result: its cells, the last checkpoint it
/// wrote, and the manifest.
pub struct RunResult {
    pub cells: Vec<CellResult>,
    pub ckpt: Checkpoint,
    pub manifest: String,
    pub wall_s: f64,
}

impl RunResult {
    /// The run's own time outside its cells: orchestrator set-up,
    /// checkpoint load and manifest write.
    fn overhead_s(&self) -> f64 {
        self.wall_s - self.cells.iter().map(|c| c.wall_s).sum::<f64>()
    }
}

fn orchestrate(run: &Run, dir: &Path, sp: &mut Spans) -> Result<RunResult, String> {
    let started = Instant::now();
    let manifest = run.manifest(dir);
    let cfg = ExpConfig {
        seed: run.seed,
        manifest: Some(manifest.clone()),
        ..ExpConfig::default()
    };
    let spec = ExperimentSpec::from_config(run.id, run.claim, &cfg).with_rule(run.rule());
    let mut orch = Orchestrator::try_for_run(spec, &cfg)?;
    let mut cells = Vec::new();
    for cell in &run.cells {
        let t = Instant::now();
        let res = sp.time(&cell.key(), |sp| {
            sp.time("orchestrator.try_cover_cell", |_| {
                with_process!(&cell.proc, p => orch.try_cover_cell(
                    cell.sweep,
                    cell.scale as f64,
                    &cell.g,
                    p,
                    cell.start,
                    cell.max_steps,
                    cell.seed,
                ))
            })
        });
        let wall_s = secs(t);
        cells.push(match res {
            Ok(CellOutcome::Done(out)) => CellResult {
                digest: common::digest(&out.to_trial_outcome()),
                trials: out.trials_run(),
                censored: out.censored,
                precision_met: out.precision_met,
                quarantined: false,
                wall_s,
            },
            Ok(CellOutcome::Failed(_)) => CellResult {
                digest: (0, 0, 0, 0, 0, 0),
                trials: run.cap,
                censored: 0,
                precision_met: false,
                quarantined: true,
                wall_s,
            },
            Err(halt) => return Err(format!("{}: run halted at cell {}", run.id, halt.cell)),
        });
    }
    let ckpt_path = checkpoint_path_for(&manifest);
    let ckpt = sp.time("checkpoint.load", |_| Checkpoint::load(&ckpt_path))?;
    let text = sp.time("orchestrator.write_manifest", |_| {
        let text = orch.render_manifest();
        cobra_sim::write_atomic_str(&manifest, &text).map(|()| text)
    });
    let text = text.map_err(|e| format!("cannot write {}: {e}", manifest.display()))?;
    std::fs::remove_file(&ckpt_path)
        .map_err(|e| format!("cannot remove {}: {e}", ckpt_path.display()))?;
    Ok(RunResult {
        cells,
        ckpt,
        manifest: text,
        wall_s: secs(started),
    })
}

fn orchestrate_all(inp: &Inputs, sp: &mut Spans) -> Result<Vec<RunResult>, String> {
    inp.runs
        .iter()
        .map(|run| orchestrate(run, &inp.dir, sp))
        .collect()
}

fn check_manifest(run: &Run, text: &str) -> Result<(), String> {
    let doc = Json::parse(text).map_err(|e| format!("{}: manifest does not parse: {e}", run.id))?;
    let bad = |what: &str| format!("{}: manifest {what}", run.id);
    if doc.get("schema").and_then(Json::as_str) != Some("cobra-bench/run-manifest-v3") {
        return Err(bad("has the wrong schema"));
    }
    let cells = doc
        .get("cells")
        .and_then(Json::as_array)
        .ok_or(bad("has no cells"))?;
    if cells.len() != run.cells.len() {
        return Err(bad("lists the wrong number of cells"));
    }
    for c in cells {
        if c.get("status").and_then(Json::as_str) != Some("done")
            || c.get("trials_used").and_then(Json::as_usize) != Some(run.cap)
        {
            return Err(bad("has a cell not done at the cap"));
        }
    }
    let failed = doc
        .get("totals")
        .and_then(|t| t.get("failed_cells"))
        .and_then(Json::as_u64);
    if failed != Some(0) {
        return Err(bad("records failed cells"));
    }
    Ok(())
}

/// A cell's per-trial outcome stream: its checkpoint record when the run
/// recorded it whole, else a bare-runner replay that must reproduce the
/// orchestrated outcome.
fn stream(run: &Run, r: &RunResult, i: usize) -> Result<Vec<Option<usize>>, String> {
    let (cell, rec) = (&run.cells[i], &r.ckpt.cells[i]);
    let times = if rec.status == CellStatus::Done {
        rec.times.clone()
    } else {
        bare(cell, run, |_| BatchControl::Continue)
    };
    if common::digest_times(&times) != r.cells[i].digest {
        return Err(format!(
            "{}: outcome stream disagrees with the orchestrator",
            cell.key()
        ));
    }
    Ok(times)
}

/// The bare resumable runner on a cell's plan: the orchestrator's runner
/// without the orchestrator.
fn bare(
    cell: &Cell,
    run: &Run,
    on_batch: impl FnMut(&[Option<usize>]) -> BatchControl,
) -> Vec<Option<usize>> {
    let plan = AdaptivePlan::new(run.rule(), CI_BATCH, cell.max_steps, cell.seed);
    with_process!(&cell.proc, p => {
        run_cover_trials_adaptive_auto_resumable(&cell.g, p, cell.start, &plan, Vec::new(), on_batch).times
    })
}

impl Workload for SweepCkpt {
    const NAME: &'static str = "sweep-ckpt";
    type Inputs = Inputs;
    type Rep = Vec<RunResult>;

    fn setup(ctx: &Ctx, sp: &mut Spans) -> Result<Inputs, String> {
        build(ctx, sp)
    }

    fn rep(inp: &mut Inputs, sp: &mut Spans) -> Result<Vec<RunResult>, String> {
        orchestrate_all(inp, sp)
    }

    /// Check one repetition: every cell done at its cap, the checkpoint's
    /// done records equal the cells' outcomes, the manifest lists every
    /// cell `done` at the cap, and outcomes repeat the first repetition's.
    fn check(inp: &Inputs, first: &Vec<RunResult>, reps: &Vec<RunResult>) -> Result<(), String> {
        for ((run, a), r) in inp.runs.iter().zip(first).zip(reps) {
            let last = run.cells.len() - 1;
            for (i, (cell, c)) in run.cells.iter().zip(&r.cells).enumerate() {
                let key = cell.key();
                if c.quarantined || c.precision_met {
                    return Err(format!(
                        "{}: {key} quarantined or met an unreachable target",
                        run.id
                    ));
                }
                if c.trials != run.cap {
                    return Err(format!(
                        "{}: {key} ran {} of {} trials",
                        run.id, c.trials, run.cap
                    ));
                }
                if c.digest != a.cells[i].digest {
                    return Err(format!(
                        "{}: {key} outcomes differ between repetitions",
                        run.id
                    ));
                }
                let rec = r
                    .ckpt
                    .cells
                    .get(i)
                    .ok_or(format!("{}: checkpoint lacks {key}", run.id))?;
                let want = if i < last {
                    CellStatus::Done
                } else {
                    CellStatus::Running
                };
                if rec.key != key || rec.index != i || rec.status != want {
                    return Err(format!(
                        "{}: checkpoint record {i} is {rec:?}-shaped, not {key} {want:?}",
                        run.id
                    ));
                }
                if i < last
                    && (rec.times.len() != run.cap || common::digest_times(&rec.times) != c.digest)
                {
                    return Err(format!(
                        "{}: checkpoint stream of {key} disagrees with its outcome",
                        run.id
                    ));
                }
            }
            if r.ckpt.cells.len() != run.cells.len() || r.ckpt.fingerprint.id != run.id {
                return Err(format!("{}: checkpoint holds the wrong run", run.id));
            }
            check_manifest(run, &r.manifest)?;
        }
        Ok(())
    }

    /// The checks that need per-trial streams, made once on the first
    /// repetition: the simple walk on each path matches its exact cover
    /// time within four batch-means standard errors, and every censored
    /// trial of a fault cell is an extinction. Returns the trials that
    /// failed (censored without going extinct).
    fn check_once(inp: &Inputs, first: &Vec<RunResult>) -> Result<u64, String> {
        let mut failed = 0;
        for (run, r) in inp.runs.iter().zip(first) {
            for (i, cell) in run.cells.iter().enumerate() {
                let censored = r.cells[i].censored;
                if !(cell.exact || censored > 0) {
                    continue;
                }
                let times = stream(run, r, i)?;
                if cell.exact {
                    if censored > 0 {
                        return Err(format!("{}: censored simple-walk trial", cell.key()));
                    }
                    let xs = crate::lanes_small::as_f64(&times);
                    let far = (cell.g.num_vertices() - 1) as Vertex;
                    let exact = cobra_spectral::exact::exact_hitting_times(&cell.g, far)
                        [cell.start as usize];
                    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
                    let se = stats::batch_means_se(&xs, BLOCK).ok_or("too few batches")?;
                    if (mean - exact).abs() > 4.0 * se {
                        return Err(format!(
                            "{}: mean cover {mean:.1} vs exact {exact:.1} (batch-means se {se:.1})",
                            cell.key()
                        ));
                    }
                }
                let Proc::Faulty(p) = &cell.proc else {
                    failed += censored as u64;
                    continue;
                };
                let seq = SeedSequence::new(cell.seed);
                for (t, _) in times.iter().enumerate().filter(|(_, t)| t.is_none()) {
                    let mut st = TypedProcess::<Graph>::spawn_typed(p, &cell.g, cell.start);
                    let mut rng = seq.rng_at(t as u64);
                    for _ in 0..cell.max_steps {
                        if st.is_dead() {
                            break;
                        }
                        TypedState::<Graph>::step_sampled(
                            &mut st,
                            &cell.g,
                            &cell.sampler,
                            &mut rng,
                        );
                    }
                    failed += u64::from(!st.is_dead());
                }
            }
        }
        Ok(failed)
    }

    fn rep_wall(rep: &Vec<RunResult>) -> f64 {
        rep.iter().map(|r| r.wall_s).sum()
    }

    fn slim(rep: &mut Vec<RunResult>) {
        for r in rep {
            r.ckpt.cells.clear();
            r.manifest = String::new();
        }
    }

    fn trials_per_rep(inp: &Inputs) -> usize {
        inp.runs.iter().map(|r| r.cap * r.cells.len()).sum()
    }

    /// Cell lines for the report: route, trial count, and whether the
    /// cell counts in `eff_samples_per_s`.
    fn cells(inp: &Inputs, first: &Vec<RunResult>, report: &mut Report) {
        for (run, r) in inp.runs.iter().zip(first) {
            for (cell, c) in run.cells.iter().zip(&r.cells) {
                report.line(format!(
                    "cell {:>3}/{:<44} n {:>6}  trials {:>5}  censored {:>3}  route {:<7}  eff {}",
                    run.id,
                    cell.key(),
                    cell.g.num_vertices(),
                    c.trials,
                    c.censored,
                    if cell.lane_routed(run.cap) {
                        "lanes"
                    } else {
                        "scratch"
                    },
                    if cell.eff { "counted" } else { "-" }
                ));
            }
        }
    }

    /// End-to-end metrics from best times over the repetitions: each
    /// cell's best wall, and each run's best time outside its cells.
    /// `wall_s` is the sum of all of them. `eff_samples_per_s` is the
    /// counted cells' total trials over their total best wall, as their
    /// costs differ a hundredfold.
    fn e2e(
        inp: &Inputs,
        _: &Vec<RunResult>,
        reps: &[Vec<RunResult>],
        report: &mut Report,
    ) -> Result<(), String> {
        let (mut trials, mut eff_wall, mut wall_s) = (0.0, 0.0, 0.0);
        for (k, run) in inp.runs.iter().enumerate() {
            let mut run_s =
                stats::best(&reps.iter().map(|r| r[k].overhead_s()).collect::<Vec<_>>());
            for (i, cell) in run.cells.iter().enumerate() {
                let best = stats::best(
                    &reps
                        .iter()
                        .map(|r| r[k].cells[i].wall_s)
                        .collect::<Vec<_>>(),
                );
                run_s += best;
                if cell.eff {
                    trials += run.cap as f64;
                    eff_wall += best;
                }
            }
            wall_s += run_s;
            report.line(format!(
                "run {:<8} cap {:>5}  best wall {run_s:.4} s",
                run.id, run.cap
            ));
        }
        report.metric("eff_samples_per_s", trials / eff_wall, "samples/s");
        report.metric("wall_s", wall_s, "s");
        Ok(())
    }

    /// The bare runner over every cell at `workers` workers.
    fn runner(
        inp: &Inputs,
        reference: &Vec<RunResult>,
        workers: usize,
    ) -> Result<(usize, f64), String> {
        let t = Instant::now();
        let outs: Vec<Vec<Vec<Option<usize>>>> = with_workers(workers, || {
            inp.runs
                .iter()
                .map(|run| {
                    run.cells
                        .iter()
                        .map(|c| bare(c, run, |_| BatchControl::Continue))
                        .collect()
                })
                .collect()
        });
        let wall = secs(t);
        for ((run, r), out) in inp.runs.iter().zip(reference).zip(&outs) {
            for ((cell, c), times) in run.cells.iter().zip(&r.cells).zip(out) {
                if common::digest_times(times) != c.digest {
                    return Err(format!(
                        "{}: bare runner diverged at {workers} workers",
                        cell.key()
                    ));
                }
            }
        }
        Ok((Self::trials_per_rep(inp), wall))
    }

    /// `CountingProbe` ÷ `NoopProbe` wall of the probed fixed runners on
    /// every cell's plan (lane or scratch, by the cell's route).
    fn counting_overhead(inp: &Inputs, reference: &Vec<RunResult>) -> Result<f64, String> {
        let (mut noop, mut counting) = (0.0, 0.0);
        with_workers(common::WORKERS, || {
            for (run, r) in inp.runs.iter().zip(reference) {
                for (cell, c) in run.cells.iter().zip(&r.cells) {
                    let plan = TrialPlan::new(run.cap, cell.max_steps, cell.seed);
                    let lanes = cell.lane_routed(run.cap);
                    let t = Instant::now();
                    let a = with_process!(&cell.proc, p => if lanes {
                        run_cover_trials_lanes_probed(&cell.g, p, cell.start, &plan, |_| NoopProbe).0
                    } else {
                        run_cover_trials_typed_probed(&cell.g, p, cell.start, &plan, |_| NoopProbe).0
                    });
                    noop += secs(t);
                    let t = Instant::now();
                    let b = with_process!(&cell.proc, p => if lanes {
                        run_cover_trials_lanes_probed(&cell.g, p, cell.start, &plan, |_| CountingProbe::new()).0
                    } else {
                        run_cover_trials_typed_probed(&cell.g, p, cell.start, &plan, |_| CountingProbe::new()).0
                    });
                    counting += secs(t);
                    if common::digest(&a) != c.digest || common::digest(&b) != c.digest {
                        return Err(format!("{}: probed runner diverged", cell.key()));
                    }
                }
            }
            Ok(())
        })?;
        Ok(counting / noop - 1.0)
    }

    /// The set-up, orchestrator, checkpoint and fault layers, measured on
    /// this workload: set-up spans from fresh set-ups; one orchestrated
    /// repetition, then per cell the plain bare runner on the same plan
    /// (for `orchestrator.self_ms`) and a bare replay that mirrors the
    /// orchestrator's checkpoint at each batch boundary through
    /// `Checkpoint::write` (for the checkpoint metrics; it must reproduce
    /// the orchestrator's last checkpoint record for record); and a
    /// per-trial replay of the fault cells.
    fn layers(
        ctx: &Ctx,
        inp: &mut Inputs,
        reference: &Vec<RunResult>,
        sp: &mut Spans,
        report: &mut Report,
    ) -> Result<(), String> {
        for _ in 0..3 {
            build(ctx, sp)?;
        }
        let ms = |v: Vec<f64>| v.iter().map(|ns| ns / 1e6).collect::<Vec<_>>();
        report.timing(
            "generators.build_ms",
            &ms(sp.durations_ns("sweep.generators.build")),
            "ms",
        );
        report.timing(
            "sampler.build_ms",
            &ms(sp.durations_ns("sweep.sampler.build")),
            "ms",
        );

        let traced = orchestrate_all(inp, sp)?;
        Self::check(inp, reference, &traced)?;
        let (mut writes, mut bytes, mut self_ms, mut retries) = (0u64, 0u64, Vec::new(), 0u64);
        let scratch_dir = inp.dir.join("replay");
        std::fs::create_dir_all(&scratch_dir)
            .map_err(|e| format!("cannot create {}: {e}", scratch_dir.display()))?;
        for ((run, r), t) in inp.runs.iter().zip(reference).zip(&traced) {
            let path = checkpoint_path_for(&run.manifest(&scratch_dir));
            let fingerprint =
                CheckpointFingerprint::new(run.id, "ci", run.seed, &run.rule(), CI_BATCH);
            let mut records: Vec<CellCheckpoint> = Vec::new();
            let mut last = None;
            for (i, (cell, c)) in run.cells.iter().zip(&r.cells).enumerate() {
                let started = Instant::now();
                let plain = sp.time("runner.bare_resumable", |_| {
                    bare(cell, run, |_| BatchControl::Continue)
                });
                let bare_s = secs(started);
                self_ms.push((t.cells[i].wall_s - bare_s) * 1e3);

                let record = |times: &[Option<usize>], status| CellCheckpoint {
                    index: i,
                    key: cell.key(),
                    status,
                    times: times.to_vec(),
                    error: None,
                    wall_ms: 0,
                    retries: 0,
                    backoff_ms: Vec::new(),
                };
                let mut io_err = None;
                let mirrored = sp.time("runner.bare_mirrored", |sp| {
                    bare(cell, run, |times| {
                        let mut cells = records.clone();
                        cells.push(record(times, CellStatus::Running));
                        let ckpt = Checkpoint {
                            fingerprint: fingerprint.clone(),
                            cells,
                        };
                        bytes += ckpt.render().len() as u64;
                        writes += 1;
                        if let Err(e) = sp.time("checkpoint.write", |_| ckpt.write(&path)) {
                            io_err = Some(e);
                        }
                        last = Some(ckpt);
                        BatchControl::Continue
                    })
                });
                if let Some(e) = io_err {
                    return Err(format!("cannot write {}: {e}", path.display()));
                }
                if common::digest_times(&plain) != c.digest || mirrored != plain {
                    return Err(format!(
                        "{}: bare replay diverged from the orchestrator",
                        cell.key()
                    ));
                }
                records.push(record(&plain, CellStatus::Done));
            }
            let last = last.ok_or(format!("{}: no checkpoint written", run.id))?;
            let strip = |c: &Checkpoint| -> Vec<(usize, String, CellStatus, Vec<Option<usize>>)> {
                c.cells
                    .iter()
                    .map(|x| (x.index, x.key.clone(), x.status, x.times.clone()))
                    .collect()
            };
            if strip(&last) != strip(&r.ckpt) || last.fingerprint != r.ckpt.fingerprint {
                return Err(format!(
                    "{}: replayed checkpoint differs from the orchestrator's",
                    run.id
                ));
            }
            std::fs::remove_file(&path)
                .map_err(|e| format!("cannot remove {}: {e}", path.display()))?;
            let doc = Json::parse(&r.manifest).map_err(|e| format!("manifest: {e}"))?;
            for c in doc.get("cells").and_then(Json::as_array).unwrap_or(&[]) {
                retries += c
                    .get("timing")
                    .and_then(|t| t.get("retries"))
                    .and_then(Json::as_u64)
                    .unwrap_or(0);
            }
        }
        report.timing("orchestrator.self_ms", &self_ms, "ms");
        report.metric("orchestrator.retries", retries as f64, "count");
        report.timing(
            "orchestrator.manifest_ms",
            &ms(sp.durations_ns("orchestrator.write_manifest")),
            "ms",
        );
        report.metric("checkpoint.writes", writes as f64, "count");
        report.metric("checkpoint.bytes", bytes as f64, "B");
        report.timing(
            "checkpoint.write_ms",
            &ms(sp.durations_ns("checkpoint.write")),
            "ms",
        );
        fault_layer(inp, sp, report)
    }
}

/// ns per frontier vertex of the fault kernel: a serial per-trial replay
/// of the fault cells, with frontier sums from the probed runner.
fn fault_layer(inp: &Inputs, sp: &mut Spans, report: &mut Report) -> Result<(), String> {
    let mut ns_per_fv = Vec::new();
    for run in &inp.runs {
        for cell in &run.cells {
            let Proc::Faulty(p) = &cell.proc else {
                continue;
            };
            let plan = TrialPlan::new(run.cap, cell.max_steps, cell.seed);
            let (_, probes) = with_workers(common::WORKERS, || {
                run_cover_trials_typed_probed(&cell.g, p, cell.start, &plan, |_| {
                    CountingProbe::new()
                })
            });
            let driver = cobra_core::CoverDriver::new(&cell.g);
            let mut scratch = cobra_core::TrialScratch::new(&cell.g);
            let seq = SeedSequence::new(cell.seed);
            for (i, probe) in probes.iter().enumerate() {
                let c = probe.totals();
                let mut rng = seq.rng_at(i as u64);
                let t = Instant::now();
                let res = sp.time("fault.run_typed_in", |_| {
                    driver.run_typed_in(
                        p,
                        &cell.sampler,
                        &mut scratch,
                        cell.start,
                        cell.max_steps,
                        &mut rng,
                    )
                });
                let ns = t.elapsed().as_nanos() as f64;
                let res = res.ok_or("empty graph")?;
                if res.steps as u64 != c.steps || res.completed != c.completed {
                    return Err(format!(
                        "{}: fault replay diverged from the runner",
                        cell.key()
                    ));
                }
                if c.frontier_sum > 0 {
                    ns_per_fv.push(ns / c.frontier_sum as f64);
                }
            }
        }
    }
    report.timing("fault.ns_per_frontier_vertex", &ns_per_fv, "ns");
    Ok(())
}
