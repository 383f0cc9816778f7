//! The cobra engine's benchmark: one command per named workload.
//!
//! ```text
//! cobra-perfbench --workload <lanes-small|implicit-large|sweep-ckpt>
//!                 --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop with a single caller on one worker: it
//! builds its inputs from the seed, repeats a fixed amount of work for
//! `--seconds`, checks every output, and prints its end-to-end metrics by
//! name with their units, the last line being one JSON result. With
//! `--trace 1` it reruns the same workload with spans around the
//! benchmark's calls into each layer, replays the layers with probes,
//! writes the spans out at the end and prints the per-layer metrics
//! instead. Any output mismatch exits nonzero with no numbers printed.
//! `perfbench/README.md` lists the workloads and metrics.

mod alloc;
mod common;
mod host;
mod implicit_large;
mod lanes_small;
mod report;
mod spans;
mod stats;
mod sweep_ckpt;

use common::{secs, with_workers, Ctx};
use host::Gate;
use implicit_large::ImplicitLarge;
use lanes_small::LanesSmall;
use report::Report;
use spans::Spans;
use std::path::{Path, PathBuf};
use std::time::Instant;
use sweep_ckpt::SweepCkpt;

/// Share of `--seconds` a run may spend, on top, waiting for a quiet
/// host before its repetitions.
const WAIT_SHARE: f64 = 0.4;

#[global_allocator]
static GLOBAL: alloc::CountingAllocator = alloc::CountingAllocator;

/// One workload: inputs, one repetition of its fixed work, the checks on
/// its outputs, and the measurements the traced run takes on it.
pub(crate) trait Workload {
    const NAME: &'static str;
    type Inputs;
    type Rep;

    fn setup(ctx: &Ctx, sp: &mut Spans) -> Result<Self::Inputs, String>;
    fn rep(inp: &mut Self::Inputs, sp: &mut Spans) -> Result<Self::Rep, String>;
    /// Checks every repetition against the first.
    fn check(inp: &Self::Inputs, first: &Self::Rep, rep: &Self::Rep) -> Result<(), String>;
    /// Checks made once, on the first repetition; returns the failed
    /// trials.
    fn check_once(inp: &Self::Inputs, first: &Self::Rep) -> Result<u64, String>;
    fn rep_wall(rep: &Self::Rep) -> f64;
    /// Drop a checked repetition's outcome streams, so memory use does
    /// not grow with the number of repetitions.
    fn slim(_: &mut Self::Rep) {}
    fn trials_per_rep(inp: &Self::Inputs) -> usize;
    /// Report lines naming every cell and its trial count.
    fn cells(inp: &Self::Inputs, first: &Self::Rep, report: &mut Report);
    /// `eff_samples_per_s` and `wall_s`.
    fn e2e(
        inp: &Self::Inputs,
        first: &Self::Rep,
        reps: &[Self::Rep],
        report: &mut Report,
    ) -> Result<(), String>;
    /// The workload's runner calls at `workers`: (trials, wall seconds).
    fn runner(
        inp: &Self::Inputs,
        first: &Self::Rep,
        workers: usize,
    ) -> Result<(usize, f64), String>;
    fn counting_overhead(inp: &Self::Inputs, first: &Self::Rep) -> Result<f64, String>;
    /// The per-layer metrics this workload owns.
    fn layers(
        ctx: &Ctx,
        inp: &mut Self::Inputs,
        first: &Self::Rep,
        sp: &mut Spans,
        r: &mut Report,
    ) -> Result<(), String>;
}

/// Time one set-up. Sub-millisecond set-ups repeat back to back until
/// 5 ms have passed and report the mean, so timer and cache noise do not
/// dominate them. Returns the last inputs and the set-up time.
fn timed_setup<W: Workload>(ctx: &Ctx, sp: &mut Spans) -> Result<(W::Inputs, f64), String> {
    let t = Instant::now();
    let mut count = 0;
    loop {
        let inp = W::setup(ctx, sp)?;
        count += 1;
        if secs(t) >= 0.005 {
            return Ok((inp, secs(t) / count as f64));
        }
    }
}

/// Set up, run the warm-up repetition (the reference every later one must
/// reproduce) and make the one-off checks. Returns the inputs, the
/// reference repetition, the set-up duration and the failed trials.
fn prepare<W: Workload>(
    ctx: &Ctx,
    sp: &mut Spans,
) -> Result<(W::Inputs, W::Rep, f64, u64), String> {
    let (mut inp, setup_s) = timed_setup::<W>(ctx, sp)?;
    let first = with_workers(common::WORKERS, || W::rep(&mut inp, &mut Spans::new(false)))?;
    W::check(&inp, &first, &first)?;
    let failed = W::check_once(&inp, &first)?;
    Ok((inp, first, setup_s, failed))
}

/// Repeat set-up plus workload until they have run for `seconds`, and
/// at least three times, checking every repetition and recording every
/// set-up duration. Each repetition first waits for a quiet host, within
/// the gate's budget; the wait does not count towards `seconds`.
fn measure<W: Workload>(
    ctx: &Ctx,
    inp: &mut W::Inputs,
    first: &W::Rep,
    seconds: f64,
    setups: &mut Vec<f64>,
    gate: &mut Gate,
    sp: &mut Spans,
) -> Result<Vec<W::Rep>, String> {
    with_workers(common::WORKERS, || {
        let (mut reps, mut spent) = (Vec::new(), 0.0);
        while reps.len() < 3 || spent < seconds {
            gate.wait_quiet();
            let t = Instant::now();
            let (fresh, setup_s) = timed_setup::<W>(ctx, sp)?;
            setups.push(setup_s);
            *inp = fresh;
            let mut rep = W::rep(inp, sp)?;
            W::check(inp, first, &rep)?;
            W::slim(&mut rep);
            spent += secs(t);
            reps.push(rep);
        }
        Ok(reps)
    })
}

fn header(ctx: &Ctx, workload: &str, report: &mut Report) {
    report.line(format!(
        "run workload {workload}  seed {}  mode {}  workers {}  nproc {}  commit {}  seconds {}",
        ctx.seed,
        if ctx.trace { "traced" } else { "untraced" },
        common::WORKERS,
        ctx.nproc,
        ctx.commit,
        ctx.seconds
    ));
}

fn untraced<W: Workload>(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    header(ctx, W::NAME, &mut report);
    let mut off = Spans::new(false);
    let (mut inp, first, setup_s, failed) = prepare::<W>(ctx, &mut off)?;
    // Memory peaks in the first repetition, which every later one
    // repeats; reading it here keeps the timed loop's allocator churn out.
    let peak_rss_mb = common::peak_rss_mb()?;
    W::cells(&inp, &first, &mut report);
    let mut setups = vec![setup_s];
    let mut gate = Gate::new(WAIT_SHARE * ctx.seconds);
    let reps = measure::<W>(
        ctx,
        &mut inp,
        &first,
        ctx.seconds,
        &mut setups,
        &mut gate,
        &mut off,
    )?;
    report.line(gate.summary());
    let per_rep = W::trials_per_rep(&inp) as u64;
    let walls: Vec<String> = reps
        .iter()
        .map(|r| format!("{:.4}", W::rep_wall(r)))
        .collect();
    report.line(format!(
        "repetitions {}  walls s {}",
        reps.len(),
        walls.join(" ")
    ));
    W::e2e(&inp, &first, &reps, &mut report)?;
    report.metric("setup_s", stats::median(&setups), "s");
    report.metric("peak_rss_mb", peak_rss_mb, "MB");
    report.metric(
        "failed_share",
        common::failed_share(failed, per_rep),
        "ratio",
    );
    report.attempted = per_rep * (reps.len() as u64 + 1);
    report.failed = failed * (reps.len() as u64 + 1);
    Ok(report)
}

/// The traced run: the current workload's own layer-crossing metrics
/// (runner scaling, probe and span overheads), then every workload's
/// owned layers, so one traced run prints the whole per-layer ledger.
fn traced<W: Workload>(ctx: &Ctx) -> Result<(Report, Spans), String> {
    let mut report = Report::default();
    header(ctx, W::NAME, &mut report);
    let mut sp = Spans::new(true);
    let (mut inp, first, _, failed) = prepare::<W>(ctx, &mut sp)?;
    W::cells(&inp, &first, &mut report);
    let half = ctx.seconds / 2.0;
    let mut setups = Vec::new();
    let mut gate = Gate::new(WAIT_SHARE * ctx.seconds);
    let plain = measure::<W>(
        ctx,
        &mut inp,
        &first,
        half,
        &mut setups,
        &mut gate,
        &mut Spans::new(false),
    )?;
    let spanned = sp.time(W::NAME, |sp| {
        measure::<W>(ctx, &mut inp, &first, half, &mut setups, &mut gate, sp)
    })?;
    let wall = |reps: &[W::Rep]| stats::best(&reps.iter().map(W::rep_wall).collect::<Vec<_>>());
    report.metric(
        "obs.trace_overhead",
        wall(&spanned) / wall(&plain) - 1.0,
        "ratio",
    );
    report.metric(
        "obs.counting_overhead",
        W::counting_overhead(&inp, &first)?,
        "ratio",
    );
    // Alternate the two worker counts and keep each one's best wall, so
    // a slow phase of the host cannot land on one side only.
    let (mut trials, mut w1, mut w2) = (0, f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        gate.wait_quiet();
        let (t, a) = W::runner(&inp, &first, 1)?;
        gate.wait_quiet();
        let (_, b) = W::runner(&inp, &first, ctx.w2())?;
        (trials, w1, w2) = (t, w1.min(a), w2.min(b));
    }
    report.line(gate.summary());
    let (tps1, tps2) = (trials as f64 / w1, trials as f64 / w2);
    report.line(format!(
        "runner scaling measured at 1 and {} workers",
        ctx.w2()
    ));
    report.metric("runner.trials_per_s.w1", tps1, "1/s");
    report.metric("runner.trials_per_s.w2", tps2, "1/s");
    report.metric("runner.scaling_eff", tps2 / tps1 / ctx.w2() as f64, "ratio");
    report.metric(
        "runner.idle_share",
        1.0 - w1 / (ctx.w2() as f64 * w2),
        "ratio",
    );
    let per_rep = W::trials_per_rep(&inp) as u64;
    report.attempted = per_rep * (plain.len() + spanned.len() + 1) as u64;
    report.failed = failed * (plain.len() + spanned.len() + 1) as u64;

    drop(inp);
    owned_layers::<LanesSmall>(ctx, &mut sp, &mut report)?;
    owned_layers::<ImplicitLarge>(ctx, &mut sp, &mut report)?;
    owned_layers::<SweepCkpt>(ctx, &mut sp, &mut report)?;
    Ok((report, sp))
}

/// Measure the layers owned by workload `O` on its own freshly prepared
/// inputs and reference repetition.
fn owned_layers<O: Workload>(ctx: &Ctx, sp: &mut Spans, report: &mut Report) -> Result<(), String> {
    let (mut inp, first, _, _) = prepare::<O>(ctx, &mut Spans::new(false))?;
    sp.time(O::NAME, |sp| O::layers(ctx, &mut inp, &first, sp, report))
}

fn git_commit(root: &Path) -> String {
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(root.join(".git/HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(root.join(".git").join(r)).unwrap_or(head),
            None => head,
        },
        None => "unknown (not a git checkout)".to_string(),
    }
}

fn parse_args() -> Result<(String, Ctx), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("bad --seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("bad --seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    let ctx = Ctx {
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("missing or non-positive --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        commit: git_commit(&root),
        out_dir: root.join(".bench_out"),
    };
    Ok((workload.ok_or("missing --workload")?, ctx))
}

/// Write the run record (identity, metrics, and spans when traced).
fn write_record(
    ctx: &Ctx,
    workload: &str,
    report: &Report,
    spans: Option<&Spans>,
) -> Result<(), String> {
    std::fs::create_dir_all(&ctx.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", ctx.out_dir.display()))?;
    let mode = if ctx.trace { "traced" } else { "untraced" };
    let path = ctx
        .out_dir
        .join(format!("{workload}-seed{}-{mode}.json", ctx.seed));
    let lines: Vec<String> = report
        .lines()
        .iter()
        .map(|l| format!("    \"{}\"", cobra_bench::json::escape_str(l)))
        .collect();
    let text = format!(
        "{{\n  \"schema\": \"cobra-perfbench/run-v1\",\n  \"workload\": \"{workload}\",\n  \"seed\": {},\n  \
         \"mode\": \"{mode}\",\n  \"workers\": {},\n  \"nproc\": {},\n  \"commit\": \"{}\",\n  \
         \"lines\": [\n{}\n  ],\n  \"metrics\": {},\n  \"spans\": {}\n}}\n",
        ctx.seed,
        common::WORKERS,
        ctx.nproc,
        cobra_bench::json::escape_str(&ctx.commit),
        lines.join(",\n"),
        report.metrics_json(),
        spans.map_or("[]".to_string(), Spans::render_json),
    );
    cobra_sim::write_atomic_str(&path, &text)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn run(workload: &str, ctx: &Ctx) -> Result<Report, String> {
    let (report, spans) = match (workload, ctx.trace) {
        ("lanes-small", false) => (untraced::<LanesSmall>(ctx)?, None),
        ("implicit-large", false) => (untraced::<ImplicitLarge>(ctx)?, None),
        ("sweep-ckpt", false) => (untraced::<SweepCkpt>(ctx)?, None),
        ("lanes-small", true) => traced::<LanesSmall>(ctx).map(|(r, s)| (r, Some(s)))?,
        ("implicit-large", true) => traced::<ImplicitLarge>(ctx).map(|(r, s)| (r, Some(s)))?,
        ("sweep-ckpt", true) => traced::<SweepCkpt>(ctx).map(|(r, s)| (r, Some(s)))?,
        (other, _) => return Err(format!("unknown workload {other}")),
    };
    report.validate()?;
    write_record(ctx, workload, &report, spans.as_ref())?;
    Ok(report)
}

fn main() {
    let (workload, ctx) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("cobra-perfbench: {e}");
            eprintln!("usage: cobra-perfbench --workload <lanes-small|implicit-large|sweep-ckpt> --seed <u64> --seconds <n> --trace <0|1>");
            std::process::exit(2);
        }
    };
    match run(&workload, &ctx) {
        Ok(report) => print!("{}", report.render()),
        Err(e) => {
            eprintln!("cobra-perfbench: {workload}: {e}");
            std::process::exit(1);
        }
    }
}
