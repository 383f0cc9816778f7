//! **E16 — fault-model degradation:** Theorem 3's O(n) grid-cover
//! behavior degrades gracefully under the fault model instead of
//! collapsing to random-walk-like cover times.
//!
//! Sweep the side extent of the 2-d grid for the 2-cobra walk under
//! per-round pebble-loss probability `p ∈ {0, 0.01, 0.05, 0.1, 0.2}`,
//! fit the growth exponent per loss level, and additionally measure
//! three structured fault regimes on a fixed grid: crash/recovery
//! (vertex outage windows), delayed pebble delivery (bounded in-flight
//! queue), and an adversarial deletion wave combined with background
//! loss. Verify:
//!
//! * fault-free (`p = 0`) the cover exponent matches E1 (≈ 1), and the
//!   fault-free mean on the smallest cell sits inside the spectral
//!   sandwich `log2(n) ≤ mean ≤ h_max · (1 + ln n)` (the lower bound is
//!   the doubling limit of a 2-cobra frontier, the upper is the Matthews
//!   bound on the *simple* walk computed exactly by `cobra-spectral`,
//!   which empirically dominates the cobra walk);
//! * losing up to 20% of pebbles inflates cover times but keeps the
//!   fitted exponent well below quadratic (graceful degradation);
//! * cover time is monotone in the loss rate at the largest side;
//! * all three structured regimes complete with finite means.
//!
//! Crash-safety flags (shared with every e-binary): `--resume` continues
//! an interrupted run bit-identically from its checkpoint, and
//! `--halt-after-checkpoints <n>` deterministically interrupts the run
//! (exit 3) for the kill-and-resume tests. `--poison-cell <key>` injects
//! a panic into the named cell (`"{sweep}@{scale}"`) to exercise the
//! quarantine path: the cell is recorded `failed` in the manifest and
//! the run continues.

use cobra_bench::report::{banner, emit_table, fit_and_report, verdict};
use cobra_bench::stages::stage_seed;
use cobra_bench::{CellOutcome, ExpConfig, ExperimentSpec, Family, Orchestrator};
use cobra_core::{FaultPlan, FaultyCobraWalk};
use cobra_graph::Graph;
use cobra_sim::sweep::{SweepCell, SweepTable};

/// The pebble-loss levels of the degradation sweep.
const LOSSES: [f64; 5] = [0.0, 0.01, 0.05, 0.1, 0.2];

/// One loss level's cover sweep on the d=2 grid. Budgets grow with the
/// loss rate: thinned frontiers cover slower, and fully extinguished
/// trials (possible at high loss) must censor at the cap instead of
/// starving the cell.
fn loss_sweep(
    orch: &mut Orchestrator,
    cfg: &ExpConfig,
    sides: &[usize],
    arm: usize,
    p: f64,
) -> SweepTable {
    let family = Family::Grid { d: 2 };
    let process = FaultyCobraWalk::new(2, FaultPlan::none().with_pebble_loss(p));
    let cells = sides.iter().enumerate().map(|(i, &side)| {
        let g = family.build(side, stage_seed(cfg.seed, "e16", "graphs", i as u64));
        let start = family.adversarial_start(&g);
        let budget = (8_000 + 1_500 * side) * if p > 0.0 { 4 } else { 1 };
        SweepCell::new(side as f64, g, start, budget)
    });
    let label = format!("cobra(k=2) loss={p} on grid d=2");
    orch.cover_sweep(
        label,
        "n",
        cells,
        &process,
        stage_seed(cfg.seed, "e16", "loss-sweep", arm as u64),
    )
    .expect("a loss-sweep cell completed zero trials — raise the step budget")
}

/// A structured fault regime measured as one cover cell on a fixed grid.
struct Regime {
    name: &'static str,
    plan: FaultPlan,
}

fn regimes(side: usize) -> Vec<Regime> {
    // Outage/deletion targets are interior vertices of the side×side
    // grid (row-major indexing); windows are early rounds, when the
    // frontier is still small and the fault actually bites.
    let mid = (side / 2) * side + side / 2;
    vec![
        Regime {
            name: "crash-recovery",
            plan: FaultPlan::none()
                .with_outage(mid as u32, 3, 12)
                .with_outage(1, 5, 20),
        },
        Regime {
            name: "delayed-delivery",
            plan: FaultPlan::none().with_delay(0.3, 64),
        },
        Regime {
            name: "adversarial-wave",
            plan: FaultPlan::none()
                .with_pebble_loss(0.05)
                .with_deletion_wave(8, (0..side as u32).collect()),
        },
    ]
}

/// Exact spectral sandwich on the fault-free smallest cell:
/// `log2(n) ≤ mean ≤ h_max · (1 + ln n)`.
fn spectral_sandwich(g: &Graph, mean: f64) -> (f64, f64, bool) {
    let n = g.num_vertices() as f64;
    let lower = n.log2();
    let upper = cobra_spectral::exact::exact_hmax(g) * (1.0 + n.ln());
    (lower, upper, lower <= mean && mean <= upper)
}

fn main() {
    // --poison-cell is e16-specific; strip it before the shared parser.
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let mut poison: Option<String> = None;
    let mut i = 0;
    while i < raw.len() {
        if raw[i] == "--poison-cell" {
            raw.remove(i);
            if i >= raw.len() {
                eprintln!("--poison-cell needs a cell key (\"{{sweep}}@{{scale}}\")");
                std::process::exit(2);
            }
            poison = Some(raw.remove(i));
        } else {
            i += 1;
        }
    }
    let cfg = match ExpConfig::parse(raw) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("e16 extra: [--poison-cell <sweep@scale>]");
            std::process::exit(2);
        }
    };
    banner(
        "E16",
        "Theorem 3's O(n) grid cover degrades gracefully under pebble loss, crashes, \
         delays, and deletions",
        &cfg,
    );
    let spec = ExperimentSpec::from_config(
        "e16",
        "grid cover degrades gracefully under the fault model",
        &cfg,
    );
    let mut orch = Orchestrator::for_run(spec, &cfg);
    if let Some(key) = poison {
        println!("(fault injection armed: cell {key:?} will panic)");
        orch.poison_cell(key);
    }

    // --- Degradation sweep: pebble loss on the d=2 grid ----------------
    let sides = cfg.scale(vec![6usize, 8, 12], vec![8, 12, 16, 24, 32]);
    let mut fits = Vec::new();
    let mut largest_means = Vec::new();
    let mut p0_smallest_mean = f64::NAN;
    for (arm, &p) in LOSSES.iter().enumerate() {
        let t = loss_sweep(&mut orch, &cfg, &sides, arm, p);
        emit_table(&cfg, &t, &format!("e16_loss_{arm}"));
        let fit = fit_and_report(&t);
        if let Some(last) = t.rows.last() {
            largest_means.push((p, last.mean));
        }
        if p == 0.0 {
            if let Some(first) = t.rows.first() {
                p0_smallest_mean = first.mean;
            }
        }
        fits.push((p, fit));
    }

    // --- Spectral cross-check on the fault-free column -----------------
    let g0 = Family::Grid { d: 2 }.build(sides[0], cfg.seed);
    let (lower, upper, sandwich_ok) = spectral_sandwich(&g0, p0_smallest_mean);
    println!(
        "spectral sandwich at p=0, n={}: {lower:.2} ≤ mean {p0_smallest_mean:.2} ≤ {upper:.2}\n",
        g0.num_vertices()
    );

    // --- Structured fault regimes --------------------------------------
    let regime_side = cfg.scale(8usize, 16);
    let family = Family::Grid { d: 2 };
    let g = family.build(regime_side, cfg.seed);
    let start = family.adversarial_start(&g);
    let n = g.num_vertices() as f64;
    let budget = (8_000 + 1_500 * regime_side) * 4;
    let mut regime_means = Vec::new();
    let mut regime_failures = Vec::new();
    for (arm, regime) in regimes(regime_side).into_iter().enumerate() {
        let process = FaultyCobraWalk::new(2, regime.plan);
        let sweep_name = format!("regime {}", regime.name);
        let outcome = match orch.try_cover_cell(
            &sweep_name,
            regime_side as f64,
            &g,
            &process,
            start,
            budget,
            stage_seed(cfg.seed, "e16", "regimes", arm as u64),
        ) {
            Ok(o) => o,
            Err(i) => i.exit(),
        };
        match outcome {
            CellOutcome::Done(out) => {
                let mean = out.summary.try_mean().unwrap_or(f64::NAN);
                println!(
                    "regime {:<18} mean cover {:>10.2}  ({} trials, {} censored)",
                    regime.name,
                    mean,
                    out.trials_run(),
                    out.censored
                );
                regime_means.push((regime.name, mean));
            }
            CellOutcome::Failed(e) => {
                println!("regime {:<18} QUARANTINED: {e}", regime.name);
                regime_failures.push(regime.name);
            }
        }
    }
    println!();
    orch.finish(&cfg);
    println!();

    // --- Verdicts ------------------------------------------------------
    let p0_fit = &fits[0].1;
    verdict(
        "fault-free column reproduces Theorem 3: cover exponent ≈ 1",
        p0_fit.slope < 1.30 && p0_fit.r_squared > 0.9,
        &format!("exponent {:.3}, R² {:.3}", p0_fit.slope, p0_fit.r_squared),
    );
    verdict(
        "spectral cross-check (p=0): mean inside [log2 n, h_max·(1+ln n)]",
        sandwich_ok,
        &format!("{lower:.2} ≤ {p0_smallest_mean:.2} ≤ {upper:.2}"),
    );
    let max_slope = fits
        .iter()
        .map(|(_, f)| f.slope)
        .fold(f64::NEG_INFINITY, f64::max);
    verdict(
        "graceful degradation: exponent stays sub-quadratic up to 20% loss",
        fits.iter().all(|(_, f)| f.slope < 2.0),
        &format!("worst exponent {max_slope:.3}"),
    );
    let monotone = largest_means
        .windows(2)
        .all(|w| w[1].1 >= w[0].1 * 0.95 && w[1].1.is_finite());
    verdict(
        "cover time is monotone in the loss rate (largest side, 5% slack)",
        monotone && largest_means.len() == LOSSES.len(),
        &format!(
            "means by loss: {}",
            largest_means
                .iter()
                .map(|(p, m)| format!("p={p}: {m:.1}"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    );
    verdict(
        "structured regimes (crash/recovery, delay, adversarial) complete sanely",
        regime_failures.is_empty()
            && regime_means.len() == 3
            && regime_means
                .iter()
                .all(|(_, m)| m.is_finite() && *m >= n.log2()),
        &format!(
            "{}{}",
            regime_means
                .iter()
                .map(|(r, m)| format!("{r}: {m:.1}"))
                .collect::<Vec<_>>()
                .join(", "),
            if regime_failures.is_empty() {
                String::new()
            } else {
                format!("; quarantined: {}", regime_failures.join(", "))
            }
        ),
    );
}
