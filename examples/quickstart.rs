//! Quickstart: build a graph, run a 2-cobra walk, and measure its cover
//! time against the simple random walk.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Pass `--tiny` for a seconds-scale run on miniature graphs (used by the
//! `examples_compile` smoke test so the example can never rot silently).

use cobra_repro::graph::generators::{classic, random_regular};
use cobra_repro::sim::runner::{run_cover_trials_typed, TrialPlan};
use cobra_repro::walks::{CobraWalk, CoverDriver, SimpleWalk};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let tiny = std::env::args().any(|a| a == "--tiny");
    let (n_reg, n_lolly, trials) = if tiny { (64, 24, 5) } else { (512, 128, 50) };

    // 1. Build a graph: a random 3-regular expander.
    let mut rng = StdRng::seed_from_u64(42);
    let g = random_regular::random_regular(n_reg, 3, &mut rng).expect("generation succeeds");
    println!(
        "graph: random 3-regular, n = {}, m = {}",
        g.num_vertices(),
        g.num_edges()
    );

    // 2. Run a single 2-cobra walk and watch it cover the graph.
    let cobra = CobraWalk::standard(); // k = 2, the paper's process
    let result = CoverDriver::new(&g)
        .record_trajectory()
        .run_typed(&cobra, 0, 1_000_000, &mut rng)
        .expect("non-empty graph");
    println!(
        "single run: covered all {} vertices in {} rounds",
        result.covered, result.steps
    );
    if let Some(tr) = &result.trajectory {
        let peak = tr.iter().max().copied().unwrap_or(0);
        println!(
            "active set grew to a peak of {} simultaneously active vertices",
            peak
        );
    }

    // 3. Monte-Carlo comparison against the simple random walk.
    let plan = TrialPlan::new(trials, 10_000_000, 7);
    let cobra_out = run_cover_trials_typed(&g, &cobra, 0, &plan);
    let rw_out = run_cover_trials_typed(&g, &SimpleWalk::new(), 0, &plan);
    println!(
        "over {trials} trials: cobra mean cover {:.0} rounds, simple walk {:.0} rounds ({:.0}x speedup)",
        cobra_out.summary.mean(),
        rw_out.summary.mean(),
        rw_out.summary.mean() / cobra_out.summary.mean()
    );

    // 4. The same comparison on a graph that is *hard* for random walks:
    //    the lollipop (Theorem 20 territory).
    let lolly = classic::lollipop(n_lolly).expect("valid parameters");
    let plan = TrialPlan::new(trials.min(20), 50_000_000, 11);
    let cobra_l = run_cover_trials_typed(&lolly, &cobra, 1, &plan);
    let rw_l = run_cover_trials_typed(&lolly, &SimpleWalk::new(), 1, &plan);
    println!(
        "lollipop({n_lolly}) from the clique: cobra {:.0} rounds vs simple walk {:.0} rounds ({:.0}x)",
        cobra_l.summary.mean(),
        rw_l.summary.mean(),
        rw_l.summary.mean() / cobra_l.summary.mean()
    );
}
