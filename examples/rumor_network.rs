//! Rumor spreading in a peer-to-peer overlay: cobra walk vs push gossip
//! vs parallel random walks.
//!
//! The paper's other motivating application (§1): message-passing
//! protocols "require little state information and are robust to various
//! types of faults". This example compares three dissemination protocols
//! on a power-law overlay (Chung–Lu graph, the topology of unstructured
//! P2P systems):
//!
//! * **2-cobra walk** — the paper's protocol: each holder forwards 2
//!   copies, holders forget after forwarding (constant state per node);
//! * **push gossip** — every informed node forwards every round (state:
//!   informed bit, message load grows with informed set);
//! * **8 parallel random walks** — fixed number of tokens.
//!
//! Reported: rounds to full dissemination and total messages sent — the
//! trade-off the paper's introduction alludes to.
//!
//! ```sh
//! cargo run --release --example rumor_network
//! ```

use cobra_repro::graph::generators::powerlaw::chung_lu;
use cobra_repro::graph::metrics::largest_component;
use cobra_repro::graph::Graph;
use cobra_repro::walks::{
    CobraWalk, ParallelWalks, PushGossip, StateView, TypedProcess, TypedState,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Run a process to full coverage; return (rounds, total messages), where
/// per-round messages = tokens sent = occupied-set size for walk-style
/// processes and informed-count for push gossip.
fn run_protocol<P: TypedProcess>(
    g: &Graph,
    process: &P,
    push_semantics: bool,
    rng: &mut StdRng,
) -> (usize, u64) {
    let n = g.num_vertices();
    let mut state = process.spawn_typed(g, 0);
    let mut covered = vec![false; n];
    covered[0] = true;
    let mut covered_count = 1usize;
    let mut rounds = 0usize;
    let mut messages = 0u64;
    while covered_count < n {
        // Message accounting BEFORE the step: every current holder sends.
        messages += if push_semantics {
            state.support_size() as u64
        } else {
            2 * state.occupied().len() as u64 // cobra: k = 2 copies per holder
        };
        state.step(g, rng);
        rounds += 1;
        for &v in state.occupied() {
            if !covered[v as usize] {
                covered[v as usize] = true;
                covered_count += 1;
            }
        }
        assert!(rounds < 100_000_000, "protocol failed to disseminate");
    }
    (rounds, messages)
}

/// Average `trials` full disseminations of one protocol into a table row.
fn report<P: TypedProcess>(
    name: &str,
    g: &Graph,
    process: &P,
    push_semantics: bool,
    trials: usize,
    rng: &mut StdRng,
) {
    let mut total_rounds = 0usize;
    let mut total_msgs = 0u64;
    for _ in 0..trials {
        let (r, m) = run_protocol(g, process, push_semantics, rng);
        total_rounds += r;
        total_msgs += m;
    }
    let rounds = total_rounds as f64 / trials as f64;
    let msgs = total_msgs as f64 / trials as f64;
    let n = g.num_vertices() as f64;
    println!("| {name} | {rounds:.0} | {msgs:.0} | {:.1} |", msgs / n);
}

fn main() {
    let mut rng = StdRng::seed_from_u64(99);

    let (raw, trials) = (
        chung_lu(3000, 2.5, 8.0, &mut rng).expect("valid parameters"),
        5,
    );
    let (g, _) = largest_component(&raw);
    println!(
        "P2P overlay: Chung-Lu power-law graph, n = {}, m = {}, max degree {}",
        g.num_vertices(),
        g.num_edges(),
        g.max_degree()
    );
    println!();
    println!("| protocol | rounds (avg of {trials}) | messages (avg) | msg/node |");
    println!("|----------|------------------|----------------|----------|");

    let cobra = CobraWalk::standard();
    report("cobra(k=2)", &g, &cobra, false, trials, &mut rng);
    report("push gossip", &g, &PushGossip, true, trials, &mut rng);
    let pwalks = ParallelWalks::new(8);
    report("8 parallel walks", &g, &pwalks, false, trials, &mut rng);
    println!();
    println!(
        "parallel walks are frugal in messages but very slow in rounds. Push\n\
         gossip floods: every informed node transmits every round, even long\n\
         after its whole neighborhood knows the rumor — on heavy-tailed\n\
         overlays the low-degree stragglers make it pay that flood for many\n\
         rounds. The cobra walk's coalescence caps the per-round load at the\n\
         active frontier, which is why it wins on both axes here."
    );
}
