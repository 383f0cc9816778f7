//! Seed-equivalence harness for the hybrid frontier engine.
//!
//! The fresh-state path (`CoverDriver::run_typed` /
//! `CoverDriver::hit_typed`, backed by the sparse/dense
//! [`cobra_repro::walks::Frontier`] and [`ImplicitDraw`] neighbor draws)
//! and the batched scratch path (`run_typed_in` / `hit_typed_in`, with
//! state reuse via
//! `respawn_typed`) must produce **bit-for-bit identical** results on the
//! same
//! [`SeedSequence`]-derived seeds — not just statistical agreement — and
//! must reproduce the outputs the retired boxed-state dyn route recorded,
//! pinned here as one 64-bit FNV-1a digest per (process, graph) cell. Any
//! divergence means the engine changed *what* is computed, not just how
//! fast.
//!
//! Matrix: every process family of the paper (cobra k ∈ {1,2,3}, simple
//! walk, Walt, push gossip) × four graph shapes (grid, cycle, star,
//! Chung-Lu power-law) × three derived seeds, for both cover and hitting
//! measurements, with a [`Trajectory`] probe attached so the per-round
//! support sizes are compared too.

use cobra_repro::graph::generators::{chung_lu, classic, grid, hypercube};
use cobra_repro::graph::{
    Graph, ImplicitComplete, ImplicitGraph, ImplicitGrid, ImplicitHypercube, NeighborSampler,
};
use cobra_repro::sim::SeedSequence;
use cobra_repro::walks::{
    BranchingSchedule, CobraWalk, CoverDriver, CoverResult, FaultPlan, FaultyCobraWalk,
    HittingResult, ImplicitDraw, NeighborDraw, PushGossip, ScheduledCobraWalk, SimpleWalk,
    Trajectory, TrialScratch, TypedProcess, WaltProcess,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::type_name;

const MAX_STEPS: usize = 20_000;

/// One FNV-1a step over the little-endian bytes of `word`.
fn fnv(h: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One cover run from vertex 0 on seed `seed` with a [`Trajectory`]
/// probe attached: the result and the per-round support sizes.
fn traced_cover<G, P, D>(
    g: &G,
    process: &P,
    draw: &D,
    scratch: &mut TrialScratch<P::State>,
    seed: u64,
) -> (CoverResult, Vec<usize>)
where
    G: ImplicitGraph,
    P: TypedProcess<G>,
    D: NeighborDraw<G>,
{
    let mut tr = Trajectory::default();
    let cover = CoverDriver::new(g)
        .run_typed_in_probed(
            process,
            draw,
            scratch,
            0,
            None,
            MAX_STEPS,
            &mut StdRng::seed_from_u64(seed),
            &mut tr,
        )
        .unwrap();
    (cover, tr.active)
}

/// Fold one seed's cover result, its trajectory, and hitting result into
/// a cell digest.
fn fold_seed(h: u64, cover: &CoverResult, tr: &[usize], hit: &HittingResult) -> u64 {
    [
        cover.steps,
        cover.covered,
        cover.completed as usize,
        tr.len(),
    ]
    .into_iter()
    .chain(tr.iter().copied())
    .chain([hit.steps, hit.hit as usize])
    .fold(h, |h, w| fnv(h, w as u64))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The graph zoo. Chung-Lu instances are regenerated (deterministically)
/// until minimum degree ≥ 1 — the instance the digests were recorded on.
fn graphs() -> Vec<(&'static str, Graph)> {
    let seq = SeedSequence::new(0xF2011713);
    let chung_lu_graph = (0..u64::MAX)
        .map(|attempt| {
            let mut rng = StdRng::seed_from_u64(seq.child(attempt).seed_at(0));
            chung_lu(200, 2.5, 8.0, &mut rng).expect("chung-lu generation")
        })
        .find(|g| g.min_degree() >= 1)
        .expect("a Chung-Lu instance with min degree >= 1");
    vec![
        ("grid-8x8", grid::grid(&[7, 7])),
        ("cycle-48", classic::cycle(48).unwrap()),
        ("star-33", classic::star(33).unwrap()),
        ("chung-lu-200", chung_lu_graph),
    ]
}

/// Seeds for one (process, graph) cell, derived the same way experiments
/// derive theirs.
fn cell_seeds(process_idx: u64, graph_idx: u64) -> Vec<u64> {
    let seq = SeedSequence::new(0xE9).child(process_idx).child(graph_idx);
    (0..3).map(|i| seq.seed_at(i)).collect()
}

/// Assert fresh path ≡ scratch path ≡ recorded dyn-route digest for cover
/// and hitting on every graph (`pinned` is indexed like [`graphs`]). The
/// fresh path is what `CoverDriver::run_typed` runs: a new
/// [`TrialScratch`] per seed. The scratch engine reuses one
/// [`TrialScratch`] across all seeds of a cell, so the respawn-reuse path
/// is exercised against the allocate-fresh route on identical RNG
/// streams.
fn assert_engine_equivalence<P: TypedProcess>(process_idx: u64, process: &P, pinned: [u64; 4]) {
    for (graph_idx, (gname, g)) in graphs().into_iter().enumerate() {
        let n = g.num_vertices();
        let target = (n - 1) as u32;
        let mut scratch = TrialScratch::new(&g);
        let mut digest = FNV_OFFSET;
        for seed in cell_seeds(process_idx, graph_idx as u64) {
            let label = format!("{} on {gname} (seed {seed:#x})", type_name::<P>());

            let (typed_cover, typed_tr) =
                traced_cover(&g, process, &ImplicitDraw, &mut TrialScratch::new(&g), seed);
            let (scratch_cover, scratch_tr) =
                traced_cover(&g, process, &ImplicitDraw, &mut scratch, seed);
            assert_eq!(
                typed_cover, scratch_cover,
                "cover divergence for {label}: typed {typed_cover:?} vs scratch {scratch_cover:?}"
            );
            assert_eq!(typed_tr, scratch_tr, "trajectory divergence for {label}");

            let typed_hit = CoverDriver::new(&g).hit_typed(
                process,
                0,
                target,
                MAX_STEPS,
                &mut StdRng::seed_from_u64(seed),
            );
            let scratch_hit = CoverDriver::new(&g).hit_typed_in(
                process,
                &ImplicitDraw,
                &mut scratch,
                0,
                target,
                MAX_STEPS,
                &mut StdRng::seed_from_u64(seed),
            );
            assert_eq!(
                typed_hit, scratch_hit,
                "hitting divergence for {label}: typed {typed_hit:?} vs scratch {scratch_hit:?}"
            );
            digest = fold_seed(digest, &typed_cover, &typed_tr, &typed_hit);
        }
        assert_eq!(
            digest,
            pinned[graph_idx],
            "{} on {gname}: digest {digest:#018x} differs from the recorded dyn-route output",
            type_name::<P>()
        );
    }
}

#[test]
fn cobra_walks_match_across_branching_factors() {
    let pinned = [
        [
            0x2a63d2c119384d33,
            0x5b742b4bf787e622,
            0xddbd70d43e8b6cc8,
            0xee5096859907116c,
        ],
        [
            0x78ab64a7a266820e,
            0x5339d3e64849af25,
            0xbec6c28a89430dbb,
            0xd4c720e0635ec676,
        ],
        [
            0xd3f02275bab627e5,
            0x8e03a4a52b778046,
            0xa727313d4a93b0fe,
            0x9696d8c20d942fff,
        ],
    ];
    for (i, k) in [1u32, 2, 3].into_iter().enumerate() {
        assert_engine_equivalence(i as u64, &CobraWalk::new(k), pinned[i]);
    }
}

#[test]
fn simple_walk_matches() {
    assert_engine_equivalence(
        10,
        &SimpleWalk::new(),
        [
            0x9893cbb883ecef7f,
            0xab45ff1bfe2b5b2f,
            0xc1fd2f39f73dcb6e,
            0x8288ed68e641476f,
        ],
    );
}

#[test]
fn walt_matches() {
    assert_engine_equivalence(
        20,
        &WaltProcess::standard(0.25),
        [
            0x0770c47751d744dd,
            0x2a283b3d5fcda42a,
            0x028228c6bdf6c73e,
            0xaea1b24f5554733f,
        ],
    );
    assert_engine_equivalence(
        21,
        &WaltProcess::with_count(6).lazy(false),
        [
            0x533f77a0231aad26,
            0x9dd65168b359dcf5,
            0x97500b181f1aa723,
            0xc9c2445bceff1b8b,
        ],
    );
}

#[test]
fn gossip_matches() {
    assert_engine_equivalence(
        40,
        &PushGossip,
        [
            0x5ad3dc0e4b63bfbb,
            0xc2741a9613cc354f,
            0x0545317c500d1a88,
            0xaf8526f9e5bb7b87,
        ],
    );
}

/// Assert the CSR representation and an arithmetic [`ImplicitGraph`]
/// family drive **bit-for-bit identical** runs: same cover results and
/// trajectories, same hitting results, on both the fresh typed path and
/// the scratch path. Any divergence means the implicit family's neighbor
/// arithmetic disagrees with the materialized adjacency it mirrors. The
/// CSR scratch run draws through [`NeighborSampler`], the name the
/// benchmark package drives the engine with, which pins that name to
/// [`ImplicitDraw`]'s draws.
fn assert_csr_implicit_equivalence<G, P>(
    gname: &str,
    csr: &Graph,
    implicit: &G,
    process: &P,
    cell: u64,
) where
    G: ImplicitGraph,
    P: TypedProcess<Graph> + TypedProcess<G>,
{
    assert_eq!(
        csr.num_vertices(),
        implicit.num_vertices(),
        "representations of {gname} disagree on n"
    );
    let n = csr.num_vertices();
    let target = (n - 1) as u32;
    let sampler = NeighborSampler::new(csr);
    let mut csr_scratch = TrialScratch::new(csr);
    let mut imp_scratch = TrialScratch::new(implicit);
    for seed in cell_seeds(0xC5, cell) {
        let label = format!("{} on {gname} (seed {seed:#x})", type_name::<P>());

        let (csr_cover, csr_tr) = traced_cover(
            csr,
            process,
            &ImplicitDraw,
            &mut TrialScratch::new(csr),
            seed,
        );
        let (imp_cover, imp_tr) = traced_cover(
            implicit,
            process,
            &ImplicitDraw,
            &mut TrialScratch::new(implicit),
            seed,
        );
        assert_eq!(
            csr_cover, imp_cover,
            "cover divergence for {label}: csr {csr_cover:?} vs implicit {imp_cover:?}"
        );
        assert_eq!(csr_tr, imp_tr, "trajectory divergence for {label}");
        let csr_scratch_cover = CoverDriver::new(csr)
            .run_typed_in(
                process,
                &sampler,
                &mut csr_scratch,
                0,
                MAX_STEPS,
                &mut StdRng::seed_from_u64(seed),
            )
            .unwrap();
        let imp_scratch_cover = CoverDriver::new(implicit)
            .run_typed_in(
                process,
                &ImplicitDraw,
                &mut imp_scratch,
                0,
                MAX_STEPS,
                &mut StdRng::seed_from_u64(seed),
            )
            .unwrap();
        assert_eq!(
            csr_scratch_cover, imp_scratch_cover,
            "scratch cover divergence for {label}"
        );
        assert_eq!(
            csr_cover.steps, csr_scratch_cover.steps,
            "typed vs scratch divergence for {label}"
        );

        let csr_hit = CoverDriver::new(csr).hit_typed(
            process,
            0,
            target,
            MAX_STEPS,
            &mut StdRng::seed_from_u64(seed),
        );
        let imp_hit = CoverDriver::new(implicit).hit_typed(
            process,
            0,
            target,
            MAX_STEPS,
            &mut StdRng::seed_from_u64(seed),
        );
        assert_eq!(
            csr_hit, imp_hit,
            "hitting divergence for {label}: csr {csr_hit:?} vs implicit {imp_hit:?}"
        );
    }
}

/// Every process the implicit seam carries, on one graph pair: the
/// three rounds that bind through a graph cursor (cobra, faulty cobra
/// with loss and delay, a Bernoulli schedule) and the simple walk, which
/// binds each pebble on a fresh one.
fn assert_family_pins<G: ImplicitGraph>(gname: &str, csr: &Graph, implicit: &G) {
    for (i, k) in [1u32, 2, 3].into_iter().enumerate() {
        assert_csr_implicit_equivalence(gname, csr, implicit, &CobraWalk::new(k), i as u64);
    }
    assert_csr_implicit_equivalence(gname, csr, implicit, &SimpleWalk::new(), 10);
    let lossy = FaultPlan::none().with_pebble_loss(0.1).with_delay(0.25, 8);
    let faulty = FaultyCobraWalk::new(2, lossy);
    assert_csr_implicit_equivalence(gname, csr, implicit, &faulty, 11);
    let bernoulli = ScheduledCobraWalk::new(BranchingSchedule::Bernoulli {
        base: 1,
        extra_prob: 0.5,
    });
    assert_csr_implicit_equivalence(gname, csr, implicit, &bernoulli, 12);
}

#[test]
fn implicit_grid_matches_csr() {
    assert_family_pins(
        "grid-8x8",
        &grid::grid(&[7, 7]),
        &ImplicitGrid::new(&[7, 7]).unwrap(),
    );
    assert_family_pins(
        "grid-3x4x5",
        &grid::grid(&[2, 3, 4]),
        &ImplicitGrid::new(&[2, 3, 4]).unwrap(),
    );
}

#[test]
fn implicit_hypercube_matches_csr() {
    // Q6 is one 64-vertex block with no bits above the low six; Q10's
    // rounds read the cursor's block order and rebuild it between blocks.
    for dim in [6, 10] {
        assert_family_pins(
            &format!("hypercube-{dim}"),
            &hypercube::hypercube(dim),
            &ImplicitHypercube::new(dim).unwrap(),
        );
    }
}

#[test]
fn implicit_complete_matches_csr() {
    assert_family_pins(
        "complete-24",
        &classic::complete(24).unwrap(),
        &ImplicitComplete::new(24).unwrap(),
    );
}
