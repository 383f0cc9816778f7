//! Cross-crate property-based tests (proptest): invariants that must hold
//! for *every* randomly generated instance, not just the pinned cases of
//! the unit suites.

use cobra_repro::graph::builder::from_edges;
use cobra_repro::graph::generators::gnp;
use cobra_repro::graph::metrics::{
    bfs_distances, conductance_exact, connected_components, is_connected, largest_component,
    sweep_conductance,
};
use cobra_repro::graph::{Graph, GraphBuilder};
use cobra_repro::walks::{CobraWalk, StateView, TypedProcess, TypedState, WaltProcess};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};

/// Strategy: a random simple undirected graph as (n, edge list).
fn arb_graph(max_n: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2..max_n).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..(3 * n))
            .prop_map(move |raw| raw.into_iter().filter(|(a, b)| a != b).collect::<Vec<_>>());
        (Just(n), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_matches_adjacency_map_oracle((n, edges) in arb_graph(40)) {
        let g = from_edges(n, &edges).unwrap();
        // Oracle: BTreeMap of sets.
        let mut oracle: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
        for &(a, b) in &edges {
            oracle.entry(a).or_default().insert(b);
            oracle.entry(b).or_default().insert(a);
        }
        let oracle_edges: usize = oracle.values().map(|s| s.len()).sum::<usize>() / 2;
        prop_assert_eq!(g.num_edges(), oracle_edges);
        for v in 0..n as u32 {
            let expect: Vec<u32> = oracle.get(&v).map(|s| s.iter().copied().collect()).unwrap_or_default();
            prop_assert_eq!(g.neighbors(v), &expect[..]);
        }
    }

    #[test]
    fn builder_and_from_edges_agree((n, edges) in arb_graph(30)) {
        let a = from_edges(n, &edges).unwrap();
        let mut b = GraphBuilder::new(n);
        for &(x, y) in &edges {
            b.add_edge(x, y).unwrap();
        }
        let b = b.build().unwrap();
        prop_assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }

    #[test]
    fn components_partition_the_graph((n, edges) in arb_graph(40)) {
        let g = from_edges(n, &edges).unwrap();
        let (labels, k) = connected_components(&g);
        prop_assert_eq!(labels.len(), n);
        prop_assert!(labels.iter().all(|&l| (l as usize) < k));
        // Edge endpoints share a component.
        for (u, v) in g.edges() {
            prop_assert_eq!(labels[u as usize], labels[v as usize]);
        }
        // Largest component really is the largest.
        let (sub, mapping) = largest_component(&g);
        let mut sizes = vec![0usize; k];
        for &l in &labels {
            sizes[l as usize] += 1;
        }
        prop_assert_eq!(sub.num_vertices(), sizes.iter().copied().max().unwrap_or(0));
        prop_assert!(is_connected(&sub) || sub.num_vertices() <= 1);
        prop_assert_eq!(mapping.len(), sub.num_vertices());
    }

    #[test]
    fn bfs_distances_satisfy_triangle_rule((n, edges) in arb_graph(30)) {
        let g = from_edges(n, &edges).unwrap();
        let dist = bfs_distances(&g, 0);
        for (u, v) in g.edges() {
            let du = dist[u as usize];
            let dv = dist[v as usize];
            // Adjacent vertices differ by at most 1 when both reachable.
            if du != u32::MAX && dv != u32::MAX {
                prop_assert!(du.abs_diff(dv) <= 1);
            } else {
                // One endpoint reachable forces the other reachable.
                prop_assert_eq!(du, dv);
            }
        }
    }

    #[test]
    fn sweep_conductance_upper_bounds_exact((n, edges) in arb_graph(12)) {
        let g = from_edges(n, &edges).unwrap();
        if g.num_edges() == 0 || !is_connected(&g) {
            return Ok(());
        }
        let exact = conductance_exact(&g).unwrap();
        let order: Vec<u32> = g.vertices().collect();
        let sweep = sweep_conductance(&g, &order).unwrap();
        prop_assert!(sweep >= exact - 1e-12, "sweep {} < exact {}", sweep, exact);
        prop_assert!(exact > 0.0 && exact <= 1.0 + 1e-12);
    }

    #[test]
    fn cobra_active_set_invariants(seed in 0u64..500, k in 1u32..4) {
        // On a random connected graph, the cobra active set never dies,
        // never exceeds k·|prev| and stays inside the vertex set.
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gnp::gnp_connected(30, 0.2, 100, &mut rng).unwrap();
        let spec = CobraWalk::new(k);
        let mut st = spec.spawn_typed(&g, 0);
        let mut prev = st.active().len();
        for _ in 0..40 {
            st.step(&g, &mut rng);
            let cur = st.active().len();
            prop_assert!(cur >= 1);
            prop_assert!(cur <= (k as usize) * prev);
            let mut seen = std::collections::HashSet::new();
            for v in st.active().to_vec() {
                prop_assert!((v as usize) < g.num_vertices());
                prop_assert!(seen.insert(v), "duplicate in active set");
            }
            prev = cur;
        }
    }

    #[test]
    fn walt_conserves_pebbles_on_random_graphs(seed in 0u64..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gnp::gnp_connected(25, 0.25, 100, &mut rng).unwrap();
        let spec = WaltProcess::with_count(9);
        let mut st = spec.spawn_typed(&g, 3);
        for _ in 0..60 {
            st.step(&g, &mut rng);
            prop_assert_eq!(st.active().len(), 9);
            for v in st.active().to_vec() {
                prop_assert!((v as usize) < g.num_vertices());
            }
        }
    }
}

/// Non-proptest guard: empty graph behaves.
#[test]
fn empty_graph_edge_cases() {
    let g = Graph::empty(0);
    assert_eq!(g.num_vertices(), 0);
    let (labels, k) = connected_components(&g);
    assert!(labels.is_empty());
    assert_eq!(k, 0);
}
