//! Graph-family abstraction for sweeps: one enum, one `build` call, with
//! conductance metadata where the family has a closed form.

use cobra_graph::generators::{classic, gnp, grid, hypercube, random_regular, trees};
use cobra_graph::{Graph, Vertex};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A graph family parameterized by a single scale knob, as used in the
/// experiment sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// `[0,n]^d` grid; scale = side extent `n`.
    Grid {
        /// Dimensionality `d`.
        d: usize,
    },
    /// `d`-dimensional torus; scale = side extent.
    Torus {
        /// Dimensionality `d`.
        d: usize,
    },
    /// Boolean hypercube; scale = dimension.
    Hypercube,
    /// Random `d`-regular graph; scale = vertex count.
    RandomRegular {
        /// Degree `d`.
        d: usize,
    },
    /// Cycle; scale = vertex count.
    Cycle,
    /// Path; scale = vertex count.
    Path,
    /// Complete graph; scale = vertex count.
    Complete,
    /// Star; scale = vertex count.
    Star,
    /// Lollipop (clique + path); scale = vertex count.
    Lollipop,
    /// Ring of cliques of fixed size; scale = number of cliques.
    RingOfCliques {
        /// Clique size.
        size: usize,
    },
    /// Complete `k`-ary tree; scale = depth.
    KaryTree {
        /// Arity `k`.
        k: usize,
    },
    /// Connected Erdős–Rényi at 3× the connectivity threshold;
    /// scale = vertex count.
    Gnp,
}

impl Family {
    /// Human-readable family name for table labels.
    pub fn name(&self) -> String {
        match self {
            Family::Grid { d } => format!("grid(d={d})"),
            Family::Torus { d } => format!("torus(d={d})"),
            Family::Hypercube => "hypercube".into(),
            Family::RandomRegular { d } => format!("random-regular(d={d})"),
            Family::Cycle => "cycle".into(),
            Family::Path => "path".into(),
            Family::Complete => "complete".into(),
            Family::Star => "star".into(),
            Family::Lollipop => "lollipop".into(),
            Family::RingOfCliques { size } => format!("ring-of-cliques(size={size})"),
            Family::KaryTree { k } => format!("{k}-ary-tree"),
            Family::Gnp => "gnp".into(),
        }
    }

    /// Build an instance at the given scale. Random families derive their
    /// randomness deterministically from `seed`.
    pub fn build(&self, scale: usize, seed: u64) -> Graph {
        match self {
            Family::Grid { d } => grid::grid(&vec![scale; *d]),
            Family::Torus { d } => grid::torus(&vec![scale; *d]),
            Family::Hypercube => hypercube::hypercube(scale as u32),
            Family::RandomRegular { d } => {
                let mut rng = StdRng::seed_from_u64(seed);
                // Bump odd n*d to the next feasible size.
                let n = if (scale * d) % 2 == 1 {
                    scale + 1
                } else {
                    scale
                };
                random_regular::random_regular(n, *d, &mut rng).expect("regular generation")
            }
            Family::Cycle => classic::cycle(scale).expect("cycle"),
            Family::Path => classic::path(scale).expect("path"),
            Family::Complete => classic::complete(scale).expect("complete"),
            Family::Star => classic::star(scale).expect("star"),
            Family::Lollipop => classic::lollipop(scale).expect("lollipop"),
            Family::RingOfCliques { size } => {
                classic::ring_of_cliques(scale, *size).expect("ring of cliques")
            }
            Family::KaryTree { k } => trees::kary_tree(*k, scale as u32).expect("kary tree"),
            Family::Gnp => {
                let mut rng = StdRng::seed_from_u64(seed);
                let n = scale.max(4);
                let p = (3.0 * (n as f64).ln() / n as f64).min(1.0);
                gnp::gnp_connected(n, p, 200, &mut rng).expect("connected gnp")
            }
        }
    }

    /// A canonical adversarial start vertex for cover experiments — the
    /// paper's cover time maximizes over start vertices.
    ///
    /// For the lollipop the hard start is **inside the clique**: covering
    /// the far path tip then requires the Θ(n³) clique→tip traversal that
    /// makes the family the simple-walk worst case. (Starting at the tip
    /// would let the walk cover the path on its way down, sidestepping
    /// the n³ behaviour entirely.)
    pub fn adversarial_start(&self, _g: &Graph) -> Vertex {
        match self {
            // A clique-interior vertex (vertex 0 carries the path; vertex
            // 1 is pure clique).
            Family::Lollipop => 1,
            // Everything else: vertex 0 is a corner (grid), root (tree),
            // hub (star) or arbitrary-by-symmetry.
            _ => 0,
        }
    }

    /// Closed-form conductance when known exactly: hypercube `1/dim`.
    pub fn exact_conductance(&self, scale: usize) -> Option<f64> {
        match self {
            Family::Hypercube => Some(hypercube::hypercube_conductance(scale as u32)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_graph::metrics;

    #[test]
    fn builds_every_family() {
        let cases: Vec<(Family, usize)> = vec![
            (Family::Grid { d: 2 }, 4),
            (Family::Torus { d: 2 }, 4),
            (Family::Hypercube, 4),
            (Family::RandomRegular { d: 3 }, 20),
            (Family::Cycle, 8),
            (Family::Path, 8),
            (Family::Complete, 8),
            (Family::Star, 8),
            (Family::Lollipop, 9),
            (Family::RingOfCliques { size: 4 }, 3),
            (Family::KaryTree { k: 2 }, 3),
            (Family::Gnp, 30),
        ];
        for (fam, scale) in cases {
            let g = fam.build(scale, 7);
            assert!(g.num_vertices() > 1, "{} empty", fam.name());
            assert!(metrics::is_connected(&g), "{} disconnected", fam.name());
            let start = fam.adversarial_start(&g);
            assert!((start as usize) < g.num_vertices());
        }
    }

    #[test]
    fn regular_family_handles_odd_parity() {
        let fam = Family::RandomRegular { d: 3 };
        let g = fam.build(21, 1); // 21*3 odd -> bumped to 22
        assert_eq!(g.num_vertices(), 22);
        assert_eq!(g.regularity(), Some(3));
    }

    #[test]
    fn names_are_distinct() {
        let fams = [
            Family::Grid { d: 2 },
            Family::Grid { d: 3 },
            Family::Hypercube,
            Family::Star,
        ];
        let names: std::collections::HashSet<_> = fams.iter().map(|f| f.name()).collect();
        assert_eq!(names.len(), fams.len());
    }

    #[test]
    fn exact_conductance_only_for_hypercube() {
        assert_eq!(Family::Hypercube.exact_conductance(5), Some(0.2));
        assert_eq!(Family::Cycle.exact_conductance(5), None);
    }

    #[test]
    fn lollipop_start_is_clique_interior() {
        let fam = Family::Lollipop;
        let g = fam.build(10, 0);
        let s = fam.adversarial_start(&g);
        // Clique interior: degree = clique size − 1, no path edge.
        assert_eq!(g.degree(s), 4);
    }
}
