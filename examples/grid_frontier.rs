//! Watch a 2-cobra walk sweep a 2-d grid (§3 of the paper, live).
//!
//! Renders the `[0,n]²` grid as ASCII frames while the walk spreads:
//! `#` = active this round, `.` = covered earlier, ` ` = never visited.
//! The linear-in-n cover time of Theorem 3 is visible as a roughly
//! constant-speed frontier.
//!
//! ```sh
//! cargo run --release --example grid_frontier
//! ```

use cobra_repro::graph::generators::grid::{grid, GridShape};
use cobra_repro::walks::{CobraWalk, StateView, TypedProcess, TypedState};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let extent = 30usize; // [0,30]² = 31×31 grid
    let shape = GridShape::new(&[extent, extent]).expect("valid shape");
    let g = grid(&[extent, extent]);
    let n = g.num_vertices();

    let mut rng = StdRng::seed_from_u64(7);
    let process = CobraWalk::standard();
    let mut state = process.spawn_typed(&g, 0); // start at corner (0,0)

    let mut covered = vec![false; n];
    covered[0] = true;
    let mut covered_count = 1usize;
    let mut round = 0usize;
    let frames = [5usize, 15, 30, 50, 80, 120];

    while covered_count < n && round < 100_000 {
        state.step(&g, &mut rng);
        round += 1;
        let active = state.active().to_vec();
        for &v in &active {
            if !covered[v as usize] {
                covered[v as usize] = true;
                covered_count += 1;
            }
        }
        if frames.contains(&round) {
            println!(
                "--- round {round}: {covered_count}/{n} covered, {} active ---",
                active.len()
            );
            render(&shape, extent, &covered, &active);
        }
    }
    println!(
        "covered the whole [0,{extent}]² grid in {round} rounds \
         (diameter {}, Theorem 3 predicts O(n) = O({extent}))",
        2 * extent
    );
}

fn render(shape: &GridShape, extent: usize, covered: &[bool], active: &[u32]) {
    let mut canvas: Vec<Vec<char>> = (0..=extent)
        .map(|y| {
            (0..=extent)
                .map(|x| {
                    let idx = shape.index_of(&[x, y]) as usize;
                    if covered[idx] {
                        '.'
                    } else {
                        ' '
                    }
                })
                .collect()
        })
        .collect();
    for &v in active {
        let c = shape.coords_of(v);
        canvas[c[1]][c[0]] = '#';
    }
    for row in canvas {
        println!("{}", row.into_iter().collect::<String>());
    }
    println!();
}
