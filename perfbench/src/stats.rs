//! The benchmark's statistics: the batch-means design-effect estimator
//! shared by the end-to-end and traced runs, the run-level time of a
//! cell, and the timing summaries (median, p90, sample count) every
//! per-layer timing is reported as.

/// Trials per block of the design-effect estimator: one 64-lane batch of
/// the lane engine, the unit its trials are correlated within.
pub const BLOCK: usize = 64;

/// Batch-means design effect of an outcome stream in global trial order:
/// the variance of the `block`-trial block means divided by `σ²/block`,
/// where `σ²` is the per-trial variance (both taken over all blocks, so
/// blocks of identical trials give exactly `block`). Independent trials
/// give about 1; trials that move together within a block give up to
/// `block`.
///
/// Only whole blocks are used; `None` when fewer than two blocks exist or
/// the per-trial variance is zero.
pub fn design_effect(xs: &[f64], block: usize) -> Option<f64> {
    let blocks = xs.len() / block;
    if blocks < 2 {
        return None;
    }
    let used = &xs[..blocks * block];
    let mean = used.iter().sum::<f64>() / used.len() as f64;
    let var = used.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / used.len() as f64;
    if var <= 0.0 {
        return None;
    }
    let block_var = used
        .chunks_exact(block)
        .map(|c| {
            let m = c.iter().sum::<f64>() / block as f64 - mean;
            m * m
        })
        .sum::<f64>()
        / blocks as f64;
    Some(block_var / (var / block as f64))
}

/// Standard error of [`design_effect`] under normal block means:
/// `DE · √(2 / (blocks − 1))`.
pub fn design_effect_se(de: f64, blocks: usize) -> f64 {
    de * (2.0 / (blocks.max(2) - 1) as f64).sqrt()
}

/// Batch-means standard error of the mean of `xs`: the standard
/// deviation of its `block`-trial block means over `√blocks`.
pub fn batch_means_se(xs: &[f64], block: usize) -> Option<f64> {
    let blocks = xs.len() / block;
    if blocks < 2 {
        return None;
    }
    let means: Vec<f64> = xs[..blocks * block]
        .chunks_exact(block)
        .map(|c| c.iter().sum::<f64>() / block as f64)
        .collect();
    let (_, var) = mean_var(&means)?;
    Some((var / blocks as f64).sqrt())
}

/// Sample mean and unbiased variance; `None` for fewer than two values.
pub fn mean_var(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
    Some((mean, var))
}

/// Linear-interpolated quantile of an unsorted sample (`q` in `[0, 1]`).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    cobra_sim::quantile_sorted(&v, q)
}

/// Median of an unsorted sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The run-level statistic of a timed piece of work: its best (least)
/// time over the run's repetitions. Every repetition repeats the same
/// deterministic work, and other tenants of a shared host only ever slow
/// it down: on a 2-core VM, a busy neighbor on the sibling hyperthread
/// slows the engine's kernels by up to 1.6× in phases from milliseconds
/// to minutes long, and the process's CPU time grows with its wall time
/// when it does. Taken per cell, the best time moves only if a slow phase
/// covers every repetition of that cell.
pub fn best(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "best of no times");
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Geometric mean of positive values.
pub fn geo_mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty() && xs.iter().all(|&x| x > 0.0));
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// A timing distribution as reported: median and p90 with the count.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    pub median: f64,
    pub p90: f64,
    pub n: usize,
}

impl Timing {
    /// Summarize a non-empty sample.
    pub fn of(xs: &[f64]) -> Timing {
        Timing {
            median: quantile(xs, 0.5),
            p90: quantile(xs, 0.9),
            n: xs.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_graph::generators::{classic, grid};
    use cobra_sim::SeedSequence;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn iid_outcomes_land_near_one() {
        // Sixteen independent iid streams: their estimates centre on 1
        // within √(2/(blocks−1)), and scatter by about that much.
        let blocks = 200;
        let tol = (2.0 / (blocks - 1) as f64).sqrt();
        let mut rng = StdRng::seed_from_u64(7);
        let des: Vec<f64> = (0..16)
            .map(|_| {
                let xs: Vec<f64> = (0..blocks * BLOCK)
                    .map(|_| rng.random::<f64>() * 10.0)
                    .collect();
                design_effect(&xs, BLOCK).expect("enough blocks")
            })
            .collect();
        let (mean, var) = mean_var(&des).unwrap();
        assert!((mean - 1.0).abs() <= tol, "mean {mean}, tolerance {tol}");
        assert!(des.iter().all(|d| (d - 1.0).abs() <= 4.0 * tol), "{des:?}");
        let sd = var.sqrt();
        assert!(sd > tol / 2.0 && sd < 2.0 * tol, "scatter {sd} vs {tol}");
        assert!((design_effect_se(1.0, blocks) - tol).abs() < 1e-12);
    }

    #[test]
    fn identical_blocks_give_the_block_size() {
        // Every trial of a block equals the block's value: the block mean
        // carries one trial's worth of information, so DE = 64.
        let mut rng = StdRng::seed_from_u64(3);
        let xs: Vec<f64> = (0..50)
            .flat_map(|_| {
                let v = rng.random::<f64>();
                std::iter::repeat_n(v, BLOCK)
            })
            .collect();
        let de = design_effect(&xs, BLOCK).expect("enough blocks");
        assert!((de - BLOCK as f64).abs() < 1e-9, "design effect {de}");
    }

    #[test]
    fn too_few_blocks_or_constant_data_give_none() {
        assert!(design_effect(&[1.0; 100], BLOCK).is_none());
        assert!(design_effect(&[2.0; 640], BLOCK).is_none());
        assert!(batch_means_se(&[1.0; 64], BLOCK).is_none());
    }

    #[test]
    fn batch_means_se_matches_hand_computation() {
        // Two blocks with means 1 and 3: variance of means 2, SE = √(2/2).
        let mut xs = vec![1.0; BLOCK];
        xs.extend(vec![3.0; BLOCK]);
        let se = batch_means_se(&xs, BLOCK).unwrap();
        assert!((se - 1.0).abs() < 1e-12, "{se}");
    }

    #[test]
    fn lane_cells_reproduce_the_roadmap_table() {
        // 2-cobra cover from vertex 0, 600 batches × 64 lanes per cell,
        // seeded as the runner seeds them. The reference values were
        // measured the same way; the two estimates must agree within
        // three combined standard errors.
        let batches = 600;
        let cells = [
            ("complete_64", classic::complete(64).unwrap(), 1.5),
            ("grid_16x16", grid::grid(&[15, 15]), 6.1),
            ("cycle_256", classic::cycle(256).unwrap(), 7.6),
            ("star_256", classic::star(256).unwrap(), 23.0),
        ];
        for (i, (name, g, reference)) in cells.into_iter().enumerate() {
            let seed = SeedSequence::new(0xDE).child(i as u64).seed_at(0);
            let xs = lane_stream(&g, seed, batches);
            let de = design_effect(&xs, BLOCK).unwrap();
            let se = design_effect_se(de, batches).hypot(design_effect_se(reference, batches));
            assert!(
                (de - reference).abs() <= 3.0 * se,
                "{name}: design effect {de:.2} vs {reference} (se {se:.2})"
            );
        }
    }

    /// The lane runner's per-trial stream, rebuilt batch by batch with the
    /// runner's seeding.
    fn lane_stream(g: &cobra_graph::Graph, seed: u64, batches: usize) -> Vec<f64> {
        let sampler = cobra_graph::NeighborSampler::new(g);
        let mut scratch = cobra_core::LaneScratch::new(g);
        let seq = SeedSequence::new(seed);
        let mut xs = Vec::with_capacity(batches * BLOCK);
        for b in 0..batches {
            let mut rng = seq.rng_at(b as u64);
            let out = cobra_core::run_lane_cover(
                g,
                &sampler,
                2,
                0,
                u64::MAX,
                1_000_000,
                &mut scratch,
                &mut rng,
            );
            xs.extend((0..BLOCK).map(|j| out.cover_time(j).expect("covered") as f64));
        }
        xs
    }
}
