//! Waiting out the host's busy phases. On a shared 2-core VM, other
//! tenants slow the engine's kernels by up to 1.8× in phases that last
//! tens of seconds, long enough to cover a whole run. A high-ILP probe
//! loop tells the two states apart: its fastest pass in a few
//! milliseconds reads about 1.5× its quiet time all through a busy phase.
//! Before each timed repetition the benchmark probes the host and, while
//! the host is busy, waits, up to a fixed budget per run. The probe is
//! the benchmark's own code, so no change to the engine can move it.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Passes per probe; the fastest counts.
const PASSES: usize = 5;
/// Fastest probe pass on an unloaded 2-core Xeon VM at 2.0 GHz, the host
/// the bounds in `BENCHMARK.json` were set on.
const QUIET_NS: f64 = 750_000.0;
/// A probe slower than this many times the quiet pass means a busy host.
const BUSY: f64 = 1.25;

/// One pass of the probe loop: eight independent xorshift streams over a
/// 2 KiB table, so it keeps every execution port busy like the engine's
/// lane and frontier kernels do.
fn pass_ns(table: &mut [u64; 256]) -> f64 {
    let t = Instant::now();
    let x = 0x9E37_79B9_7F4A_7C15u64;
    let mut st = [x, x ^ 1, x ^ 2, x ^ 3, x ^ 4, x ^ 5, x ^ 6, x ^ 7];
    let mut acc = [0u64; 8];
    for _ in 0..1 << 16 {
        for j in 0..8 {
            st[j] ^= st[j] << 13;
            st[j] ^= st[j] >> 7;
            st[j] ^= st[j] << 17;
            let i = (st[j] as usize) & 255;
            acc[j] = (acc[j] | table[i]) & st[j].rotate_left(j as u32);
            table[(i + j) & 255] ^= acc[j];
        }
    }
    black_box(acc);
    t.elapsed().as_nanos() as f64
}

/// The per-run waiting budget and what has been spent of it.
#[derive(Debug)]
pub struct Gate {
    budget_s: f64,
    waited_s: f64,
    /// Fastest probe pass seen in this run: on a faster host than the
    /// calibrated one, the quiet reference.
    fastest_ns: f64,
    table: [u64; 256],
}

impl Gate {
    pub fn new(budget_s: f64) -> Gate {
        Gate {
            budget_s,
            waited_s: 0.0,
            fastest_ns: f64::INFINITY,
            table: [0; 256],
        }
    }

    /// The fastest of [`PASSES`] probe passes, now.
    fn probe_ns(&mut self) -> f64 {
        let fastest = (0..PASSES)
            .map(|_| pass_ns(&mut self.table))
            .fold(f64::INFINITY, f64::min);
        self.fastest_ns = self.fastest_ns.min(fastest);
        fastest
    }

    /// Return once the host is quiet or the run's budget is spent.
    pub fn wait_quiet(&mut self) {
        let started = Instant::now();
        while self.waited_s + started.elapsed().as_secs_f64() < self.budget_s {
            let probe = self.probe_ns();
            if probe <= BUSY * QUIET_NS.min(self.fastest_ns) {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        self.waited_s += started.elapsed().as_secs_f64();
    }

    /// The run's waits for a quiet host, for the report.
    pub fn summary(&self) -> String {
        format!(
            "waited {:.2} s of a {:.2} s budget for a quiet host; fastest probe pass {:.0} us (quiet {:.0} us)",
            self.waited_s,
            self.budget_s,
            self.fastest_ns / 1e3,
            QUIET_NS / 1e3
        )
    }
}
