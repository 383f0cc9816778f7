//! Rule scoping: which invariants apply to which workspace paths.
//!
//! The scoping is *part of the contract*, not configuration — it
//! encodes where each invariant is load-bearing (wall-clock reads are
//! fine in the bench harness, fatal in an engine crate), so it lives in
//! code next to the rules rather than in a config file someone can
//! drift.

/// Path-derived facts about one source file.
#[derive(Clone, Copy, Debug)]
pub struct PathScope<'a> {
    /// Workspace-relative path, `/`-separated.
    pub path: &'a str,
    /// Crate name for `crates/<name>/…` paths; `None` for the umbrella
    /// crate's `src/`, `tests/`, `examples/`.
    pub krate: Option<&'a str>,
    /// Inside some `src/bin/` directory (experiment/bench binaries).
    pub is_bin: bool,
    /// An integration test, bench, or example — code whose panics and
    /// timing cannot affect recorded experiment outcomes.
    pub is_test_code: bool,
    /// The file's basename.
    pub file_name: &'a str,
}

impl<'a> PathScope<'a> {
    /// Classify a workspace-relative path.
    pub fn of(path: &'a str) -> PathScope<'a> {
        let krate = path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next());
        let is_bin = path.contains("/src/bin/");
        let is_test_code = path.starts_with("tests/")
            || path.contains("/tests/")
            || path.starts_with("examples/")
            || path.contains("/examples/")
            || path.contains("/benches/");
        let file_name = path.rsplit('/').next().unwrap_or(path);
        PathScope {
            path,
            krate,
            is_bin,
            is_test_code,
            file_name,
        }
    }

    /// Library source: under some crate's `src/` (not `src/bin/`) or the
    /// umbrella `src/`.
    fn is_lib_src(&self) -> bool {
        !self.is_bin
            && !self.is_test_code
            && (self.path.contains("/src/") || self.path.starts_with("src/"))
    }

    /// The crates whose outputs are experiment outcomes: any wall-clock
    /// read there is a determinism hazard. The bench harness
    /// (`cobra-bench`) and the linter itself are excluded — timing is
    /// their job.
    fn is_outcome_crate(&self) -> bool {
        matches!(
            self.krate,
            Some(
                "cobra-core"
                    | "cobra-graph"
                    | "cobra-sim"
                    | "cobra-analysis"
                    | "cobra-spectral"
                    | "cobra-obs"
            )
        ) || (self.krate.is_none() && self.path.starts_with("src/"))
    }

    /// seed-discipline: experiment and bench binaries must derive every
    /// seed through `cobra_bench::stages` / `SeedSequence`.
    pub fn check_seed_discipline(&self) -> bool {
        self.path.starts_with("crates/cobra-bench/src/bin/")
    }

    /// ordered-iteration: engine and simulation crates must not iterate
    /// hash containers in outcome-affecting (non-test) code.
    pub fn check_ordered_iteration(&self) -> bool {
        matches!(self.krate, Some("cobra-core" | "cobra-sim")) && !self.is_test_code
    }

    /// atomic-artifacts: artifact writes go through an `fsio.rs`
    /// (write-temp-fsync-rename, or the durable append); raw `fs::write`
    /// / `File::create` / `OpenOptions::new` are banned everywhere else
    /// outside test code.
    pub fn check_atomic_artifacts(&self) -> bool {
        !self.is_test_code && self.file_name != "fsio.rs"
    }

    /// no-wall-clock: `Instant::now` / `SystemTime::now` are banned in
    /// outcome-affecting crates.
    pub fn check_no_wall_clock(&self) -> bool {
        self.is_outcome_crate() && !self.is_test_code
    }

    /// unsafe-safety-comment applies everywhere first-party.
    pub fn check_unsafe_safety(&self) -> bool {
        true
    }

    /// no-unwrap-in-lib: library crates surface errors as `Result` or
    /// `expect` with a message; bare `unwrap` is confined to tests,
    /// benches, examples, and binaries.
    pub fn check_no_unwrap(&self) -> bool {
        self.is_lib_src()
    }

    /// probe-discipline: the engine crates (and the probe crate itself)
    /// report events through the `cobra_obs::Probe` seam — no ad-hoc
    /// console telemetry or global Atomic counters in library code.
    /// Bench binaries print their reports; tests assert however they
    /// like.
    pub fn check_probe_discipline(&self) -> bool {
        matches!(self.krate, Some("cobra-core" | "cobra-sim" | "cobra-obs")) && self.is_lib_src()
    }

    /// float-eq: exact float comparison is banned in the statistics
    /// paths (`cobra-analysis`, plus `cobra-sim`'s stats module).
    pub fn check_float_eq(&self) -> bool {
        (matches!(self.krate, Some("cobra-analysis")) && !self.is_test_code)
            || self.path == "crates/cobra-sim/src/stats.rs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        let s = PathScope::of("crates/cobra-bench/src/bin/e8_lollipop.rs");
        assert_eq!(s.krate, Some("cobra-bench"));
        assert!(s.is_bin);
        assert!(s.check_seed_discipline());
        assert!(!s.check_no_unwrap());
        assert!(!s.check_no_wall_clock());
        assert!(s.check_atomic_artifacts());

        let s = PathScope::of("crates/cobra-core/src/lanes.rs");
        assert!(s.check_ordered_iteration());
        assert!(s.check_no_wall_clock());
        assert!(s.check_no_unwrap());
        assert!(!s.check_seed_discipline());

        let s = PathScope::of("crates/cobra-sim/src/fsio.rs");
        assert!(!s.check_atomic_artifacts());
        assert!(s.check_no_unwrap());

        let s = PathScope::of("tests/zero_alloc.rs");
        assert!(s.is_test_code);
        assert!(!s.check_no_unwrap());
        assert!(s.check_unsafe_safety());
        assert!(!s.check_atomic_artifacts());

        let s = PathScope::of("crates/cobra-analysis/src/fit.rs");
        assert!(s.check_float_eq());
        let s = PathScope::of("crates/cobra-sim/src/stats.rs");
        assert!(s.check_float_eq());
        let s = PathScope::of("crates/cobra-sim/src/runner.rs");
        assert!(!s.check_float_eq());

        let s = PathScope::of("src/lib.rs");
        assert_eq!(s.krate, None);
        assert!(s.check_no_wall_clock());
        assert!(s.check_no_unwrap());

        let s = PathScope::of("crates/cobra-bench/src/orchestrator.rs");
        assert!(!s.check_no_wall_clock());
        assert!(s.check_no_unwrap());
        assert!(!s.check_probe_discipline());

        let s = PathScope::of("crates/cobra-obs/src/lib.rs");
        assert!(s.check_no_wall_clock());
        assert!(s.check_probe_discipline());
        let s = PathScope::of("crates/cobra-core/src/cobra.rs");
        assert!(s.check_probe_discipline());
        let s = PathScope::of("crates/cobra-core/tests/walks.rs");
        assert!(!s.check_probe_discipline());
    }
}
