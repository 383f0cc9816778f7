//! Fixture-pinned behavior of every rule: each rule has a violating
//! fixture (findings expected), a clean fixture (none), and — for the
//! seven object-level rules — a suppressed fixture (finding silenced
//! by a well-formed `lint:allow`, recorded in the audit trail).
//!
//! Fixtures live under `tests/fixtures/<rule>/` and are linted under a
//! *virtual* path chosen so the rule's scope applies; the real on-disk
//! path is excluded from workspace walks (`fixtures` directory).

use cobra_lint::lint_source;

fn fixture(rule: &str, which: &str) -> String {
    let p = format!(
        "{}/tests/fixtures/{rule}/{which}.rs",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {p}: {e}"))
}

/// Lint one fixture under a virtual path and return
/// (findings-for-rule, total-findings, suppressed-for-rule).
fn run(rule: &str, which: &str, virtual_path: &str) -> (usize, usize, usize) {
    let report = lint_source(virtual_path, &fixture(rule, which));
    let hits = report.findings.iter().filter(|f| f.rule == rule).count();
    let supp = report
        .suppressed
        .iter()
        .filter(|(f, _)| f.rule == rule)
        .count();
    (hits, report.findings.len(), supp)
}

/// A standard triple: violating fixture yields exactly `n` findings of
/// the rule (and nothing else), clean yields zero findings of any kind,
/// suppressed yields zero findings and exactly one audit entry.
fn assert_triple(rule: &str, virtual_path: &str, n: usize) {
    let (hits, total, _) = run(rule, "violation", virtual_path);
    assert_eq!(hits, n, "{rule}/violation.rs should yield {n} findings");
    assert_eq!(total, n, "{rule}/violation.rs should trip no other rule");

    let (hits, total, _) = run(rule, "clean", virtual_path);
    assert_eq!(hits, 0, "{rule}/clean.rs must be clean for {rule}");
    assert_eq!(total, 0, "{rule}/clean.rs must be clean for every rule");

    let (hits, total, supp) = run(rule, "suppressed", virtual_path);
    assert_eq!(hits, 0, "{rule}/suppressed.rs finding must be silenced");
    assert_eq!(total, 0, "{rule}/suppressed.rs must otherwise be clean");
    assert_eq!(supp, 1, "{rule}/suppressed.rs must record one audit entry");
}

#[test]
fn seed_discipline_triple() {
    // Five ad-hoc forms, including the literal e8 stray `cfg.seed ^ 0xE8`
    // whose reintroduction must fail the lint gate.
    assert_triple(
        "seed-discipline",
        "crates/cobra-bench/src/bin/e99_fixture.rs",
        5,
    );
}

#[test]
fn seed_discipline_is_scoped_to_bench_binaries() {
    // The same source under a library path is out of scope: stage-seed
    // discipline is a bench-binary contract.
    let report = lint_source(
        "crates/cobra-core/src/fixture.rs",
        &fixture("seed-discipline", "violation"),
    );
    assert!(
        report.findings.iter().all(|f| f.rule != "seed-discipline"),
        "seed-discipline must not fire outside crates/cobra-bench/src/bin/"
    );
}

#[test]
fn ordered_iteration_triple() {
    // Two for-loops over hash containers plus one unsorted method chain.
    assert_triple("ordered-iteration", "crates/cobra-core/src/fixture.rs", 3);
}

#[test]
fn atomic_artifacts_triple() {
    // One raw fs::write (the manifest form from the acceptance
    // criterion), one File::create, and one OpenOptions append.
    assert_triple(
        "atomic-artifacts",
        "crates/cobra-sim/src/runner_fixture.rs",
        3,
    );
}

#[test]
fn atomic_artifacts_exempts_fsio() {
    // The helper module itself must be allowed to call File::create.
    let report = lint_source(
        "crates/cobra-sim/src/fsio.rs",
        &fixture("atomic-artifacts", "violation"),
    );
    assert!(
        report.findings.iter().all(|f| f.rule != "atomic-artifacts"),
        "files named fsio.rs implement the atomic write and the durable append and are exempt"
    );
}

#[test]
fn no_wall_clock_triple() {
    // Instant::now and SystemTime::now.
    assert_triple("no-wall-clock", "crates/cobra-core/src/fixture.rs", 2);
}

#[test]
fn no_wall_clock_allowed_in_bench() {
    // The bench harness is where timing belongs; out of scope there.
    let report = lint_source(
        "crates/cobra-bench/src/bin/e99_fixture.rs",
        &fixture("no-wall-clock", "violation"),
    );
    assert!(
        report.findings.iter().all(|f| f.rule != "no-wall-clock"),
        "no-wall-clock must not fire in the bench harness"
    );
}

#[test]
fn unsafe_safety_triple() {
    // An uncommented unsafe block and an uncommented unsafe impl.
    assert_triple(
        "unsafe-safety-comment",
        "crates/cobra-core/src/fixture.rs",
        2,
    );
}

#[test]
fn no_unwrap_triple() {
    // Two bare unwraps.
    assert_triple("no-unwrap-in-lib", "crates/cobra-graph/src/fixture.rs", 2);
}

#[test]
fn no_unwrap_allowed_in_binaries() {
    // Binaries may unwrap: the scope is library src only.
    let report = lint_source(
        "crates/cobra-bench/src/bin/e99_fixture.rs",
        &fixture("no-unwrap-in-lib", "violation"),
    );
    assert!(
        report.findings.iter().all(|f| f.rule != "no-unwrap-in-lib"),
        "no-unwrap-in-lib must not fire in bin targets"
    );
}

#[test]
fn float_eq_triple() {
    // ==/!= against float literals and an `as f64` cast.
    assert_triple("float-eq", "crates/cobra-analysis/src/fixture.rs", 3);
}

#[test]
fn probe_discipline_triple() {
    // eprintln!, println!, and a global Atomic counter.
    assert_triple("probe-discipline", "crates/cobra-core/src/fixture.rs", 3);
}

#[test]
fn probe_discipline_is_scoped_to_engine_lib_code() {
    // Bench binaries print their reports; the rule is an engine-library
    // contract.
    let report = lint_source(
        "crates/cobra-bench/src/bin/e99_fixture.rs",
        &fixture("probe-discipline", "violation"),
    );
    assert!(
        report.findings.iter().all(|f| f.rule != "probe-discipline"),
        "probe-discipline must not fire outside engine library code"
    );
}

#[test]
fn bad_suppression_violations() {
    // A typo'd rule name and a missing reason: both are findings, and
    // neither malformed directive silences the underlying violation.
    let report = lint_source(
        "crates/cobra-sim/src/runner_fixture.rs",
        &fixture("bad-suppression", "violation"),
    );
    let bad = report
        .findings
        .iter()
        .filter(|f| f.rule == "bad-suppression")
        .count();
    let atomic = report
        .findings
        .iter()
        .filter(|f| f.rule == "atomic-artifacts")
        .count();
    assert_eq!(bad, 2, "unknown rule + missing reason are both findings");
    assert_eq!(atomic, 2, "malformed allows must not silence anything");
    assert!(report.suppressed.is_empty());
}

#[test]
fn bad_suppression_ignores_prose_mentions() {
    // Doc text that merely mentions the directive syntax mid-sentence
    // is not a directive.
    let report = lint_source(
        "crates/cobra-sim/src/runner_fixture.rs",
        &fixture("bad-suppression", "clean"),
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert!(report.suppressed.is_empty());
}

#[test]
fn json_report_carries_fixture_findings() {
    // The machine-readable report names the rule, path, and line of
    // each finding under the versioned schema.
    let report = lint_source(
        "crates/cobra-analysis/src/fixture.rs",
        &fixture("float-eq", "violation"),
    );
    let json = report.to_json();
    assert!(
        json.contains("\"schema\": \"cobra-lint/findings-v1\""),
        "{json}"
    );
    assert!(json.contains("\"rule\": \"float-eq\""), "{json}");
    assert!(json.contains("cobra-analysis"), "{json}");
}
