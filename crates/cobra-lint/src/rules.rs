//! The invariant rules. Each rule is a pure function over a
//! [`FileCtx`] that appends [`Finding`]s; scoping (which paths a rule
//! runs on) lives in [`crate::config`], suppression filtering in the
//! driver ([`crate::lint_source`]).

use crate::context::FileCtx;
use crate::findings::Finding;
use crate::lexer::TokKind;

/// One rule's registry entry.
pub struct RuleInfo {
    /// The name used in diagnostics and `lint:allow(name, reason)`.
    pub name: &'static str,
    /// One-line description for `--list-rules` and the README.
    pub summary: &'static str,
}

/// Every rule the linter knows, including the meta-rule that validates
/// suppression comments themselves.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "seed-discipline",
        summary: "experiment/bench binaries derive seeds only via cobra_bench::stages or SeedSequence — no ad-hoc XOR/offset arithmetic on seeds",
    },
    RuleInfo {
        name: "ordered-iteration",
        summary: "no HashMap/HashSet iteration in cobra-core/cobra-sim non-test code without a sort or an inline allow",
    },
    RuleInfo {
        name: "atomic-artifacts",
        summary: "no raw fs::write/File::create/OpenOptions::new outside fsio.rs — artifacts go through write-temp-fsync-rename or the durable append",
    },
    RuleInfo {
        name: "no-wall-clock",
        summary: "no Instant::now/SystemTime::now in outcome-affecting crates (timing belongs to the bench harness)",
    },
    RuleInfo {
        name: "unsafe-safety-comment",
        summary: "every unsafe block/impl carries a `// SAFETY:` justification",
    },
    RuleInfo {
        name: "no-unwrap-in-lib",
        summary: "library crates use Result or expect-with-message; bare unwrap is confined to tests and binaries",
    },
    RuleInfo {
        name: "float-eq",
        summary: "no ==/!= against floats in the statistics paths",
    },
    RuleInfo {
        name: "probe-discipline",
        summary: "no ad-hoc console telemetry (println!/eprintln!/dbg!) or global Atomic counters in engine code — events go through the cobra_obs::Probe seam",
    },
    RuleInfo {
        name: "bad-suppression",
        summary: "lint:allow comments must name a known rule and give a non-empty reason",
    },
];

/// Whether `name` is a registered rule.
pub fn is_known_rule(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

fn push(out: &mut Vec<Finding>, rule: &'static str, ctx: &FileCtx, i: usize, message: String) {
    let t = &ctx.toks[i];
    out.push(Finding {
        rule,
        path: ctx.path.clone(),
        line: t.line,
        col: t.col,
        message,
    });
}

/// Binary arithmetic/bitwise operators that, applied to a seed, escape
/// the stage registry's disjointness proof.
const SEED_OPS: &[&str] = &["^", "+", "-", "*", "|", "&", "<<", ">>", "%"];

/// Integer methods that implement the same ad-hoc derivations as
/// operators.
const SEED_METHODS: &[&str] = &[
    "wrapping_add",
    "wrapping_sub",
    "wrapping_mul",
    "rotate_left",
    "rotate_right",
    "swap_bytes",
    "reverse_bits",
];

/// Does the token *before* an operator put that operator in binary
/// position (`x ^ seed`) rather than unary (`&seed`, `*seed`, `-x`)?
fn is_operand_end(ctx: &FileCtx, i: usize) -> bool {
    ctx.tok(i).is_some_and(|t| match t.kind {
        TokKind::Ident | TokKind::Int | TokKind::Float | TokKind::Str | TokKind::Char => true,
        TokKind::Punct => matches!(t.text.as_str(), ")" | "]"),
        _ => false,
    })
}

/// seed-discipline: flag arithmetic on identifiers named `seed` (or
/// `*_seed`) in experiment binaries.
pub fn seed_discipline(ctx: &FileCtx, out: &mut Vec<Finding>) {
    for i in 0..ctx.toks.len() {
        let t = &ctx.toks[i];
        if t.kind != TokKind::Ident || ctx.in_test[i] {
            continue;
        }
        if t.text != "seed" && !t.text.ends_with("_seed") {
            continue;
        }
        // The registry entry point is the sanctioned derivation, not a
        // seed variable.
        if t.text == "stage_seed" {
            continue;
        }
        // Walk back over a field-access chain so `x ^ cfg.seed` anchors
        // the preceding-operator check at `cfg`, not at `.`.
        let mut head = i;
        while head >= 2 && ctx.is_punct(head - 1, ".") && ctx.toks[head - 2].kind == TokKind::Ident
        {
            head -= 2;
        }
        // `|seed|` closure parameters are bindings, not bitwise-or.
        let closure_param = ctx.is_punct(i + 1, "|") && i >= 1 && ctx.is_punct(i - 1, "|");
        let flagged = // seed <op> …
            (!closure_param
                && ctx.toks.get(i + 1).is_some_and(|n| {
                    n.kind == TokKind::Punct && SEED_OPS.contains(&n.text.as_str())
                }))
            // … <op> seed (or <op> cfg.seed), with the op in binary
            // position. `|` is excluded here: a closure's closing
            // delimiter (`|s| stage_seed(s, …)`) is indistinguishable
            // from bitwise-or by tokens alone, and or-ing seeds is not
            // an observed idiom.
            || (head >= 2
                && ctx.toks[head - 1].kind == TokKind::Punct
                && ctx.toks[head - 1].text != "|"
                && SEED_OPS.contains(&ctx.toks[head - 1].text.as_str())
                && is_operand_end(ctx, head - 2))
            // seed.wrapping_add(…) and friends
            || (ctx.is_punct(i + 1, ".")
                && ctx.toks.get(i + 2).is_some_and(|m| {
                    m.kind == TokKind::Ident && SEED_METHODS.contains(&m.text.as_str())
                }));
        if flagged {
            push(
                out,
                "seed-discipline",
                ctx,
                i,
                format!(
                    "ad-hoc arithmetic on `{}` — derive per-stage seeds via \
                     cobra_bench::stages::stage_seed (or SeedSequence::child), which owns a \
                     registered disjoint label block",
                    t.text
                ),
            );
        }
    }
}

/// Methods whose receiver order is the hash container's arbitrary
/// iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Idents that signal the iteration result is re-ordered before use.
fn is_sortish(text: &str) -> bool {
    text.starts_with("sort") || text == "BTreeMap" || text == "BTreeSet"
}

/// Collect the names of locals and struct fields whose declarations
/// mention `HashMap`/`HashSet`.
fn hash_bound_names(ctx: &FileCtx) -> Vec<String> {
    let mut names = Vec::new();
    for i in 0..ctx.toks.len() {
        let t = &ctx.toks[i];
        if t.kind != TokKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        // Walk back a short window looking for `name :` or `let [mut] name`
        // starting the binding this type annotation/constructor belongs to.
        let lo = i.saturating_sub(16);
        for j in (lo..i).rev() {
            let tj = &ctx.toks[j];
            if tj.kind == TokKind::Punct && (tj.text == ";" || tj.text == "{" || tj.text == "}") {
                break;
            }
            if tj.kind == TokKind::Ident && tj.text == "let" {
                let mut k = j + 1;
                if ctx.is_ident(k, "mut") {
                    k += 1;
                }
                if let Some(name) = ctx.tok(k).filter(|n| n.kind == TokKind::Ident) {
                    names.push(name.text.clone());
                }
                break;
            }
            if tj.kind == TokKind::Punct
                && tj.text == ":"
                && j >= 1
                && ctx.toks[j - 1].kind == TokKind::Ident
            {
                names.push(ctx.toks[j - 1].text.clone());
                break;
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// Scan forward from `start` across up to `stmts` statement terminators,
/// returning true if a sort-ish identifier appears (the collect-then-sort
/// idiom spans two statements).
fn sorted_downstream(ctx: &FileCtx, start: usize, stmts: usize) -> bool {
    let mut seen_semis = 0usize;
    for j in start..ctx.toks.len() {
        let t = &ctx.toks[j];
        if t.kind == TokKind::Ident && is_sortish(&t.text) {
            return true;
        }
        if t.kind == TokKind::Punct && t.text == ";" {
            seen_semis += 1;
            if seen_semis >= stmts {
                return false;
            }
        }
    }
    false
}

/// ordered-iteration: iterating a hash container's arbitrary order in
/// engine/simulation code is a nondeterminism hazard.
pub fn ordered_iteration(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let names = hash_bound_names(ctx);
    if names.is_empty() {
        return;
    }
    let named =
        |t: &crate::lexer::Tok| t.kind == TokKind::Ident && names.iter().any(|n| n == &t.text);
    // Tokens inside a `for … in <expr> {` header: the for-loop branch
    // owns those, so the method-chain branch below must not re-report
    // `for x in map.values()` a second time.
    let mut in_for_header = vec![false; ctx.toks.len()];
    for i in 0..ctx.toks.len() {
        if ctx.in_test[i] {
            continue;
        }
        let t = &ctx.toks[i];
        // `for … in <expr containing a hash name> {`
        if t.kind == TokKind::Ident && t.text == "for" {
            let Some(inpos) = (i + 1..ctx.toks.len().min(i + 32)).find(|&j| ctx.is_ident(j, "in"))
            else {
                continue;
            };
            let Some(body) = (inpos + 1..ctx.toks.len()).find(|&j| ctx.is_punct(j, "{")) else {
                continue;
            };
            for flag in &mut in_for_header[inpos + 1..body] {
                *flag = true;
            }
            if ctx.toks[inpos + 1..body].iter().any(named)
                && !ctx.toks[inpos + 1..body]
                    .iter()
                    .any(|t| t.kind == TokKind::Ident && is_sortish(&t.text))
            {
                push(
                    out,
                    "ordered-iteration",
                    ctx,
                    i,
                    "for-loop over a HashMap/HashSet iterates in arbitrary order — sort first \
                     or justify with lint:allow(ordered-iteration, reason)"
                        .to_string(),
                );
            }
            continue;
        }
        // `name.iter()` / `.keys()` / `.drain()` … without a sort within
        // the next two statements.
        if named(t)
            && !in_for_header[i]
            && ctx.is_punct(i + 1, ".")
            && ctx.toks.get(i + 2).is_some_and(|m| {
                m.kind == TokKind::Ident && ITER_METHODS.contains(&m.text.as_str())
            })
            && !sorted_downstream(ctx, i + 3, 2)
        {
            push(
                out,
                "ordered-iteration",
                ctx,
                i + 2,
                format!(
                    "`{}.{}()` yields arbitrary hash order — sort the results or justify with \
                     lint:allow(ordered-iteration, reason)",
                    t.text,
                    ctx.toks[i + 2].text
                ),
            );
        }
    }
}

/// atomic-artifacts: raw writes bypass the crash-safety contract that
/// every artifact is either the old complete file or the new one, and
/// that a journal grows only by synced appends (`OpenOptions` opens a
/// file for appending or in-place writes).
pub fn atomic_artifacts(ctx: &FileCtx, out: &mut Vec<Finding>) {
    for i in 0..ctx.toks.len() {
        if ctx.in_test[i] {
            continue;
        }
        let seq3 = |a: &str, b: &str, c: &str| {
            ctx.is_ident(i, a) && ctx.is_punct(i + 1, b) && ctx.is_ident(i + 2, c)
        };
        if seq3("fs", "::", "write")
            || seq3("File", "::", "create")
            || seq3("OpenOptions", "::", "new")
        {
            push(
                out,
                "atomic-artifacts",
                ctx,
                i,
                "raw file write — route artifacts through the fsio write-temp-fsync-rename \
                 or durable-append helpers so an interrupted run never leaves a truncated file"
                    .to_string(),
            );
        }
    }
}

/// no-wall-clock: wall-clock reads in outcome-affecting crates leak
/// nondeterminism into results.
pub fn no_wall_clock(ctx: &FileCtx, out: &mut Vec<Finding>) {
    for i in 0..ctx.toks.len() {
        if ctx.in_test[i] {
            continue;
        }
        if (ctx.is_ident(i, "Instant") || ctx.is_ident(i, "SystemTime"))
            && ctx.is_punct(i + 1, "::")
            && ctx.is_ident(i + 2, "now")
        {
            push(
                out,
                "no-wall-clock",
                ctx,
                i,
                format!(
                    "`{}::now` in an outcome-affecting crate — timing belongs to the bench \
                     harness, results must be a function of seeds alone",
                    ctx.toks[i].text
                ),
            );
        }
    }
}

/// unsafe-safety-comment: every `unsafe` block, impl, or trait must
/// carry a written justification. `unsafe fn` signatures are exempt —
/// the obligation sits on their callers (and on the explicit blocks in
/// their bodies).
pub fn unsafe_safety(ctx: &FileCtx, out: &mut Vec<Finding>) {
    for i in 0..ctx.toks.len() {
        if !ctx.is_ident(i, "unsafe") {
            continue;
        }
        let Some(next) = ctx.tok(i + 1) else { continue };
        let form = match next.text.as_str() {
            "{" => "block",
            "impl" => "impl",
            "trait" => "trait",
            _ => continue,
        };
        if !ctx.has_safety_comment(i) {
            push(
                out,
                "unsafe-safety-comment",
                ctx,
                i,
                format!(
                    "unsafe {form} without a `// SAFETY:` justification (accepted directly \
                     above, on the same line, or as the first line inside)"
                ),
            );
        }
    }
}

/// no-unwrap-in-lib: library code surfaces failure as `Result` or an
/// `expect` that says what invariant broke.
pub fn no_unwrap(ctx: &FileCtx, out: &mut Vec<Finding>) {
    for i in 0..ctx.toks.len() {
        if ctx.in_test[i] {
            continue;
        }
        if ctx.is_punct(i, ".")
            && ctx.is_ident(i + 1, "unwrap")
            && ctx.is_punct(i + 2, "(")
            && ctx.is_punct(i + 3, ")")
        {
            push(
                out,
                "no-unwrap-in-lib",
                ctx,
                i + 1,
                "bare `.unwrap()` in library code — return a Result or use \
                 `.expect(\"which invariant broke\")`"
                    .to_string(),
            );
        }
    }
}

/// Console macros that smuggle telemetry past the probe seam.
const PRINT_MACROS: &[&str] = &["println", "print", "eprintln", "eprint", "dbg"];

/// probe-discipline: engine instrumentation goes through the
/// `cobra_obs::Probe` seam — deterministic, attachable, zero-cost when
/// off. Ad-hoc `eprintln!` telemetry and `static Atomic*` counters are
/// the two ways instrumentation historically leaks in, and both defeat
/// the seam (unconditional cost, global mutable state, output that
/// isn't part of any schema).
pub fn probe_discipline(ctx: &FileCtx, out: &mut Vec<Finding>) {
    for i in 0..ctx.toks.len() {
        if ctx.in_test[i] {
            continue;
        }
        let t = &ctx.toks[i];
        if t.kind == TokKind::Ident
            && PRINT_MACROS.contains(&t.text.as_str())
            && ctx.is_punct(i + 1, "!")
        {
            push(
                out,
                "probe-discipline",
                ctx,
                i,
                format!(
                    "`{}!` in engine code — report events through the cobra_obs::Probe seam \
                     (or justify with lint:allow(probe-discipline, reason))",
                    t.text
                ),
            );
        }
        // `static NAME: AtomicU64 = …` — a global counter. Scan the
        // declaration head (up to the initializer) for an Atomic type;
        // `'static` lifetimes are a separate token kind and never reach
        // this arm.
        if ctx.is_ident(i, "static") {
            for j in i + 1..ctx.toks.len().min(i + 16) {
                if ctx.is_punct(j, "=") || ctx.is_punct(j, ";") {
                    break;
                }
                let tj = &ctx.toks[j];
                if tj.kind == TokKind::Ident && tj.text.starts_with("Atomic") {
                    push(
                        out,
                        "probe-discipline",
                        ctx,
                        i,
                        format!(
                            "global `static` {} counter in engine code — accumulate through a \
                             cobra_obs::Probe (e.g. CountingProbe) so the count is per-trial, \
                             deterministic, and free when unobserved",
                            tj.text
                        ),
                    );
                    break;
                }
            }
        }
    }
}

/// float-eq: exact float comparison in statistics code is almost always
/// a rounding bug; anchored on float literals and `as f64`/`as f32`
/// casts so integer comparisons stay clean.
pub fn float_eq(ctx: &FileCtx, out: &mut Vec<Finding>) {
    for i in 0..ctx.toks.len() {
        if ctx.in_test[i] {
            continue;
        }
        let t = &ctx.toks[i];
        if t.kind != TokKind::Punct || (t.text != "==" && t.text != "!=") {
            continue;
        }
        let float_side = |j: Option<usize>| {
            j.and_then(|j| ctx.tok(j)).is_some_and(|s| {
                s.kind == TokKind::Float
                    || (s.kind == TokKind::Ident && (s.text == "f64" || s.text == "f32"))
            })
        };
        if float_side(i.checked_sub(1)) || float_side(Some(i + 1)) {
            push(
                out,
                "float-eq",
                ctx,
                i,
                format!(
                    "`{}` against a float — compare with a tolerance, or justify the exact \
                     comparison with lint:allow(float-eq, reason)",
                    t.text
                ),
            );
        }
    }
}
