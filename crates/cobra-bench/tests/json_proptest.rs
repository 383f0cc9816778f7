//! Property and adversarial tests for the hand-rolled JSON module:
//! render→parse round-trips over arbitrary documents, deep-nesting
//! rejection (the recursive-descent parser must error, not overflow the
//! stack), string-escape torture, number edge forms, and truncation.

use cobra_bench::json::{escape_str, Json};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A string over a torture alphabet: quotes, backslashes, control
/// characters, multi-byte UTF-8, and plain ASCII.
fn gen_string(rng: &mut StdRng) -> String {
    const ALPHABET: &[char] = &[
        'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{0}', '\u{1f}',
        'é', 'λ', '中', '🦀',
    ];
    let len = rng.random_range(0usize..12);
    (0..len)
        .map(|_| ALPHABET[rng.random_range(0usize..ALPHABET.len())])
        .collect()
}

/// A number token as one of our writers could emit it: full-range u64,
/// signed integer, or a finite float.
fn gen_number(rng: &mut StdRng) -> String {
    match rng.random_range(0u32..3) {
        0 => rng.random::<u64>().to_string(),
        1 => (rng.random::<u64>() as i64).to_string(),
        _ => {
            // [0, 1) mantissa scaled across a wide magnitude range;
            // Display for f64 never emits NaN/inf from finite inputs.
            let m: f64 = rng.random();
            let scale = 10f64.powi(rng.random_range(0i32..40) - 20);
            format!("{}", m * scale)
        }
    }
}

/// An arbitrary document of bounded depth over the subset the writers
/// emit.
fn gen_json(rng: &mut StdRng, depth: usize) -> Json {
    let pick = if depth == 0 {
        rng.random_range(0u32..4)
    } else {
        rng.random_range(0u32..6)
    };
    match pick {
        0 => Json::Null,
        1 => Json::Bool(rng.random()),
        2 => Json::Num(gen_number(rng)),
        3 => Json::Str(gen_string(rng)),
        4 => {
            let n = rng.random_range(0usize..5);
            Json::Arr((0..n).map(|_| gen_json(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.random_range(0usize..5);
            Json::Obj(
                (0..n)
                    .map(|_| (gen_string(rng), gen_json(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

/// Strategy adapter: arbitrary documents up to four levels deep.
struct ArbJson;

impl Strategy for ArbJson {
    type Value = Json;

    fn new_value(&self, rng: &mut StdRng) -> Json {
        gen_json(rng, 4)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any document survives render → parse exactly, including raw
    /// number tokens.
    #[test]
    fn render_parse_round_trips(doc in ArbJson) {
        let text = doc.render();
        let back = Json::parse(&text).expect("rendered document must parse");
        prop_assert_eq!(back, doc);
    }

    /// Any torture string — control characters, quotes, backslashes,
    /// non-ASCII — survives escaping and re-parsing.
    #[test]
    fn string_escapes_round_trip(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = gen_string(&mut rng);
        let text = format!("\"{}\"", escape_str(&s));
        let back = Json::parse(&text).expect("escaped string must parse");
        prop_assert_eq!(back, Json::Str(s));
    }

    /// Full-range u64 seeds round-trip through the raw token unharmed
    /// (the reason numbers are not stored as f64).
    #[test]
    fn u64_seeds_round_trip_exactly(n in 0u64..u64::MAX) {
        let doc = Json::parse(&format!("{{\"seed\": {n}}}")).unwrap();
        prop_assert_eq!(doc.get("seed").and_then(Json::as_u64), Some(n));
    }

    /// No strict prefix of a rendered compound document parses — a
    /// manifest or a checkpoint line cut short must be detected, never
    /// half-read. (A checkpoint journal drops a final line without its
    /// newline before parsing, and rejects any complete line that does
    /// not parse.)
    #[test]
    fn truncated_compound_documents_error(doc in ArbJson) {
        let text = Json::Arr(vec![doc]).render();
        for cut in 0..text.len() {
            if !text.is_char_boundary(cut) {
                continue;
            }
            prop_assert!(
                Json::parse(&text[..cut]).is_err(),
                "prefix of length {} of {:?} parsed",
                cut,
                text
            );
        }
    }
}

#[test]
fn deep_nesting_is_rejected_not_overflowed() {
    // 100k opening brackets: must come back as a depth error, not a
    // stack overflow.
    let bomb = "[".repeat(100_000);
    let err = Json::parse(&bomb).unwrap_err();
    assert!(err.contains("nesting deeper than"), "{err}");

    // Same for objects.
    let bomb = "{\"k\":".repeat(100_000);
    let err = Json::parse(&bomb).unwrap_err();
    assert!(err.contains("nesting deeper than"), "{err}");
}

#[test]
fn nesting_inside_the_cap_parses() {
    // 500 levels is below the cap and must still parse.
    let depth = 500;
    let text = format!("{}null{}", "[".repeat(depth), "]".repeat(depth));
    let mut v = Json::parse(&text).expect("500 levels is within the cap");
    for _ in 0..depth {
        match v {
            Json::Arr(mut items) => v = items.pop().expect("one element per level"),
            other => panic!("expected array, got {other:?}"),
        }
    }
    assert!(v.is_null());
}

#[test]
fn number_edge_forms() {
    // Accepted: integer zero, negative, fractions, exponents in both
    // cases, full-range u64.
    for ok in [
        "0",
        "-1",
        "3.5",
        "1e9",
        "2E-3",
        "-0.125e+2",
        "18446744073709551615",
    ] {
        let v = Json::parse(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        assert_eq!(v, Json::Num(ok.to_string()));
    }
    // Rejected: bare minus, dangling exponent, leading dot, hex, plus.
    for bad in ["-", "1e", ".5", "0x10", "+1", "1e+"] {
        assert!(Json::parse(bad).is_err(), "{bad} should not parse");
    }
}

#[test]
fn adversarial_strings_error_cleanly() {
    for bad in [
        "\"unterminated",
        "\"bad escape \\q\"",
        "\"truncated \\u12",
        "\"surrogate \\ud800\"",
    ] {
        assert!(Json::parse(bad).is_err(), "{bad} should not parse");
    }
}

#[test]
fn truncated_fixed_document_errors_at_every_cut() {
    let text = r#"{"schema":"x/v1","rows":[1,2.5,-3,true,null,{"nested":[]}],"note":"a\nb"}"#;
    assert!(Json::parse(text).is_ok());
    for cut in 0..text.len() {
        assert!(
            Json::parse(&text[..cut]).is_err(),
            "prefix of length {cut} parsed"
        );
    }
}
