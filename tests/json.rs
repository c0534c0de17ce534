//! Property tests of the JSON writer and parser over random `Value`
//! trees: control-character and non-ASCII strings, integral, non-finite
//! and extreme floats, and the integer extremes.

use mim::isa::Fnv;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use serde::Value;

/// Random `Value` trees nested at most `depth` levels deep.
#[derive(Debug, Clone, Copy)]
struct Trees {
    depth: u32,
}

impl Strategy for Trees {
    type Value = Value;
    fn sample(&self, rng: &mut TestRng) -> Value {
        tree(rng, self.depth)
    }
}

fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize]
}

fn string(rng: &mut TestRng) -> String {
    const CHARS: [char; 20] = [
        'a',
        'Z',
        ' ',
        '/',
        '"',
        '\\',
        '\n',
        '\r',
        '\t',
        '\u{0}',
        '\u{8}',
        '\u{c}',
        '\u{1f}',
        '\u{7f}',
        'é',
        '—',
        '日',
        '✓',
        '😀',
        '\u{10ffff}',
    ];
    (0..rng.below(8)).map(|_| pick(rng, &CHARS)).collect()
}

fn float(rng: &mut TestRng) -> f64 {
    const EDGES: [f64; 16] = [
        0.0,
        -0.0,
        0.1,
        -2.5,
        1e21,
        1e300,
        -1e-300,
        5e-324,
        f64::EPSILON,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        9_007_199_254_740_993.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    match rng.below(3) {
        0 => pick(rng, &EDGES),
        // Integral values, which the writer marks with a `.0`.
        1 => rng.below(2_001) as f64 - 1_000.0,
        // Any bit pattern: subnormals, NaNs and infinities included.
        _ => f64::from_bits(rng.next_u64()),
    }
}

/// The floats that [`float`] draws.
#[derive(Debug, Clone, Copy)]
struct FloatStrategy;

impl Strategy for FloatStrategy {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        float(rng)
    }
}

fn tree(rng: &mut TestRng, depth: u32) -> Value {
    // Half the nodes above the deepest level are containers, so trees
    // nest several levels deep.
    match rng.below(if depth == 0 { 6 } else { 12 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 1),
        2 => Value::Int(match rng.below(2) {
            0 => pick(rng, &[i64::MIN, i64::MAX, -1, 0]),
            _ => rng.next_u64() as i64,
        }),
        3 => Value::UInt(match rng.below(2) {
            0 => pick(rng, &[u64::MAX, 1 << 63, 0]),
            _ => rng.next_u64(),
        }),
        4 => Value::Float(float(rng)),
        5 => Value::Str(string(rng)),
        6..=8 => Value::Array((0..rng.below(5)).map(|_| tree(rng, depth - 1)).collect()),
        _ => Value::Object(
            (0..rng.below(5))
                .map(|_| (string(rng), tree(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// What parsing the writer's output gives back: JSON has no non-finite
/// numbers, so those are written as `null`, and the parser reads an
/// unsigned integer that fits `i64` as `Int`.
fn reparsed(value: &Value) -> Value {
    match value {
        Value::Float(f) if !f.is_finite() => Value::Null,
        &Value::UInt(u) => i64::try_from(u).map_or(Value::UInt(u), Value::Int),
        Value::Array(items) => Value::Array(items.iter().map(reparsed).collect()),
        Value::Object(fields) => Value::Object(
            fields
                .iter()
                .map(|(k, v)| (k.clone(), reparsed(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn compact_and_pretty_json_parse_back_to_the_tree(value in Trees { depth: 4 }) {
        let expected = reparsed(&value);
        let compact = serde_json::to_string(&value).expect("serialize");
        prop_assert_eq!(serde_json::from_str::<Value>(&compact).expect("parse"), expected.clone());
        let pretty = serde_json::to_string_pretty(&value).expect("serialize");
        prop_assert_eq!(serde_json::from_str::<Value>(&pretty).expect("parse"), expected);
    }

    #[test]
    fn floats_are_written_in_their_display_form(f in FloatStrategy) {
        let json = serde_json::to_string(&f).expect("serialize");
        let expected = match format!("{f}") {
            _ if !f.is_finite() => "null".to_string(),
            text if text.contains('.') => text,
            text => text + ".0",
        };
        prop_assert_eq!(json, expected);
    }

    #[test]
    fn hashing_the_writer_output_hashes_the_compact_string(value in Trees { depth: 4 }) {
        let mut streamed = Fnv::new();
        serde_json::to_writer(&mut streamed, &value).expect("hashing is infallible");
        let mut whole = Fnv::new();
        whole.bytes(serde_json::to_string(&value).expect("serialize").as_bytes());
        prop_assert_eq!(streamed.finish(), whole.finish());
    }
}
