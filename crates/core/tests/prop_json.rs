//! Property tests on the JSON codec, the parser every wire input reaches:
//!
//! * never panic — arbitrary bytes, JSON-alphabet soup, every truncation
//!   and single-byte corruption of a rendered document, and nesting
//!   around `MAX_DEPTH` each give `Ok` or `Err`;
//! * render is a fixed point — `render(parse(render(v))) == render(v)`
//!   for generated values, with integers at the `i64` extremes, `-0.0`,
//!   non-finite floats (rendered `null`), and strings holding control and
//!   astral-plane characters.

use iolap_core::json::{parse, JVal, MAX_DEPTH};
use proptest::prelude::*;

/// Characters that stress the escaper: every control character, the two
/// characters JSON always escapes, plain and accented text, astral-plane
/// scalars and the surrogate-adjacent edges of the BMP.
const CHARS: &[char] = &[
    '\u{0}',
    '\u{1}',
    '\u{8}',
    '\t',
    '\n',
    '\u{b}',
    '\u{c}',
    '\r',
    '\u{1f}',
    '"',
    '\\',
    '/',
    'a',
    'Z',
    ' ',
    '0',
    'é',
    '\u{7f}',
    '\u{d7ff}',
    '\u{e000}',
    '\u{fffd}',
    '\u{ffff}',
    '\u{10000}',
    '😀',
    '\u{10ffff}',
];

/// Bytes JSON text is made of, for soups that get past the first byte.
const JSON_BYTES: &[u8] = b"{}[]\",:\\ 0123456789-+.eEtrufalsnu\n\xc3\xa9\xf0";

fn string() -> impl Strategy<Value = String> {
    prop::collection::vec(0..CHARS.len(), 0..10)
        .prop_map(|ix| ix.iter().map(|&i| CHARS[i]).collect())
}

fn leaf() -> impl Strategy<Value = JVal> {
    prop_oneof![
        Just(JVal::Null),
        any::<bool>().prop_map(JVal::Bool),
        any::<i64>().prop_map(JVal::Int),
        prop_oneof![
            Just(i64::MIN),
            Just(i64::MAX),
            Just(0i64),
            Just(-1i64),
            Just((1i64 << 53) + 1),
            Just(-(1i64 << 53) - 1),
        ]
        .prop_map(JVal::Int),
        any::<f64>().prop_map(JVal::Num),
        prop_oneof![
            Just(-0.0),
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::MAX),
            Just(f64::MIN_POSITIVE),
            Just(5e-324),
            Just(1e21),
            Just(9_223_372_036_854_775_808.0),
            Just(3.0),
        ]
        .prop_map(JVal::Num),
        string().prop_map(JVal::Str),
    ]
}

fn value() -> impl Strategy<Value = JVal> {
    leaf().prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(JVal::Arr),
            prop::collection::vec((string(), inner), 0..4).prop_map(JVal::Obj),
        ]
    })
}

/// Parse, and say whether it succeeded; a panic fails the property.
fn parses(text: &str) -> bool {
    parse(text).is_ok()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn render_is_a_fixed_point_of_parse(v in value()) {
        let text = v.render();
        prop_assert!(text.bytes().all(|b| b >= 0x20), "raw control byte in {text:?}");
        let back = parse(&text).map_err(|e| TestCaseError::fail(format!("{e} in {text:?}")))?;
        prop_assert_eq!(back.render(), text);
    }

    #[test]
    fn truncations_and_corruptions_never_panic(
        v in value(),
        at in 0usize..4096,
        byte in 0..JSON_BYTES.len(),
    ) {
        let text = v.render();
        for end in (0..=text.len()).filter(|&i| text.is_char_boundary(i)) {
            parses(&text[..end]);
        }
        let mut bytes = text.into_bytes();
        let at = at % (bytes.len() + 1);
        let mut inserted = bytes.clone();
        inserted.insert(at, JSON_BYTES[byte]);
        parses(&String::from_utf8_lossy(&inserted));
        if at < bytes.len() {
            bytes[at] = JSON_BYTES[byte];
            parses(&String::from_utf8_lossy(&bytes));
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic(
        raw in prop::collection::vec(any::<u8>(), 0..64),
        soup in prop::collection::vec(0..JSON_BYTES.len(), 0..64),
    ) {
        parses(&String::from_utf8_lossy(&raw));
        let soup: Vec<u8> = soup.iter().map(|&i| JSON_BYTES[i]).collect();
        parses(&String::from_utf8_lossy(&soup));
    }

    #[test]
    fn nesting_is_accepted_exactly_up_to_the_bound(
        extra in 0usize..5,
        kinds in prop::collection::vec(any::<bool>(), MAX_DEPTH + 4),
    ) {
        let depth = MAX_DEPTH - 2 + extra;
        let mut text = String::new();
        for &object in &kinds[..depth] {
            text.push_str(if object { "{\"k\":" } else { "[" });
        }
        text.push_str("null");
        for &object in kinds[..depth].iter().rev() {
            text.push(if object { '}' } else { ']' });
        }
        prop_assert_eq!(parses(&text), depth <= MAX_DEPTH, "depth {}", depth);
        // Unclosed, the same prefix is an error at every depth.
        prop_assert!(!parses(&text[..text.len() - depth]));
    }
}
