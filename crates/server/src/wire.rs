//! The exact shard-frame codec, and the JSON codec's paths for this
//! crate's users.
//!
//! JSON itself — [`JVal`], [`parse`], [`escape`] and the number policy —
//! lives in `iolap_core::json` and is re-exported here, so the line
//! protocol's users keep their paths. This module is the one place besides
//! `iolap_core::json` that writes JSON text: the `shard.fold` frames. A
//! fold request carries every row's 100-odd per-trial Poisson weights, so
//! the frames are streamed into one buffer rather than built as a [`JVal`]
//! tree, which would double the string work on the sharded hot path.

pub use iolap_core::json::{escape, parse, JVal, ParseError};

use iolap_core::json::escape_into;
use iolap_core::trace::SpanId;
use iolap_core::{
    AccState, FoldFragment, FoldPartial, FragKind, FragSrc, ORow, PartialCall, PartialGroup,
};
use iolap_relation::Value;
use std::fmt::Write as _;

/// One relation cell as the line protocol renders it: `JVal::from(v)`.
pub fn value_json(v: &Value) -> String {
    JVal::from(v).render()
}

// ---------------------------------------------------------------------------
// Shard RPC frames (§8 scale-out: plan-fragment dispatch / partial-state ship)
// ---------------------------------------------------------------------------
//
// Frames must be *exact*: a decoded fragment folds on the shard and its
// partial merges into the coordinator's float state, so every `f64` crosses
// under one rule ([`push_num`] / [`num_from`]): as a JSON integer when it
// is integral, |x| < 2^53 and not −0.0 — every bootstrap weight, most
// multiplicities and counts — and otherwise as the 16 lowercase hex digits
// of its IEEE-754 bit pattern (fractions, −0.0, NaN payloads, ±∞, huge
// magnitudes). Decoding is strict, so each bit pattern has exactly one
// accepted encoding. Cells use tagged arrays — `["i",-42]`, `["f",3]`,
// `["f","3ff8000000000000"]`, `["s","txt"]`, `["b",true]`, bare `null` —
// so the type survives independently of JSON number semantics (`i64`
// cells are exact JSON integers: the parser keeps every `i64` literal
// exact). Lineage cells (`Ref`/`Pending`) are not shippable: encoders
// return `None` and the coordinator folds that batch locally (the
// `Ok(None)` contract of `ShardExec::fold`).

/// Magnitude bound of the integer form: below 2^53 every integer is an
/// exact `f64`, so the JSON integer names one bit pattern.
const EXACT_INT_BOUND: u64 = 1 << 53;

/// The integer form of `x`, when it has one: integral, |x| < 2^53, and not
/// −0.0 (whose bits differ from `0`'s). `as` saturates and maps NaN to 0,
/// so the bit comparison refuses everything without an exact `i64` twin.
fn int_form(x: f64) -> Option<i64> {
    let i = x as i64;
    (i.unsigned_abs() < EXACT_INT_BOUND && (i as f64).to_bits() == x.to_bits()).then_some(i)
}

/// Append one `f64` under the frame rule: its integer form as a JSON
/// integer, anything else as its quoted 16-hex-digit bit pattern.
fn push_num(out: &mut String, x: f64) {
    match int_form(x) {
        // Bootstrap weights are almost all single digits.
        Some(d @ 0..=9) => out.push(char::from(b'0' + d as u8)),
        Some(i) => {
            let _ = write!(out, "{i}");
        }
        None => {
            let _ = write!(out, "\"{:016x}\"", x.to_bits());
        }
    }
}

/// Decode a [`push_num`] value, refusing every other spelling: a
/// `JVal::Num`, an integer at or beyond 2^53, and a bit-pattern string
/// that is not 16 lowercase hex digits or whose value has an integer form.
fn num_from(v: &JVal) -> Option<f64> {
    match v {
        JVal::Int(i) if i.unsigned_abs() < EXACT_INT_BOUND => Some(*i as f64),
        JVal::Str(s) => {
            if s.len() != 16 || !s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
                return None;
            }
            let x = f64::from_bits(u64::from_str_radix(s, 16).ok()?);
            int_form(x).is_none().then_some(x)
        }
        _ => None,
    }
}

/// Append `xs` as a JSON array under the [`push_num`] rule.
fn push_nums(out: &mut String, xs: &[f64]) {
    out.push('[');
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_num(out, *x);
    }
    out.push(']');
}

/// Decode a [`push_nums`] array.
fn nums_from(v: &JVal) -> Option<Vec<f64>> {
    match v {
        JVal::Arr(items) => items.iter().map(num_from).collect(),
        _ => None,
    }
}

/// Append one relation cell as an exact tagged frame; `None` for lineage
/// variants (those rows cannot leave the coordinator).
fn push_cell(out: &mut String, v: &Value) -> Option<()> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "[\"b\",true]" } else { "[\"b\",false]" }),
        Value::Int(i) => {
            let _ = write!(out, "[\"i\",{i}]");
        }
        Value::Float(f) => {
            out.push_str("[\"f\",");
            push_num(out, *f);
            out.push(']');
        }
        Value::Str(s) => {
            out.push_str("[\"s\",\"");
            escape_into(out, s);
            out.push_str("\"]");
        }
        Value::Ref(_) | Value::Pending(_) => return None,
    }
    Some(())
}

/// Append `cells` as a JSON array of [`push_cell`] frames.
fn push_cells(out: &mut String, cells: &[Value]) -> Option<()> {
    out.push('[');
    for (i, v) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_cell(out, v)?;
    }
    out.push(']');
    Some(())
}

/// Decode a [`push_cell`] frame.
fn cell_from_json(v: &JVal) -> Option<Value> {
    match v {
        JVal::Null => Some(Value::Null),
        JVal::Arr(items) => {
            let tag = items.first()?.as_str()?;
            match (tag, items.get(1)?) {
                ("b", JVal::Bool(b)) => Some(Value::Bool(*b)),
                ("i", JVal::Int(i)) => Some(Value::Int(*i)),
                ("f", x) => num_from(x).map(Value::Float),
                ("s", JVal::Str(s)) => Some(Value::str(s)),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Decode a [`push_cells`] array.
fn cells_from(v: &JVal) -> Option<Vec<Value>> {
    match v {
        JVal::Arr(items) => items.iter().map(cell_from_json).collect(),
        _ => None,
    }
}

/// Encode a row batch for `shard.fold`: each row is
/// `{"m":M,"w":[W,...]|null,"v":[cells]}` (multiplicity, per-trial Poisson
/// weights, values), every number under the frame rule. `None` when any
/// cell is lineage.
pub fn rows_json(rows: &[ORow]) -> Option<String> {
    let mut out = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"m\":");
        push_num(&mut out, r.mult);
        out.push_str(",\"w\":");
        match &r.weights {
            None => out.push_str("null"),
            Some(ws) => push_nums(&mut out, ws),
        }
        out.push_str(",\"v\":");
        push_cells(&mut out, &r.values)?;
        out.push('}');
    }
    out.push(']');
    Some(out)
}

/// Decode a [`rows_json`] batch.
pub fn rows_from_json(v: &JVal) -> Option<Vec<ORow>> {
    let JVal::Arr(items) = v else { return None };
    let mut rows = Vec::with_capacity(items.len());
    for item in items {
        let mult = num_from(item.get("m")?)?;
        let weights = match item.get("w")? {
            JVal::Null => None,
            ws => Some(std::sync::Arc::from(nums_from(ws)?)),
        };
        let values = cells_from(item.get("v")?)?;
        rows.push(ORow {
            values: std::sync::Arc::from(values),
            mult,
            weights,
        });
    }
    Some(rows)
}

/// Encode a fold fragment for dispatch: aggregate id, group columns, and
/// per-call `[kind, srckind, arg]` triples. `None` when a literal argument
/// carries lineage (cannot happen for compiled fast plans; defensive).
pub fn frag_json(frag: &FoldFragment) -> Option<String> {
    let mut out = format!("{{\"agg\":{},\"g\":[", frag.agg_id);
    for (i, g) in frag.group_cols.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{g}");
    }
    out.push_str("],\"calls\":[");
    for (i, (k, s)) in frag.kinds.iter().zip(&frag.srcs).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let kind = match k {
            FragKind::Count => "c",
            FragKind::Sum => "s",
            FragKind::Avg => "a",
        };
        match s {
            FragSrc::Col(j) => {
                let _ = write!(out, "[\"{kind}\",\"c\",{j}]");
            }
            FragSrc::Lit(v) => {
                let _ = write!(out, "[\"{kind}\",\"l\",");
                push_cell(&mut out, v)?;
                out.push(']');
            }
        }
    }
    let _ = write!(out, "],\"trials\":{}}}", frag.trials);
    Some(out)
}

/// Decode a [`frag_json`] frame.
pub fn frag_from_json(v: &JVal) -> Option<FoldFragment> {
    let agg_id = u32::try_from(v.get("agg")?.as_u64()?).ok()?;
    let JVal::Arr(gs) = v.get("g")? else {
        return None;
    };
    let group_cols: Vec<usize> = gs
        .iter()
        .map(|g| g.as_u64().and_then(|n| usize::try_from(n).ok()))
        .collect::<Option<_>>()?;
    let JVal::Arr(calls) = v.get("calls")? else {
        return None;
    };
    let mut kinds = Vec::with_capacity(calls.len());
    let mut srcs = Vec::with_capacity(calls.len());
    for call in calls {
        let JVal::Arr(parts) = call else { return None };
        kinds.push(match parts.first()?.as_str()? {
            "c" => FragKind::Count,
            "s" => FragKind::Sum,
            "a" => FragKind::Avg,
            _ => return None,
        });
        srcs.push(match parts.get(1)?.as_str()? {
            "c" => FragSrc::Col(usize::try_from(parts.get(2)?.as_u64()?).ok()?),
            "l" => FragSrc::Lit(cell_from_json(parts.get(2)?)?),
            _ => return None,
        });
    }
    let trials = usize::try_from(v.get("trials")?.as_u64()?).ok()?;
    Some(FoldFragment {
        agg_id,
        group_cols,
        kinds,
        srcs,
        trials,
    })
}

/// Encode one partition partial for the ship leg: group keys as cells,
/// accumulator state and trial vectors under the frame rule.
pub fn partial_json(p: &FoldPartial) -> Option<String> {
    let mut out = format!("{{\"p\":{},\"groups\":[", p.partition);
    for (i, g) in p.groups.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"k\":");
        push_cells(&mut out, &g.key)?;
        let _ = write!(out, ",\"hc\":{},\"calls\":[", g.has_certain);
        for (j, c) in g.calls.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("{\"acc\":");
            match &c.acc {
                AccState::Count { n } => {
                    out.push_str("[\"c\",");
                    push_num(&mut out, *n);
                }
                AccState::Sum { sum, any } => {
                    out.push_str("[\"s\",");
                    push_num(&mut out, *sum);
                    let _ = write!(out, ",{any}");
                }
                AccState::Avg { sum, n } => {
                    out.push_str("[\"a\",");
                    push_num(&mut out, *sum);
                    out.push(',');
                    push_num(&mut out, *n);
                }
            }
            out.push_str("],\"a\":");
            push_nums(&mut out, &c.a);
            out.push_str(",\"b\":");
            push_nums(&mut out, &c.b);
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    Some(out)
}

/// Decode a [`partial_json`] frame.
pub fn partial_from_json(v: &JVal) -> Option<FoldPartial> {
    let partition = usize::try_from(v.get("p")?.as_u64()?).ok()?;
    let JVal::Arr(gs) = v.get("groups")? else {
        return None;
    };
    let mut groups = Vec::with_capacity(gs.len());
    for g in gs {
        let key = cells_from(g.get("k")?)?;
        let has_certain = g.get("hc")?.as_bool()?;
        let JVal::Arr(cs) = g.get("calls")? else {
            return None;
        };
        let mut calls = Vec::with_capacity(cs.len());
        for c in cs {
            let JVal::Arr(acc) = c.get("acc")? else {
                return None;
            };
            let num = |i: usize| acc.get(i).and_then(num_from);
            let state = match acc.first()?.as_str()? {
                "c" => AccState::Count { n: num(1)? },
                "s" => AccState::Sum {
                    sum: num(1)?,
                    any: acc.get(2)?.as_bool()?,
                },
                "a" => AccState::Avg {
                    sum: num(1)?,
                    n: num(2)?,
                },
                _ => return None,
            };
            calls.push(PartialCall {
                acc: state,
                a: nums_from(c.get("a")?)?,
                b: nums_from(c.get("b")?)?,
            });
        }
        groups.push(PartialGroup {
            key,
            has_certain,
            calls,
        });
    }
    Some(FoldPartial { partition, groups })
}

/// The `shard.fold` request for one block of the grid:
/// `{"op":"shard.fold","base":B,"certain":C,"frag":F,"rows":R}`, where `B`
/// is the global index of the block's first partition and `F`/`R` are
/// [`frag_json`]/[`rows_json`] frames. `trace` (the coordinator's parent
/// span and batch) adds `"trace":{"span":S,"batch":N}` before `"frag"`.
pub fn fold_request_json(
    base: usize,
    certain: bool,
    trace: Option<(SpanId, usize)>,
    frag_frame: &str,
    rows_frame: &str,
) -> String {
    let mut out = String::with_capacity(frag_frame.len() + rows_frame.len() + 96);
    let _ = write!(
        out,
        "{{\"op\":\"shard.fold\",\"base\":{base},\"certain\":{certain}"
    );
    if let Some((span, batch)) = trace {
        let _ = write!(out, ",\"trace\":{{\"span\":{},\"batch\":{batch}}}", span.0);
    }
    out.push_str(",\"frag\":");
    out.push_str(frag_frame);
    out.push_str(",\"rows\":");
    out.push_str(rows_frame);
    out.push('}');
    out
}

/// A worker's answer to a `shard.fold` request:
/// `{"ok":true,"partials":[P,...]}` with one [`partial_json`] frame per
/// partition, plus `"spans":S` when the fold was traced. `None` when a
/// partial is not encodable.
pub fn fold_response_json(partials: &[FoldPartial], spans: Option<&JVal>) -> Option<String> {
    let mut out = String::from("{\"ok\":true,\"partials\":[");
    for (i, p) in partials.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&partial_json(p)?);
    }
    out.push(']');
    if let Some(spans) = spans {
        out.push_str(",\"spans\":");
        out.push_str(&spans.render());
    }
    out.push('}');
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn render_round_trips_through_parse() {
        let v = JVal::obj(vec![
            ("ok", JVal::Bool(true)),
            ("label", JVal::str("he\"said\\\n\t\u{1}done")),
            ("n", JVal::Num(42.0)),
            ("f", JVal::Num(1.5)),
            ("nan", JVal::Num(f64::NAN)),
            ("list", JVal::Arr(vec![JVal::Null, JVal::str("x")])),
        ]);
        let line = v.render();
        // One line, no raw control characters on the wire.
        assert!(!line.contains('\n'));
        assert!(line.bytes().all(|b| b >= 0x20));
        let back = parse(&line).unwrap();
        assert_eq!(
            back.get("label").and_then(JVal::as_str),
            Some("he\"said\\\n\t\u{1}done")
        );
        assert_eq!(back.get("n").and_then(JVal::as_u64), Some(42));
        // Non-finite numbers render as null (the shared `num` policy).
        assert_eq!(back.get("nan"), Some(&JVal::Null));
        assert_eq!(v.to_string(), line);
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JVal::Null);
        assert_eq!(parse("true").unwrap(), JVal::Bool(true));
        assert_eq!(parse(" false ").unwrap(), JVal::Bool(false));
        assert_eq!(parse("42").unwrap(), JVal::Int(42));
        assert_eq!(parse("-1.5e2").unwrap(), JVal::Num(-150.0));
        assert_eq!(parse("\"hi\"").unwrap(), JVal::Str("hi".into()));
    }

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"op":"submit","query":"C2","opts":{"batches":8,"tags":["a","b"]},"x":null}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("op").and_then(JVal::as_str), Some("submit"));
        assert_eq!(
            v.get("opts")
                .and_then(|o| o.get("batches"))
                .and_then(JVal::as_u64),
            Some(8)
        );
        assert_eq!(v.get("x"), Some(&JVal::Null));
        match v.get("opts").and_then(|o| o.get("tags")) {
            Some(JVal::Arr(items)) => assert_eq!(items.len(), 2),
            other => panic!("tags: {other:?}"),
        }
    }

    #[test]
    fn parses_string_escapes() {
        assert_eq!(
            parse(r#""a\"b\\c\ndA""#).unwrap(),
            JVal::Str("a\"b\\c\ndA".into())
        );
    }

    /// Unescaped runs are consumed slice-at-a-time, with escapes and
    /// multi-byte scalars at the run boundaries. The content check is the
    /// correctness guard; the megabyte scale is the performance guard —
    /// the per-character variant re-validated the remaining input on
    /// every byte, turning shard-sized fold frames quadratic (minutes to
    /// parse a 2.6 MB frame, timing out the coordinator's read).
    #[test]
    fn parses_long_strings_in_linear_time() {
        let chunk = "päy\\load\t→\u{1F300}";
        let body = chunk.repeat(120_000);
        let doc = format!("[\"{}\",\"{}\"]", escape(&body), escape(chunk));
        assert!(doc.len() > 2_000_000);
        match parse(&doc).unwrap() {
            JVal::Arr(items) => {
                assert_eq!(items[0], JVal::Str(body));
                assert_eq!(items[1], JVal::Str(chunk.into()));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn escape_then_parse_roundtrips() {
        let nasty = "line1\nline2\t\"quoted\" back\\slash \u{1}";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(parse(&doc).unwrap(), JVal::Str(nasty.into()));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn value_json_covers_variants() {
        use iolap_relation::Value;
        assert_eq!(value_json(&Value::Null), "null");
        assert_eq!(value_json(&Value::Int(-3)), "-3");
        assert_eq!(value_json(&Value::Bool(true)), "true");
        assert_eq!(value_json(&Value::Float(1.5)), "1.5");
        assert_eq!(value_json(&Value::Float(f64::NAN)), "null");
        assert_eq!(value_json(&Value::str("a\"b")), "\"a\\\"b\"");
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(JVal::Num(3.5).as_u64(), None);
        assert_eq!(JVal::Num(-1.0).as_u64(), None);
        assert_eq!(JVal::Num(7.0).as_u64(), Some(7));
    }

    #[test]
    fn as_u64_boundaries_are_exact() {
        // 2^53: the f64 integer-precision edge is still well inside u64.
        assert_eq!(JVal::Num(9007199254740992.0).as_u64(), Some(1u64 << 53));
        // Largest f64 strictly below 2^64 (2^64 - 2^11) converts exactly.
        let top = 18446744073709549568.0f64;
        assert_eq!(JVal::Num(top).as_u64(), Some(18446744073709549568));
        // 2^64 itself (== `u64::MAX as f64` after rounding) must NOT
        // saturate to u64::MAX — the old inclusive bound admitted it.
        assert_eq!(JVal::Num(18446744073709551616.0).as_u64(), None);
        assert_eq!(JVal::Num(u64::MAX as f64).as_u64(), None);
        // Negative zero is a representation of zero ("-0" is valid JSON).
        assert_eq!(JVal::Num(-0.0).as_u64(), Some(0));
        assert_eq!(JVal::Num(f64::NAN).as_u64(), None);
        assert_eq!(JVal::Num(f64::INFINITY).as_u64(), None);
    }

    #[test]
    fn parse_number_enforces_json_grammar() {
        // Forms f64::from_str would happily take but RFC 8259 rejects.
        for bad in [
            "1.", ".5", "1e", "1e+", "1e-", "-", "+1", "1.e3", "0x10", "inf", "nan", "--1", "-.5",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        // Leading zeros split into two tokens → trailing-garbage error.
        assert!(parse("01").is_err());
        assert!(parse("-01").is_err());
        // Digit-soup inside a composite document fails at the number.
        assert!(parse("[1-2]").is_err());
        assert!(parse("[1e+,2]").is_err());
        // The strict grammar still admits every legitimate shape.
        assert_eq!(parse("0").unwrap(), JVal::Int(0));
        assert_eq!(parse("-0").unwrap(), JVal::Num(-0.0));
        assert_eq!(parse("10.25").unwrap(), JVal::Num(10.25));
        assert_eq!(parse("1e3").unwrap(), JVal::Num(1000.0));
        assert_eq!(parse("1E+2").unwrap(), JVal::Num(100.0));
        assert_eq!(parse("-2.5e-1").unwrap(), JVal::Num(-0.25));
        assert_eq!(parse("0.125").unwrap(), JVal::Num(0.125));
    }

    #[test]
    fn parse_string_reassembles_surrogate_pairs() {
        // 😀 is U+1F600 = \uD83D\uDE00 — one scalar, not two U+FFFD.
        assert_eq!(
            parse(r#""\uD83D\uDE00""#).unwrap(),
            JVal::Str("\u{1F600}".into())
        );
        // Lowercase hex and a BMP neighbour in the same string.
        assert_eq!(
            parse(r#""x\ud83d\ude00y\u00e9""#).unwrap(),
            JVal::Str("x\u{1F600}y\u{e9}".into())
        );
    }

    #[test]
    fn parse_string_rejects_lone_surrogates() {
        // High surrogate with no continuation, wrong continuation, or a
        // bare low surrogate: all hard errors, never U+FFFD smoothing.
        for bad in [
            r#""\uD83D""#,
            r#""\uD83Dx""#,
            r#""\uD83D\u0041""#,
            r#""\uDC00""#,
            r#""a\uDE00b""#,
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        // Sign-bearing hex is not hex ('+' sneaks through from_str_radix).
        assert!(parse(r#""\u+123""#).is_err());
    }

    #[test]
    fn escape_parse_roundtrip_astral_and_control_property() {
        // Deterministic property sweep: strings drawn from an alphabet
        // that mixes ASCII, control chars, BMP accents, and astral-plane
        // scalars must survive escape → quote → parse unchanged.
        let alphabet: Vec<char> = ('\u{0}'..='\u{1f}')
            .chain(['"', '\\', '/', 'a', 'Z', '\u{e9}', '\u{2603}', '\u{fffd}'])
            .chain(['\u{1F600}', '\u{1F680}', '\u{10FFFF}', '\u{10000}'])
            .collect();
        let mut state = 0x243F6A8885A308D3u64; // fixed seed: π digits
        let mut next = move |m: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % m
        };
        for len in 0..64usize {
            let s: String = (0..len).map(|_| alphabet[next(alphabet.len())]).collect();
            let doc = format!("\"{}\"", escape(&s));
            assert_eq!(parse(&doc).unwrap(), JVal::Str(s.clone()), "doc {doc:?}");
        }
        // And explicitly through the \u path: escaped control char plus a
        // raw astral char in the same document.
        let doc = "\"\\u0001\u{1F600}\"";
        assert_eq!(parse(doc).unwrap(), JVal::Str("\u{1}\u{1F600}".into()));
    }

    /// One number through the frame rule: encode, parse, decode.
    fn num_doc(x: f64) -> String {
        let mut out = String::new();
        push_num(&mut out, x);
        out
    }

    fn num_back(doc: &str) -> Option<f64> {
        num_from(&parse(doc).ok()?)
    }

    fn cell_doc(v: &Value) -> Option<String> {
        let mut out = String::new();
        push_cell(&mut out, v)?;
        Some(out)
    }

    /// Values without an integer form still cross as their bit patterns,
    /// bit for bit; integral ones below 2^53 cross as JSON integers.
    #[test]
    fn f64_hex_roundtrip_is_bit_exact() {
        for x in [
            -0.0,
            1.5,
            -1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(0x7ff8000000abcdef), // a NaN payload
        ] {
            let doc = num_doc(x);
            assert_eq!(doc, format!("\"{:016x}\"", x.to_bits()));
            assert_eq!(
                num_back(&doc).unwrap().to_bits(),
                x.to_bits(),
                "{x} via {doc}"
            );
        }
        for (x, doc) in [
            (0.0, "0"),
            (2.0, "2"),
            (-1.0, "-1"),
            (1e15, "1000000000000000"),
        ] {
            assert_eq!(num_doc(x), doc);
            assert_eq!(num_back(doc).unwrap().to_bits(), x.to_bits());
        }
        // -0.0 and 0.0 stay distinguishable.
        assert_ne!(num_doc(0.0), num_doc(-0.0));
        for bad in [
            "\"xyz\"",
            "\"+ff8000000abcdef\"",
            "\"00\"",
            "\"3FF8000000000000\"",
        ] {
            assert_eq!(num_back(bad), None, "{bad}");
        }
    }

    #[test]
    fn cell_frames_roundtrip_exactly() {
        let cells = [
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(-0.0),
            Value::Float(3.0),
            Value::Float(1.0 / 3.0),
            Value::str("a\"b\n😀"),
        ];
        for v in &cells {
            let doc = cell_doc(v).unwrap();
            let back = cell_from_json(&parse(&doc).unwrap()).unwrap();
            // Bit-level float equality, not PartialEq smoothing.
            match (v, &back) {
                (Value::Float(x), Value::Float(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                _ => assert_eq!(*v, back, "via {doc}"),
            }
        }
        assert_eq!(cell_doc(&Value::Int(-42)).unwrap(), "[\"i\",-42]");
        assert_eq!(cell_doc(&Value::Float(3.0)).unwrap(), "[\"f\",3]");
        // Lineage cells are unshippable by contract.
        let r = Value::Ref(iolap_relation::AggRef {
            agg: 0,
            column: 0,
            key: std::sync::Arc::from(Vec::new()),
        });
        assert_eq!(cell_doc(&r), None);
        // Integers cross as JSON integers only; floats under the rule only.
        for bad in [
            "[\"i\",\"3\"]",
            "[\"i\",3.5]",
            "[\"i\",-0]",
            "[\"i\",9223372036854775808]",
            "[\"f\",\"zz\"]",
            "[\"f\",3.0]",
            "[\"f\",\"4008000000000000\"]",
        ] {
            assert_eq!(cell_from_json(&parse(bad).unwrap()), None, "{bad}");
        }
    }

    /// The frame rule's edge cases: ±0, ±∞, NaN payloads, subnormals, the
    /// 2^53 boundary from both sides, 2^63 and `i64::MIN`.
    fn edge_floats() -> Vec<f64> {
        let two_53 = 9_007_199_254_740_992.0;
        vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(0x7ff8_0000_00ab_cdef),
            f64::from_bits(0xfff0_0000_0000_0001),
            f64::from_bits(1),
            -f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
            two_53 - 1.0,
            -(two_53 - 1.0),
            two_53,
            -two_53,
            two_53 + 2.0,
            9_223_372_036_854_775_808.0,
            i64::MIN as f64,
            f64::MAX,
            f64::MIN,
        ]
    }

    /// `x` crosses bit for bit as a row's multiplicity and weight, as a
    /// `Float` cell, as every `AccState` field and in the partials' trial
    /// vectors, and the decoded frames re-encode to the same bytes.
    fn assert_crosses_exactly(x: f64) {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let rows = vec![ORow {
            values: std::sync::Arc::from(vec![Value::Float(x), Value::Int(7)]),
            mult: x,
            weights: Some(std::sync::Arc::from(vec![x, 1.0, x])),
        }];
        let doc = rows_json(&rows).unwrap();
        let back = rows_from_json(&parse(&doc).unwrap()).unwrap();
        assert_eq!(back[0].mult.to_bits(), x.to_bits(), "{doc}");
        let ws = back[0].weights.as_deref().unwrap();
        assert_eq!(bits(ws), bits(&[x, 1.0, x]), "{doc}");
        match back[0].values[0] {
            Value::Float(y) => assert_eq!(y.to_bits(), x.to_bits(), "{doc}"),
            ref other => panic!("{doc}: decoded {other:?}"),
        }
        assert_eq!(rows_json(&back).unwrap(), doc);

        let call = |acc| PartialCall {
            acc,
            a: vec![x, 2.0],
            b: vec![0.0, x],
        };
        let partial = FoldPartial {
            partition: 1,
            groups: vec![PartialGroup {
                key: vec![Value::Float(x)],
                has_certain: false,
                calls: vec![
                    call(AccState::Count { n: x }),
                    call(AccState::Sum { sum: x, any: true }),
                    call(AccState::Avg { sum: x, n: x }),
                ],
            }],
        };
        let doc = partial_json(&partial).unwrap();
        let back = partial_from_json(&parse(&doc).unwrap()).unwrap();
        assert_eq!(partial_json(&back).unwrap(), doc);
        let [g] = &back.groups[..] else {
            panic!("{doc}: one group expected");
        };
        assert!(matches!(g.key[..], [Value::Float(y)] if y.to_bits() == x.to_bits()));
        for c in &g.calls {
            let acc: Vec<f64> = match c.acc {
                AccState::Count { n } => vec![n],
                AccState::Sum { sum, any } => {
                    assert!(any);
                    vec![sum]
                }
                AccState::Avg { sum, n } => vec![sum, n],
            };
            assert!(acc.iter().all(|y| y.to_bits() == x.to_bits()), "{doc}");
            assert_eq!(bits(&c.a), bits(&[x, 2.0]), "{doc}");
            assert_eq!(bits(&c.b), bits(&[0.0, x]), "{doc}");
        }
    }

    /// Every spelling of `x` other than its [`push_num`] form: the other of
    /// (integer, bit pattern), a JSON float, and uppercase hex.
    fn non_canonical(x: f64) -> Vec<String> {
        let mut docs = vec![format!("\"{:016X}\"", x.to_bits())];
        match int_form(x) {
            Some(i) => {
                docs.push(format!("\"{:016x}\"", x.to_bits()));
                docs.push(format!("{i}.0"));
                docs.push(format!("{i}e0"));
            }
            None if x.is_finite() && x.fract() == 0.0 => {
                // −0.0 and |x| ≥ 2^53 written as integer literals: `-0`
                // parses as a float, the others as `Int` past 2^53 or as
                // floats past `i64`.
                docs.push(format!("{x:.0}"));
            }
            None => {}
        }
        docs.retain(|d| *d != num_doc(x));
        docs
    }

    #[test]
    fn exact_float_rule_covers_the_edges() {
        for x in edge_floats() {
            assert_crosses_exactly(x);
            for doc in non_canonical(x) {
                assert_eq!(num_back(&doc).map(f64::to_bits), None, "{x:e} as {doc}");
            }
        }
        // The integer form stops exactly at 2^53 on both sides.
        assert_eq!(num_doc(9_007_199_254_740_991.0), "9007199254740991");
        assert_eq!(num_doc(-9_007_199_254_740_991.0), "-9007199254740991");
        assert_eq!(num_doc(9_007_199_254_740_992.0), "\"4340000000000000\"");
        assert_eq!(num_back("9007199254740992"), None);
        assert_eq!(num_back("-9007199254740992"), None);
        assert_eq!(num_back("9223372036854775807"), None);
        assert_eq!(num_back("-9223372036854775808"), None);
        assert_eq!(num_back("-0"), None);
        assert_eq!(num_back("null"), None);
        assert_eq!(num_back("true"), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 512,
            ..ProptestConfig::default()
        })]

        /// Random bit patterns, random integers inside the exact range
        /// and small counts: each crosses bit for bit, and no other
        /// spelling of it is accepted.
        #[test]
        fn exact_float_rule_round_trips_every_bit_pattern(
            x in prop_oneof![
                any::<u64>().prop_map(f64::from_bits),
                (-(1i64 << 53) + 1..(1i64 << 53)).prop_map(|i| i as f64),
                (-64i64..64).prop_map(|i| i as f64),
            ]
        ) {
            assert_crosses_exactly(x);
            for doc in non_canonical(x) {
                prop_assert_eq!(num_back(&doc).map(f64::to_bits), None, "{} as {}", x, doc);
            }
        }
    }

    #[test]
    fn row_frames_roundtrip_exactly() {
        let rows = vec![
            ORow {
                values: std::sync::Arc::from(vec![Value::Int(1), Value::Float(2.5)]),
                mult: 1.0,
                weights: None,
            },
            ORow {
                values: std::sync::Arc::from(vec![Value::str("k"), Value::Null]),
                mult: -1.0,
                weights: Some(std::sync::Arc::from(vec![0.0, 2.0, 1.0])),
            },
        ];
        let doc = rows_json(&rows).unwrap();
        let back = rows_from_json(&parse(&doc).unwrap()).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].values[..], rows[0].values[..]);
        assert_eq!(back[1].mult.to_bits(), (-1.0f64).to_bits());
        assert_eq!(back[1].weights.as_deref(), Some(&[0.0, 2.0, 1.0][..]));
        // A lineage cell anywhere poisons the whole batch → None.
        let tainted = vec![ORow {
            values: std::sync::Arc::from(vec![Value::Ref(iolap_relation::AggRef {
                agg: 1,
                column: 0,
                key: std::sync::Arc::from(Vec::new()),
            })]),
            mult: 1.0,
            weights: None,
        }];
        assert_eq!(rows_json(&tainted), None);
    }

    #[test]
    fn frag_and_partial_frames_roundtrip() {
        let frag = FoldFragment {
            agg_id: 9,
            group_cols: vec![0, 2],
            kinds: vec![FragKind::Count, FragKind::Sum, FragKind::Avg],
            srcs: vec![
                FragSrc::Col(1),
                FragSrc::Lit(Value::Float(0.5)),
                FragSrc::Col(3),
            ],
            trials: 4,
        };
        let doc = frag_json(&frag).unwrap();
        assert_eq!(frag_from_json(&parse(&doc).unwrap()).unwrap(), frag);

        let partial = FoldPartial {
            partition: 3,
            groups: vec![PartialGroup {
                key: vec![Value::str("g"), Value::Int(2)],
                has_certain: true,
                calls: vec![
                    PartialCall {
                        acc: AccState::Count { n: 5.0 },
                        a: vec![4.0, 6.0],
                        b: vec![0.0, 0.0],
                    },
                    PartialCall {
                        acc: AccState::Sum {
                            sum: -0.0,
                            any: false,
                        },
                        a: vec![1.5, 2.5],
                        b: vec![1.0, 1.0],
                    },
                    PartialCall {
                        acc: AccState::Avg { sum: 7.0, n: 2.0 },
                        a: vec![],
                        b: vec![],
                    },
                ],
            }],
        };
        let doc = partial_json(&partial).unwrap();
        let back = partial_from_json(&parse(&doc).unwrap()).unwrap();
        assert_eq!(back, partial);
        // -0.0 survived as a bit pattern (PartialEq would also pass for
        // +0.0 — check the bits explicitly).
        match back.groups[0].calls[1].acc {
            AccState::Sum { sum, any } => {
                assert_eq!(sum.to_bits(), (-0.0f64).to_bits());
                assert!(!any);
            }
            _ => panic!("wrong acc kind"),
        }
    }
}
