//! The exact shard-frame codec, and the JSON codec's paths for this
//! crate's users.
//!
//! JSON itself — [`JVal`], [`parse`], [`escape`] and the number policy —
//! lives in `iolap_core::json` and is re-exported here, so the line
//! protocol's users keep their paths. This module is the one place besides
//! `iolap_core::json` that writes JSON text: the `shard.fold` frames. Each
//! row of a fold request carries its per-trial weights as hex floats, so
//! the frames are streamed into strings rather than built as a [`JVal`]
//! tree, which would double the string work on the sharded hot path.

pub use iolap_core::json::{escape, parse, JVal, ParseError};

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
// partial merges into the coordinator's float state, so every number
// crosses as either a decimal integer string (i64) or an IEEE-754 bit
// pattern ([`f64_to_hex`]). Cells use tagged arrays — `["i","-42"]`,
// `["f","3ff8000000000000"]`, `["s","txt"]`, `["b",true]`, bare `null` —
// so the type survives independently of JSON number semantics. Lineage
// cells (`Ref`/`Pending`) are not shippable: encoders return `None` and
// the coordinator folds that batch locally (the `Ok(None)` contract of
// `ShardExec::fold`).

/// Exact `f64` transport for shard frames: the 16 lowercase hex digits of
/// the IEEE-754 bit pattern. JSON numbers round-trip through decimal and
/// cannot carry NaN or distinguish `-0.0`; shard partial-state shipping
/// needs bit-exactness, so floats cross the wire as bit patterns.
pub fn f64_to_hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Decode a [`f64_to_hex`] string. Exactly 16 hex digits; case-insensitive
/// on input, but a leading sign is rejected (`from_str_radix` would accept
/// `+`).
pub fn f64_from_hex(s: &str) -> Option<f64> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// Encode one relation cell as an exact tagged frame; `None` for lineage
/// variants (those rows cannot leave the coordinator).
pub fn cell_json(v: &Value) -> Option<String> {
    Some(match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => format!("[\"b\",{b}]"),
        Value::Int(i) => format!("[\"i\",\"{i}\"]"),
        Value::Float(f) => format!("[\"f\",\"{}\"]", f64_to_hex(*f)),
        Value::Str(s) => format!("[\"s\",\"{}\"]", escape(s)),
        Value::Ref(_) | Value::Pending(_) => return None,
    })
}

/// Decode a [`cell_json`] frame. Strict: integer strings are canonical
/// decimal (no leading `+`), float strings are 16-hex-digit bit patterns.
pub fn cell_from_json(v: &JVal) -> Option<Value> {
    match v {
        JVal::Null => Some(Value::Null),
        JVal::Arr(items) => {
            let tag = items.first()?.as_str()?;
            match (tag, items.get(1)?) {
                ("b", JVal::Bool(b)) => Some(Value::Bool(*b)),
                ("i", JVal::Str(s)) if !s.starts_with('+') => s.parse::<i64>().ok().map(Value::Int),
                ("f", JVal::Str(s)) => f64_from_hex(s).map(Value::Float),
                ("s", JVal::Str(s)) => Some(Value::str(s)),
                _ => None,
            }
        }
        _ => None,
    }
}

fn hex_vec(out: &mut String, xs: &[f64]) {
    out.push('[');
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\"", f64_to_hex(*x));
    }
    out.push(']');
}

fn hex_vec_from(v: &JVal) -> Option<Vec<f64>> {
    match v {
        JVal::Arr(items) => items
            .iter()
            .map(|w| w.as_str().and_then(f64_from_hex))
            .collect(),
        _ => None,
    }
}

/// Encode a row batch for `shard.fold`: each row is
/// `{"m":"<hexf64>","w":["hex",...]|null,"v":[cells]}` (multiplicity,
/// per-trial Poisson weights, values). `None` when any cell is lineage.
pub fn rows_json(rows: &[ORow]) -> Option<String> {
    let mut out = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"m\":\"");
        out.push_str(&f64_to_hex(r.mult));
        out.push_str("\",\"w\":");
        match &r.weights {
            None => out.push_str("null"),
            Some(ws) => hex_vec(&mut out, ws),
        }
        out.push_str(",\"v\":[");
        for (j, v) in r.values.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&cell_json(v)?);
        }
        out.push_str("]}");
    }
    out.push(']');
    Some(out)
}

/// Decode a [`rows_json`] batch.
pub fn rows_from_json(v: &JVal) -> Option<Vec<ORow>> {
    let JVal::Arr(items) = v else { return None };
    let mut rows = Vec::with_capacity(items.len());
    for item in items {
        let mult = f64_from_hex(item.get("m")?.as_str()?)?;
        let weights = match item.get("w")? {
            JVal::Null => None,
            ws => Some(std::sync::Arc::from(hex_vec_from(ws)?)),
        };
        let JVal::Arr(vs) = item.get("v")? else {
            return None;
        };
        let values: Vec<Value> = vs.iter().map(cell_from_json).collect::<Option<_>>()?;
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
                let _ = write!(out, "[\"{kind}\",\"l\",{}]", cell_json(v)?);
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
/// accumulator state and trial vectors as bit patterns.
pub fn partial_json(p: &FoldPartial) -> Option<String> {
    let mut out = format!("{{\"p\":{},\"groups\":[", p.partition);
    for (i, g) in p.groups.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"k\":[");
        for (j, k) in g.key.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&cell_json(k)?);
        }
        let _ = write!(out, "],\"hc\":{},\"calls\":[", g.has_certain);
        for (j, c) in g.calls.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("{\"acc\":");
            match &c.acc {
                AccState::Count { n } => {
                    let _ = write!(out, "[\"c\",\"{}\"]", f64_to_hex(*n));
                }
                AccState::Sum { sum, any } => {
                    let _ = write!(out, "[\"s\",\"{}\",{}]", f64_to_hex(*sum), any);
                }
                AccState::Avg { sum, n } => {
                    let _ = write!(
                        out,
                        "[\"a\",\"{}\",\"{}\"]",
                        f64_to_hex(*sum),
                        f64_to_hex(*n)
                    );
                }
            }
            out.push_str(",\"a\":");
            hex_vec(&mut out, &c.a);
            out.push_str(",\"b\":");
            hex_vec(&mut out, &c.b);
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
        let JVal::Arr(ks) = g.get("k")? else {
            return None;
        };
        let key: Vec<Value> = ks.iter().map(cell_from_json).collect::<Option<_>>()?;
        let has_certain = g.get("hc")?.as_bool()?;
        let JVal::Arr(cs) = g.get("calls")? else {
            return None;
        };
        let mut calls = Vec::with_capacity(cs.len());
        for c in cs {
            let JVal::Arr(acc) = c.get("acc")? else {
                return None;
            };
            let state = match acc.first()?.as_str()? {
                "c" => AccState::Count {
                    n: f64_from_hex(acc.get(1)?.as_str()?)?,
                },
                "s" => AccState::Sum {
                    sum: f64_from_hex(acc.get(1)?.as_str()?)?,
                    any: acc.get(2)?.as_bool()?,
                },
                "a" => AccState::Avg {
                    sum: f64_from_hex(acc.get(1)?.as_str()?)?,
                    n: f64_from_hex(acc.get(2)?.as_str()?)?,
                },
                _ => return None,
            };
            calls.push(PartialCall {
                acc: state,
                a: hex_vec_from(c.get("a")?)?,
                b: hex_vec_from(c.get("b")?)?,
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

    #[test]
    fn f64_hex_roundtrip_is_bit_exact() {
        for x in [
            0.0,
            -0.0,
            1.5,
            -1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let hex = f64_to_hex(x);
            assert_eq!(hex.len(), 16);
            let back = f64_from_hex(&hex).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {hex}");
        }
        // NaN payload bits survive (equality on bits, not value).
        let nan = f64::from_bits(0x7ff8000000abcdef);
        assert_eq!(
            f64_from_hex(&f64_to_hex(nan)).unwrap().to_bits(),
            nan.to_bits()
        );
        // -0.0 and 0.0 stay distinguishable.
        assert_ne!(f64_to_hex(0.0), f64_to_hex(-0.0));
        assert_eq!(f64_from_hex("xyz"), None);
        assert_eq!(f64_from_hex("+ff8000000abcdef"), None);
        assert_eq!(f64_from_hex("00"), None);
    }

    #[test]
    fn cell_frames_roundtrip_exactly() {
        let cells = [
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Int(i64::MIN),
            Value::Float(-0.0),
            Value::Float(1.0 / 3.0),
            Value::str("a\"b\n😀"),
        ];
        for v in &cells {
            let doc = cell_json(v).unwrap();
            let back = cell_from_json(&parse(&doc).unwrap()).unwrap();
            // Bit-level float equality, not PartialEq smoothing.
            match (v, &back) {
                (Value::Float(x), Value::Float(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                _ => assert_eq!(*v, back, "via {doc}"),
            }
        }
        // Lineage cells are unshippable by contract.
        let r = Value::Ref(iolap_relation::AggRef {
            agg: 0,
            column: 0,
            key: std::sync::Arc::from(Vec::new()),
        });
        assert_eq!(cell_json(&r), None);
        // Decoder rejects sign-lenient integer strings.
        assert_eq!(cell_from_json(&parse("[\"i\",\"+3\"]").unwrap()), None);
        assert_eq!(cell_from_json(&parse("[\"f\",\"zz\"]").unwrap()), None);
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
