//! Never-panic properties of the shard worker's request handler beyond
//! JSON syntax.
//!
//! A `shard.fold` line comes from the network. Every line — valid JSON
//! with a wrong number spelling, a wrong member type, a weight vector of
//! the wrong length, a trial count past the fold limit, a `base` that
//! overflows, a column past the row end — must get exactly one response
//! line, either `ok` or an error frame, and must never panic the worker.
//! A frame the worker accepts must be canonical: its rows re-encode to the
//! bytes that were sent.

use iolap_core::{FoldFragment, FragKind, FragSrc, ORow};
use iolap_relation::Value;
use iolap_server::shard::handle_shard_request;
use iolap_server::wire::{fold_request_json, frag_json, parse, rows_from_json, rows_json, JVal};
use proptest::prelude::*;
use std::sync::Arc;

const TRIALS: usize = 4;

/// Stand-in for one mutated value; replaced by raw text after rendering.
const RAW: &str = "@@raw@@";

/// Raw JSON texts a mutated value may take: integers at and around ±2^53
/// and the `i64` ends, `-0`, floats where integers belong, bit-pattern
/// strings of integral and of fractional values (and uppercase hex),
/// literals past `i64` and past `f64`, and every other member type.
const TOKENS: &[&str] = &[
    "9007199254740991",
    "9007199254740992",
    "-9007199254740992",
    "9223372036854775807",
    "-9223372036854775808",
    "18446744073709551615",
    "18446744073709551616",
    "-0",
    "0",
    "1",
    "-1",
    "2",
    "1.0",
    "1e0",
    "0.5",
    "1e400",
    "\"3ff0000000000000\"",
    "\"0000000000000000\"",
    "\"8000000000000000\"",
    "\"3fe0000000000000\"",
    "\"3FE0000000000000\"",
    "\"7ff8000000000000\"",
    "\"3fe\"",
    "\"x\"",
    "null",
    "true",
    "[]",
    "[\"f\",1]",
    "[\"i\",\"1\"]",
    "{}",
];

/// A valid fold request: `n` Q1-like rows (an integer, a fractional float
/// and a flag string per row, small integer weights) folded by COUNT, SUM
/// and AVG grouped on the string.
fn valid_request(n: usize) -> String {
    let rows: Vec<ORow> = (0..n)
        .map(|i| ORow {
            values: Arc::from(vec![
                Value::Int(i as i64 % 50 + 1),
                Value::Float(i as f64 * 1.25 + 0.1),
                Value::str(["A", "N", "R"][i % 3]),
            ]),
            mult: if i % 7 == 3 { -1.0 } else { 1.0 },
            weights: Some(Arc::from(
                (0..TRIALS)
                    .map(|t| ((i + t) % 3) as f64)
                    .collect::<Vec<_>>(),
            )),
        })
        .collect();
    let frag = FoldFragment {
        agg_id: 2,
        group_cols: vec![2],
        kinds: vec![FragKind::Count, FragKind::Sum, FragKind::Avg],
        srcs: vec![
            FragSrc::Lit(Value::Int(1)),
            FragSrc::Col(0),
            FragSrc::Col(1),
        ],
        trials: TRIALS,
    };
    fold_request_json(
        0,
        true,
        None,
        &frag_json(&frag).unwrap(),
        &rows_json(&rows).unwrap(),
    )
}

fn count(v: &JVal) -> usize {
    1 + match v {
        JVal::Arr(items) => items.iter().map(count).sum(),
        JVal::Obj(members) => members.iter().map(|(_, v)| count(v)).sum(),
        _ => 0,
    }
}

/// The `k`-th node of `v` in pre-order.
fn nth<'a>(v: &'a mut JVal, k: &mut usize) -> Option<&'a mut JVal> {
    if *k == 0 {
        return Some(v);
    }
    *k -= 1;
    match v {
        JVal::Arr(items) => items.iter_mut().find_map(|item| nth(item, k)),
        JVal::Obj(members) => members.iter_mut().find_map(|(_, item)| nth(item, k)),
        _ => None,
    }
}

fn member<'a>(v: &'a mut JVal, key: &str) -> Option<&'a mut JVal> {
    match v {
        JVal::Obj(members) => members.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// One mutation of a parsed request; `pick` chooses where, `token` what.
/// Returns the raw text to put in place of [`RAW`], if any.
fn mutate(req: &mut JVal, kind: usize, pick: u64, token: usize) -> Option<&'static str> {
    let raw = TOKENS[token];
    match kind {
        // Any node, anywhere, becomes a raw token.
        0 => {
            let mut k = (pick % count(req) as u64) as usize;
            *nth(req, &mut k)? = JVal::str(RAW);
            Some(raw)
        }
        // A row's weight vector grows or shrinks by one.
        1 => {
            let Some(JVal::Arr(rows)) = member(req, "rows") else {
                return None;
            };
            let n = rows.len() as u64;
            let row = rows.get_mut((pick % n.max(1)) as usize)?;
            if let Some(JVal::Arr(ws)) = member(row, "w") {
                if pick.is_multiple_of(2) {
                    ws.pop();
                } else {
                    ws.push(JVal::Int(1));
                }
            }
            None
        }
        // The trial count, the base or a column index takes a raw token
        // or a value past its bound.
        2 => {
            let big = [
                "10001",
                "10000",
                "0",
                "3",
                "5",
                "1000000",
                "9223372036854775807",
                "18446744073709551615",
            ];
            let raw = if token.is_multiple_of(2) {
                raw
            } else {
                big[(pick % big.len() as u64) as usize]
            };
            if pick % 4 == 3 {
                *member(req, "base")? = JVal::str(RAW);
                return Some(raw);
            }
            let frag = member(req, "frag")?;
            let slot = match pick % 4 {
                0 => member(frag, "trials")?,
                1 => {
                    let Some(JVal::Arr(gs)) = member(frag, "g") else {
                        return None;
                    };
                    gs.first_mut()?
                }
                _ => {
                    let Some(JVal::Arr(calls)) = member(frag, "calls") else {
                        return None;
                    };
                    let Some(JVal::Arr(parts)) = calls.get_mut(1) else {
                        return None;
                    };
                    parts.get_mut(2)?
                }
            };
            *slot = JVal::str(RAW);
            Some(raw)
        }
        // A member goes missing.
        _ => {
            let mut k = (pick % count(req) as u64) as usize;
            if let JVal::Obj(members) = nth(req, &mut k)? {
                if !members.is_empty() {
                    let at = (pick >> 32) as usize % members.len();
                    members.remove(at);
                }
            }
            None
        }
    }
}

/// The rows text of a request built by `fold_request_json`: everything
/// after its last member's key, less the closing brace.
fn rows_text(line: &str) -> Option<&str> {
    let at = line.rfind(",\"rows\":")?;
    line[at + ",\"rows\":".len()..].strip_suffix('}')
}

/// One request line in, one response line out, and an accepted frame is
/// canonical.
fn check(line: &str) -> Result<(), TestCaseError> {
    let resp = handle_shard_request(line);
    prop_assert!(!resp.contains('\n'), "response spans lines: {resp}");
    let v = parse(&resp).map_err(|e| TestCaseError::fail(format!("{e}: {resp}")))?;
    let ok = v.get("ok").and_then(JVal::as_bool);
    prop_assert!(ok.is_some(), "no ok flag: {resp}");
    if ok == Some(true) {
        prop_assert!(v.get("partials").is_some(), "ok without partials: {resp}");
        let sent = rows_text(line);
        prop_assert!(sent.is_some(), "accepted a frame without rows: {line}");
        let sent = sent.unwrap_or_default();
        let rows = parse(sent).ok().as_ref().and_then(rows_from_json);
        prop_assert!(rows.is_some(), "accepted rows that do not decode: {sent}");
        let again = rows.as_deref().and_then(rows_json);
        prop_assert_eq!(
            again.as_deref(),
            Some(sent),
            "accepted a non-canonical frame"
        );
    } else {
        prop_assert!(v.get("error").is_some(), "refusal without an error: {resp}");
    }
    Ok(())
}

#[test]
fn valid_frames_are_accepted_and_canonical() {
    for n in [0, 1, 3, 1025] {
        let line = valid_request(n);
        let resp = handle_shard_request(&line);
        assert!(resp.starts_with("{\"ok\":true"), "{resp}");
        check(&line).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 384, ..ProptestConfig::default() })]

    #[test]
    fn shard_fold_requests_never_panic(
        n in 1usize..24,
        muts in prop::collection::vec((0usize..4, any::<u64>(), 0usize..TOKENS.len()), 1..4),
    ) {
        let mut req = parse(&valid_request(n)).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let mut raws = Vec::new();
        for (kind, pick, token) in muts {
            raws.extend(mutate(&mut req, kind, pick, token));
        }
        // Each mutation left at most one placeholder, and a later one may
        // have overwritten or removed an earlier one's: fill what is left
        // in turn.
        let mut line = req.render();
        for raw in raws {
            line = line.replacen(&format!("\"{RAW}\""), raw, 1);
        }
        check(&line)?;
    }
}
