//! Inputs are a function of the seed: same seed, same bytes.

use iolap_benchmark::inputs::{append_line, append_rows, round_order, session_kinds, wire_seed};
use iolap_benchmark::spec::workload;

fn lines(seed: u64) -> Vec<String> {
    let w = workload("serve_tcp").expect("serve_tcp is declared");
    let kinds = session_kinds(w);
    let mut out = Vec::new();
    for round in 0..3 {
        for k in round_order(seed, round, kinds.len()) {
            out.push(kinds[k].submit_line(0, wire_seed(seed, 0), &format!("c0-{round}")));
        }
    }
    for table in ["sessions", "lineorder"] {
        out.push(append_line(
            table,
            &append_rows(table, wire_seed(seed, 0xA000)),
        ));
    }
    out
}

#[test]
fn same_seed_gives_byte_identical_lines() {
    assert_eq!(lines(11), lines(11));
}

#[test]
fn another_seed_gives_other_lines() {
    let (a, b) = (lines(11), lines(12));
    assert_eq!(a.len(), b.len());
    assert_ne!(a, b);
    // Submit order, driver seed and appended rows all move with the seed.
    assert_ne!(a[0], b[0]);
    assert_ne!(a.last(), b.last());
}

#[test]
fn every_generated_line_parses_and_keeps_its_shape() {
    for line in lines(5) {
        let v = iolap_server::wire::parse(&line).expect("line parses");
        let op = v
            .get("op")
            .and_then(iolap_server::wire::JVal::as_str)
            .expect("has op");
        assert!(op == "submit" || op == "append", "{op}");
    }
}
