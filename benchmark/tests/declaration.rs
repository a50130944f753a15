//! `BENCHMARK.json` and the harness declare the same things.

use iolap_benchmark::compare::read_declaration;
use iolap_benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use std::path::Path;

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn declaration_matches_the_harness() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let decl = read_declaration(&path).expect("BENCHMARK.json reads");

    let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(decl.workloads, workloads);

    let e2e: Vec<&str> = decl.end_to_end.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(e2e, END_TO_END.map(|(n, _)| n));
    assert!(e2e.len() <= 16);
    assert!(e2e.contains(&"setup_s"));
    for m in &decl.end_to_end {
        assert!(
            m.bound > 0.0 && m.bound <= 0.25,
            "{} bound {}",
            m.name,
            m.bound
        );
    }
    let setup = decl
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert!(
        decl.end_to_end.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );

    let layers: Vec<&str> = decl.per_layer.iter().map(String::as_str).collect();
    assert_eq!(layers, PER_LAYER.map(|(n, _)| n));
    assert!(layers.len() <= 128);

    let mut all: Vec<&str> = workloads
        .iter()
        .chain(&e2e)
        .chain(&layers)
        .copied()
        .collect();
    assert!(
        all.iter().all(|n| name_ok(n)),
        "a name leaves [A-Za-z0-9_.-]"
    );
    let n = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), n, "a name is used twice");
}

#[test]
fn units_stay_inside_the_contract() {
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{name}: unit {unit}"
        );
    }
}
