//! Cross-engine agreement tests: for any batch prefix, HDA and iOLAP must
//! produce the same partial results on the queries both support, and both
//! must converge to the batch baseline's exact answer.

use iolap_baselines::{run_baseline, HdaDriver};
use iolap_core::{IolapConfig, IolapDriver};
use iolap_relation::PartitionMode;
use iolap_workloads::{conviva_catalog, conviva_query, conviva_registry};

fn config(batches: usize) -> IolapConfig {
    let mut c = IolapConfig::with_batches(batches).trials(10).seed(31);
    c.partition_mode = PartitionMode::RowShuffle;
    c
}

#[test]
fn hda_iolap_agree_per_batch_on_flat_queries() {
    let cat = conviva_catalog(500, 7);
    let registry = conviva_registry();
    for id in ["C3", "C5", "C11", "C12"] {
        let q = conviva_query(id).unwrap();
        let mut hda = HdaDriver::from_sql(q.sql, &cat, &registry, "sessions", config(5)).unwrap();
        let mut iolap =
            IolapDriver::from_sql(q.sql, &cat, &registry, "sessions", config(5)).unwrap();
        loop {
            match (hda.step(), iolap.step()) {
                (Some(b), Some(c)) => {
                    let (b, c) = (b.unwrap(), c.unwrap());
                    assert!(
                        b.result.relation.approx_eq(&c.result.relation, 1e-6),
                        "{id} batch {}: HDA != iOLAP",
                        b.batch
                    );
                }
                (None, None) => break,
                _ => panic!("{id}: drivers disagree on batch count"),
            }
        }
    }
}

#[test]
fn all_engines_converge_to_exact_answer() {
    let cat = conviva_catalog(400, 8);
    let registry = conviva_registry();
    for id in ["C3", "SBI", "C4", "C9"] {
        let q = conviva_query(id).unwrap();
        let exact = run_baseline(q.sql, &cat, &registry).unwrap().relation;
        let mut iolap =
            IolapDriver::from_sql(q.sql, &cat, &registry, "sessions", config(4)).unwrap();
        let reports = iolap.run_to_completion().unwrap();
        assert!(
            reports
                .last()
                .unwrap()
                .result
                .relation
                .approx_eq(&exact, 1e-6),
            "{id}: iOLAP final != exact"
        );
        let mut hda = HdaDriver::from_sql(q.sql, &cat, &registry, "sessions", config(4)).unwrap();
        let hreports = hda.run_to_completion().unwrap();
        assert!(
            hreports
                .last()
                .unwrap()
                .result
                .relation
                .approx_eq(&exact, 1e-6),
            "{id}: HDA final != exact"
        );
    }
}

#[test]
fn hda_state_stays_small_for_maintained_views() {
    // The higher-order views are sketches: their state must not grow with
    // the data (only with group counts).
    let cat = conviva_catalog(1000, 9);
    let registry = conviva_registry();
    let q = conviva_query("SBI").unwrap();
    let mut hda = HdaDriver::from_sql(q.sql, &cat, &registry, "sessions", config(8)).unwrap();
    let reports = hda.run_to_completion().unwrap();
    let first = reports[0].state_bytes_other.max(1);
    let last = reports.last().unwrap().state_bytes_other.max(1);
    assert!(
        last <= first * 2,
        "global-aggregate view state must not grow: {first} -> {last}"
    );
}
