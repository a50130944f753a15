//! Flight-recorder integration tests: the bounded in-memory trace ring must
//! retain — across a §5.1 fault/recovery episode — the injected fault, the
//! cascade it triggers, and every replay pass, so a post-mortem dump tells
//! the whole causal story.

use iolap_core::{EventKind, FaultKind, FaultPlan, IolapConfig, IolapDriver, TraceMode};
use iolap_engine::{execute, plan_sql, FunctionRegistry};
use iolap_relation::{Catalog, PartitionMode};
use iolap_workloads::{conviva_catalog, conviva_queries, conviva_registry, QuerySpec};

const BATCHES: usize = 6;

fn config(seed: u64, plan: FaultPlan) -> IolapConfig {
    let mut c = IolapConfig::with_batches(BATCHES)
        .trials(16)
        .seed(seed)
        .fault_plan(plan)
        .flight_recorder();
    c.partition_mode = PartitionMode::RowShuffle;
    c.checkpoint_interval = 1;
    c
}

fn conviva_query(id: &str) -> QuerySpec {
    conviva_queries().into_iter().find(|q| q.id == id).unwrap()
}

/// Run `q` under `cfg` to completion, assert exactness at m = 1, and return
/// the flight-recorder dump.
fn run_and_dump(q: &QuerySpec, cat: &Catalog, cfg: IolapConfig) -> (IolapDriver, String) {
    let registry = conviva_registry();
    let pq = plan_sql(q.sql, cat, &registry).unwrap();
    let mut driver = IolapDriver::from_plan(&pq, cat, q.stream_table, cfg).unwrap();
    let reports = driver.run_to_completion().unwrap();
    let exact = execute(&pq.plan, cat).unwrap();
    let last = &reports.last().unwrap().result.relation;
    assert!(
        last.approx_eq(&exact, 1e-6),
        "{}: final batch != exact after fault episode",
        q.id
    );
    let dump = driver
        .flight_dump()
        .expect("flight recorder armed, dump must exist");
    (driver, dump)
}

/// Two `FailRange` faults armed at the same batch: the first forces a range
/// failure (→ replay); during the replay pass the second, still-unclaimed
/// fault fires while `replaying` is set, which the driver must record as a
/// cascade. The dump must name the fault, the cascade depth, and each
/// replay window.
#[test]
fn flight_dump_names_fault_cascade_and_replays() {
    let cat = conviva_catalog(600, 7);
    let fail = FaultKind::FailRange {
        agg: None,
        column: None,
    };
    let plan = FaultPlan::new(13)
        .with(3, fail.clone())
        .with(3, fail.clone());
    let (driver, dump) = run_and_dump(&conviva_query("C8"), &cat, config(13, plan));

    // The injected faults are named by label.
    assert!(
        dump.contains("fault.injected") && dump.contains("fail_range"),
        "dump must name the injected fault:\n{dump}"
    );
    // The forced failure and its replay window are on the record.
    assert!(
        dump.contains("range.failure"),
        "missing range.failure:\n{dump}"
    );
    assert!(
        dump.contains("recovery.replay") && dump.contains("replay batches"),
        "missing replay window:\n{dump}"
    );
    // The second fault fired mid-replay → cascade, with its depth.
    assert!(
        dump.contains("recovery.cascade") && dump.contains("cascade depth"),
        "missing cascade record:\n{dump}"
    );
    assert!(driver.metrics().get("recovery.cascades") >= 1);
    // Ring bookkeeping: header reports retained/dropped counts.
    assert!(
        dump.starts_with("=== flight recorder:"),
        "bad header:\n{dump}"
    );
}

/// With no fault plan and the recorder armed, the dump still exists and
/// carries the ordinary batch/operator span skeleton — the recorder is a
/// always-on black box, not a fault-path special case.
#[test]
fn flight_dump_exists_on_clean_runs_and_off_mode_yields_none() {
    let cat = conviva_catalog(400, 5);
    let q = conviva_query("C2");
    let registry = FunctionRegistry::with_builtins();
    let pq = plan_sql(q.sql, &cat, &registry).unwrap();

    let mut cfg = IolapConfig::with_batches(4)
        .trials(8)
        .seed(3)
        .flight_recorder();
    cfg.partition_mode = PartitionMode::RowShuffle;
    let mut driver = IolapDriver::from_plan(&pq, &cat, q.stream_table, cfg).unwrap();
    driver.run_to_completion().unwrap();
    let dump = driver.flight_dump().unwrap();
    assert!(
        dump.contains(" batch ") || dump.contains("batch"),
        "no batch spans:\n{dump}"
    );
    assert!(dump.contains("sink.publish"), "no publish spans:\n{dump}");

    let mut off = IolapConfig::with_batches(4).trials(8).seed(3);
    off.partition_mode = PartitionMode::RowShuffle;
    assert!(matches!(off.trace_mode, TraceMode::Off));
    let mut driver = IolapDriver::from_plan(&pq, &cat, q.stream_table, off).unwrap();
    driver.run_to_completion().unwrap();
    assert!(driver.flight_dump().is_none());
    assert!(driver.trace_events().is_empty());
}

/// An injected mid-pipeline panic (`DerefPanic`) is recovered by the error
/// replay; the journal must show the episode: the fault event, the
/// error-replay marker, and a subsequent replay window.
#[test]
fn journal_records_panic_recovery_episode() {
    let cat = conviva_catalog(500, 9);
    let q = conviva_query("C8");
    let registry = conviva_registry();
    let pq = plan_sql(q.sql, &cat, &registry).unwrap();

    let plan = FaultPlan::new(21).with(2, FaultKind::DerefPanic);
    let mut cfg = IolapConfig::with_batches(BATCHES)
        .trials(16)
        .seed(21)
        .fault_plan(plan)
        .trace_mode(TraceMode::Journal);
    cfg.partition_mode = PartitionMode::RowShuffle;
    cfg.checkpoint_interval = 1;

    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut driver = IolapDriver::from_plan(&pq, &cat, q.stream_table, cfg).unwrap();
        driver.run_to_completion().unwrap();
        driver
    }));
    std::panic::set_hook(prev);
    let driver = match run {
        Ok(d) => d,
        Err(payload) => std::panic::resume_unwind(payload),
    };

    let events = driver.trace_events();
    let names: Vec<&str> = events.iter().map(|e| e.name).collect();
    assert!(
        names.contains(&"fault.injected"),
        "no fault event: {names:?}"
    );
    assert!(
        names.contains(&"recovery.error_replay"),
        "no error-replay marker: {names:?}"
    );
    assert!(
        names.contains(&"recovery.replay"),
        "no replay window: {names:?}"
    );
    // Span tree sanity: every End pairs a Begin with the same span id.
    let begins: Vec<u32> = events
        .iter()
        .filter(|e| e.kind == EventKind::Begin)
        .map(|e| e.span.0)
        .collect();
    for e in events.iter().filter(|e| e.kind == EventKind::End) {
        assert!(begins.contains(&e.span.0), "End without Begin: {e:?}");
    }
}
