//! End-to-end deterministic fault-injection tests (§5.1 hardening).
//!
//! A `FaultPlan` in the config arms seed-driven faults — forced range
//! failures, dropped/corrupted checkpoints, panicking folds and
//! derefs, perturbed ranges — and the driver must come through every one
//! of them with answers still matching the offline oracle on the scaled
//! prefix (Theorem 1 does not get a fault-injection exemption).

use iolap_core::{BatchReport, FaultKind, FaultPlan, IolapConfig, IolapDriver};
use iolap_engine::{execute, plan_sql, FunctionRegistry};
use iolap_relation::{
    BatchedRelation, Catalog, DataType, PartitionMode, Relation, Row, Schema, Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NESTED_SQL: &str = "SELECT AVG(y) FROM t WHERE x > (SELECT AVG(x) FROM t)";

/// Stationary data: with the paper's slack = 2 no organic range failure is
/// expected, so every recovery observed below is attributable to the
/// injected fault.
fn stationary_catalog(n: usize, seed: u64) -> Catalog {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = Schema::from_pairs(&[
        ("id", DataType::Int),
        ("x", DataType::Float),
        ("y", DataType::Float),
    ]);
    let rows = (0..n)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Float(rng.gen::<f64>() * 50.0),
                Value::Float(rng.gen::<f64>() * 100.0),
            ]
        })
        .collect();
    let mut c = Catalog::new();
    c.register("t", Relation::from_values(schema, rows));
    c
}

/// Drifting data (as in `recovery.rs`): zero slack forces organic
/// failures, which the checkpoint-level faults then sabotage.
fn drifting_catalog(n: usize, seed: u64) -> Catalog {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = Schema::from_pairs(&[
        ("id", DataType::Int),
        ("x", DataType::Float),
        ("y", DataType::Float),
    ]);
    let rows = (0..n)
        .map(|i| {
            let drift = i as f64 / n as f64 * 40.0;
            vec![
                Value::Int(i as i64),
                Value::Float(rng.gen::<f64>() * 30.0 + drift),
                Value::Float(rng.gen::<f64>() * 100.0),
            ]
        })
        .collect();
    let mut c = Catalog::new();
    c.register("t", Relation::from_values(schema, rows));
    c
}

fn config(batches: usize, slack: f64, ckpt: usize) -> IolapConfig {
    let mut c = IolapConfig::with_batches(batches)
        .trials(16)
        .seed(5)
        .slack(slack);
    c.partition_mode = PartitionMode::Sequential;
    c.checkpoint_interval = ckpt;
    c
}

/// Run `sql` to completion, checking every batch against the offline
/// oracle on the scaled prefix. Returns the finished driver (for metrics /
/// fire counts) and every batch's report.
fn run_sql_exact(sql: &str, cat: &Catalog, config: IolapConfig) -> (IolapDriver, Vec<BatchReport>) {
    let registry = FunctionRegistry::with_builtins();
    let pq = plan_sql(sql, cat, &registry).unwrap();
    let stream = cat.get("t").unwrap();
    let parts = BatchedRelation::partition(
        &stream,
        config.num_batches,
        config.seed,
        config.partition_mode,
    );
    let mut driver = IolapDriver::from_plan(&pq, cat, "t", config).unwrap();
    let mut reports = Vec::new();
    while let Some(step) = driver.step() {
        let report = step.unwrap();
        let i = report.batch;
        let prefix = parts.union_through(i);
        let m = parts.scale_after(i);
        let mut oc = cat.clone();
        oc.register(
            "t",
            Relation::new(
                prefix.schema().clone(),
                prefix
                    .rows()
                    .iter()
                    .map(|r| Row::with_mult(r.values.to_vec(), r.mult * m))
                    .collect(),
            ),
        );
        let expected = execute(&pq.plan, &oc).unwrap();
        assert!(
            report.result.relation.approx_eq(&expected, 1e-6),
            "batch {i} mismatch under fault injection\niOLAP:\n{}\noracle:\n{}",
            report.result.relation,
            expected
        );
        reports.push(report);
    }
    (driver, reports)
}

/// [`run_sql_exact`] on [`NESTED_SQL`], returning the number of batches
/// that recovered instead of the reports.
fn run_exact(cat: &Catalog, config: IolapConfig) -> (IolapDriver, usize) {
    let (driver, reports) = run_sql_exact(NESTED_SQL, cat, config);
    let recoveries = reports.iter().filter(|r| r.recovered).count();
    (driver, recoveries)
}

fn fires_for(driver: &IolapDriver, label: &str) -> u64 {
    driver
        .fault_fires()
        .iter()
        .filter(|(l, _, _)| *l == label)
        .map(|(_, _, n)| n)
        .sum()
}

/// A forced range failure only flips a range the usage gate acts on, so
/// every fire is a rollback. Stationary data at slack 2 fails no range on
/// its own, so the driver's range rollbacks are exactly the fires.
fn assert_every_fire_rolls_back(driver: &IolapDriver) {
    assert_eq!(
        fires_for(driver, "fail_range"),
        driver.total_failures() as u64,
        "every fired FailRange must force a rollback"
    );
}

#[test]
fn forced_range_failure_recovers_and_stays_exact() {
    let cat = stationary_catalog(300, 11);
    let cfg = config(10, 2.0, 1).fault_plan(FaultPlan::new(7).with(
        3,
        FaultKind::FailRange {
            agg: None,
            column: None,
        },
    ));
    let (driver, recoveries) = run_exact(&cat, cfg);
    assert_eq!(fires_for(&driver, "fail_range"), 1, "fault must fire once");
    assert!(recoveries >= 1, "forced failure must trigger recovery");
    assert_every_fire_rolls_back(&driver);
    assert!(driver.metrics().get("recovery.replays") >= 1);
}

#[test]
fn forced_failure_fires_only_where_it_forces_a_rollback() {
    // At batch 0 every range in use was first used with the observation
    // the tracker holds now, so a failure of it would be waived: the fault
    // armed there finds no range to flip. The one armed at batch 3 does,
    // and rolls back.
    let cat = stationary_catalog(300, 11);
    let fail = FaultKind::FailRange {
        agg: None,
        column: None,
    };
    let plan = FaultPlan::new(7).with(0, fail.clone()).with(3, fail);
    let (driver, recoveries) = run_exact(&cat, config(10, 2.0, 1).fault_plan(plan));
    let fires: Vec<(usize, u64)> = driver
        .fault_fires()
        .iter()
        .map(|(_, batch, n)| (*batch, *n))
        .collect();
    assert_eq!(fires, vec![(0, 0), (3, 1)]);
    assert_every_fire_rolls_back(&driver);
    assert_eq!(recoveries, 1);
}

#[test]
fn each_row_is_drawn_once_across_rescans_and_replays() {
    // NESTED_SQL scans `t` twice every batch (outer query and subquery),
    // and the forced failure replays at least one batch: the second scan
    // and the replay take the first scan's weights from the driver's memo.
    let cat = stationary_catalog(300, 11);
    let cfg = config(10, 2.0, 1).fault_plan(FaultPlan::new(7).with(
        3,
        FaultKind::FailRange {
            agg: None,
            column: None,
        },
    ));
    let (driver, recoveries) = run_exact(&cat, cfg);
    assert!(recoveries >= 1, "forced failure must trigger recovery");
    assert_every_fire_rolls_back(&driver);
    assert!(driver.metrics().get("recovery.replayed_rows") >= 1);
    let m = driver.metrics();
    let (drawn, reused) = (
        m.get("scan.weight_rows_drawn"),
        m.get("scan.weight_rows_reused"),
    );
    assert_eq!(drawn, 300, "one draw per distinct stream row");
    assert!(reused > 0);
    assert_eq!(drawn + reused, m.get("scan.rows"));
}

#[test]
fn cascading_mid_replay_failure_triggers_bounded_re_recovery() {
    // Two armed FailRange faults at the same batch on a query with two
    // pruning subqueries: the first flips one attribute's outcome on the
    // fresh pass; during the replay that attribute sits in quarantine, so
    // the second fault lands on the *other* (still-live) attribute — a
    // failure detected mid-replay. That is the exact scenario the old
    // controller silently discarded (its replay outcomes went to
    // `let _ =`). The hardened loop must run a second, bounded recovery
    // and still agree with the oracle.
    let two_pred_sql =
        "SELECT AVG(y) FROM t WHERE x > (SELECT AVG(x) FROM t) AND y < (SELECT SUM(y) FROM t)";
    let cat = stationary_catalog(300, 12);
    let cfg = config(10, 2.0, 1).fault_plan(
        FaultPlan::new(7)
            .with(
                4,
                FaultKind::FailRange {
                    agg: None,
                    column: None,
                },
            )
            .with(
                4,
                FaultKind::FailRange {
                    agg: None,
                    column: None,
                },
            ),
    );
    let (driver, _) = run_sql_exact(two_pred_sql, &cat, cfg);
    assert_eq!(fires_for(&driver, "fail_range"), 2);
    assert_every_fire_rolls_back(&driver);
    assert!(
        driver.metrics().get("recovery.cascades") >= 1,
        "the second failure arrives mid-replay and must register as a cascade"
    );
}

#[test]
fn forced_failure_with_sparse_checkpoints_stays_exact() {
    // Interval 3: the recovery target rarely has a same-batch checkpoint,
    // so the replay must start at the *checkpoint's* successor batch, not
    // at the target.
    let cat = stationary_catalog(300, 13);
    let cfg = config(10, 2.0, 3).fault_plan(FaultPlan::new(7).with(
        5,
        FaultKind::FailRange {
            agg: None,
            column: None,
        },
    ));
    let (driver, recoveries) = run_exact(&cat, cfg);
    assert_eq!(fires_for(&driver, "fail_range"), 1);
    assert_every_fire_rolls_back(&driver);
    assert!(recoveries >= 1);
    assert!(driver.metrics().get("recovery.replayed_rows") >= 1);
}

#[test]
fn dropped_checkpoints_degrade_to_longer_replays() {
    // Every save is dropped: only the initial checkpoint survives, so each
    // organic recovery replays the full prefix — slow but exact.
    let cat = drifting_catalog(300, 14);
    let mut plan = FaultPlan::new(7);
    for b in 0..10 {
        plan = plan.with(b, FaultKind::DropCheckpoint);
    }
    let cfg = config(10, 0.0, 1).fault_plan(plan);
    let (driver, recoveries) = run_exact(&cat, cfg);
    assert!(recoveries >= 1, "zero slack on drifting data must recover");
    assert!(driver.metrics().get("ckpt.dropped") >= 1);
    assert_eq!(driver.metrics().get("ckpt.saves"), 0, "all saves dropped");
    let (count, bytes) = driver.checkpoint_footprint();
    assert_eq!((count, bytes), (1, 0), "only the initial checkpoint left");
}

#[test]
fn corrupted_checkpoints_are_detected_and_skipped() {
    // Every save is corrupted at write time; restores must detect the
    // digest mismatch, discard the save, and fall back — ultimately to the
    // pristine initial checkpoint — without ever restoring damaged state.
    let cat = drifting_catalog(300, 15);
    let mut plan = FaultPlan::new(7);
    for b in 0..10 {
        plan = plan.with(b, FaultKind::CorruptCheckpoint);
    }
    let cfg = config(10, 0.0, 1).fault_plan(plan);
    let (driver, recoveries) = run_exact(&cat, cfg);
    assert!(recoveries >= 1);
    assert!(
        driver.metrics().get("ckpt.corrupt_detected") >= 1,
        "a restore must have tripped over a damaged checkpoint"
    );
}

#[test]
fn worker_panic_is_recovered_via_error_replay() {
    let cat = stationary_catalog(300, 16);
    let cfg = config(10, 2.0, 1).fault_plan(FaultPlan::new(7).with(4, FaultKind::WorkerPanic));
    let (driver, recoveries) = run_exact(&cat, cfg);
    assert_eq!(fires_for(&driver, "worker_panic"), 1);
    assert!(recoveries >= 1, "the panicked batch must report recovery");
    assert!(driver.metrics().get("recovery.error_replays") >= 1);
    assert_eq!(
        driver.total_failures(),
        0,
        "an execution error is not a range-integrity failure"
    );
}

#[test]
fn deref_panic_is_recovered() {
    let cat = stationary_catalog(300, 17);
    let cfg = config(10, 2.0, 1).fault_plan(FaultPlan::new(7).with(4, FaultKind::DerefPanic));
    let (driver, recoveries) = run_exact(&cat, cfg);
    assert_eq!(fires_for(&driver, "deref_panic"), 1);
    assert!(recoveries >= 1);
    assert!(
        driver.metrics().get("recovery.error_replays") >= 1,
        "the panic must buy an error replay"
    );
}

#[test]
fn publish_panic_rolls_back_and_replays() {
    // On a flat query the only deref of a published aggregate happens at
    // publish time, so the injected panic lands in the sink's render. A
    // panicking publish takes the one rollback path: restore, replay the
    // batch, save and publish again.
    let cat = stationary_catalog(300, 17);
    let cfg = config(10, 2.0, 1).fault_plan(FaultPlan::new(7).with(4, FaultKind::DerefPanic));
    let (driver, reports) = run_sql_exact("SELECT AVG(x), SUM(y) FROM t", &cat, cfg);
    assert_eq!(fires_for(&driver, "deref_panic"), 1);
    assert!(
        reports[4].recovered,
        "the panicked batch must report recovery"
    );
    assert!(
        driver.metrics().get("recovery.error_replays") >= 1,
        "a publish panic must roll back like an operator error"
    );
}

/// 400 stationary rows in four groups `g`, for per-group subqueries.
fn grouped_catalog(n: usize, seed: u64) -> Catalog {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = Schema::from_pairs(&[
        ("id", DataType::Int),
        ("g", DataType::Int),
        ("x", DataType::Float),
        ("y", DataType::Float),
    ]);
    let rows = (0..n)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Int((i % 4) as i64),
                Value::Float(rng.gen::<f64>() * 50.0),
                Value::Float(rng.gen::<f64>() * 100.0),
            ]
        })
        .collect();
    let mut c = Catalog::new();
    c.register("t", Relation::from_values(schema, rows));
    c
}

#[test]
fn failures_past_the_depth_budget_degrade_and_stay_exact() {
    // Six forced failures at one batch on a query with one pruning range
    // per group: each pass flips one live range, so the cascade outlasts
    // the recovery depth budget and the controller must degrade — bar the
    // offenders and recompute the prefix from the initial checkpoint.
    let sql = "SELECT SUM(y) FROM t WHERE x > (SELECT AVG(t2.x) FROM t t2 WHERE t2.g = t.g)";
    let cat = grouped_catalog(400, 24);
    let fail = FaultKind::FailRange {
        agg: None,
        column: None,
    };
    let plan = (0..6).fold(FaultPlan::new(7), |p, _| p.with(4, fail.clone()));
    let (driver, _) = run_sql_exact(sql, &cat, config(10, 2.0, 1).fault_plan(plan));
    assert_every_fire_rolls_back(&driver);
    let m = driver.metrics();
    assert!(
        m.get("recovery.degraded") >= 1,
        "the depth budget must run out"
    );
    assert!(m.get("recovery.cascades") >= 1);
}

#[test]
fn error_and_range_failure_share_one_depth_budget() {
    // A panicking fold and a forced range failure armed at one batch, in
    // both plan orders: the panic buys an error replay, the failure lands
    // mid-replay and cascades into a second replay of the same batch.
    let fail = FaultKind::FailRange {
        agg: None,
        column: None,
    };
    for order in [
        [FaultKind::WorkerPanic, fail.clone()],
        [fail.clone(), FaultKind::WorkerPanic],
    ] {
        let cat = stationary_catalog(300, 11);
        let plan = order
            .iter()
            .fold(FaultPlan::new(7), |p, k| p.with(4, k.clone()));
        let (driver, reports) =
            run_sql_exact(NESTED_SQL, &cat, config(10, 2.0, 1).fault_plan(plan));
        assert_every_fire_rolls_back(&driver);
        let m = &reports[4].metrics;
        let counts = (
            m.get("recovery.error_replays"),
            m.get("recovery.replays"),
            m.get("recovery.cascades"),
        );
        assert_eq!(counts, (1, 2, 1), "order {order:?}");
    }
}

#[test]
fn perturbed_ranges_remain_sound() {
    // PerturbRanges only moves ranges in conservative directions (wider
    // classification view, tighter monitored envelope), so answers stay
    // exact; at most it costs extra recoveries.
    let cat = stationary_catalog(300, 18);
    let cfg = config(10, 2.0, 1)
        .fault_plan(FaultPlan::new(7).with(3, FaultKind::PerturbRanges { epsilon: 0.5 }));
    let (driver, _) = run_exact(&cat, cfg);
    assert!(
        fires_for(&driver, "perturb_ranges") >= 1,
        "perturbation must have touched at least one range"
    );
}

/// What [`run_with_durable_hooks`] observed per batch: the driver plus
/// each durable hook's `(batch, value)` fires.
type DurableHookFires = (
    IolapDriver,
    Vec<(usize, f64)>,
    Vec<(usize, f64)>,
    Vec<(usize, u64)>,
);

/// Drive the injector exactly as the serving layer's durable spill path
/// does: after each batch, offer the report's index to each durable
/// fault hook. Core owns the *kinds* and their arming; the byte damage
/// itself is applied by the store layer.
fn run_with_durable_hooks(cat: &Catalog, config: IolapConfig) -> DurableHookFires {
    let registry = FunctionRegistry::with_builtins();
    let pq = plan_sql(NESTED_SQL, cat, &registry).unwrap();
    let mut driver = IolapDriver::from_plan(&pq, cat, "t", config).unwrap();
    let (mut torn, mut chopped, mut stale) = (Vec::new(), Vec::new(), Vec::new());
    while let Some(step) = driver.step() {
        let report = step.unwrap();
        if let Some(inj) = driver.fault_injector() {
            if let Some(f) = inj.inject_torn_write(report.batch) {
                torn.push((report.batch, f));
            }
            if let Some(f) = inj.inject_truncated_segment(report.batch) {
                chopped.push((report.batch, f));
            }
            if let Some(mask) = inj.inject_stale_manifest(report.batch) {
                stale.push((report.batch, mask));
            }
        }
    }
    (driver, torn, chopped, stale)
}

#[test]
fn torn_write_fault_is_seeded_one_shot_and_a_valid_fraction() {
    let cat = stationary_catalog(300, 20);
    let plan = || FaultPlan::new(9).with(2, FaultKind::TornWrite);
    let cfg = config(6, 2.0, 1).fault_plan(plan());
    let (driver, torn, chopped, stale) = run_with_durable_hooks(&cat, cfg);
    assert_eq!(torn.len(), 1, "one-shot: fires exactly once");
    assert!(
        chopped.is_empty() && stale.is_empty(),
        "kinds are independent"
    );
    let (batch, frac) = torn[0];
    assert_eq!(batch, 2, "fires at the armed batch");
    assert!(
        (0.0..1.0).contains(&frac) && frac > 0.0,
        "tear keeps a strict prefix: {frac}"
    );
    assert_eq!(fires_for(&driver, "torn_write"), 1);
    // Seeded: an identically-configured run tears at the same byte.
    let cfg = config(6, 2.0, 1).fault_plan(plan());
    let (_, torn2, _, _) = run_with_durable_hooks(&cat, cfg);
    assert_eq!(torn, torn2, "same seed, same tear point");
}

#[test]
fn truncated_segment_fault_replays_exactly_from_the_surviving_prefix() {
    let cat = stationary_catalog(300, 21);
    let cfg = config(6, 2.0, 1).fault_plan(FaultPlan::new(9).with(3, FaultKind::TruncatedSegment));
    let (driver, torn, chopped, _) = run_with_durable_hooks(&cat, cfg);
    assert!(torn.is_empty());
    assert_eq!(chopped, {
        let cfg =
            config(6, 2.0, 1).fault_plan(FaultPlan::new(9).with(3, FaultKind::TruncatedSegment));
        run_with_durable_hooks(&cat, cfg).2
    });
    assert_eq!(chopped.len(), 1);
    assert!(chopped[0].1 > 0.0 && chopped[0].1 <= 1.0);
    assert_eq!(fires_for(&driver, "truncated_segment"), 1);

    // Truncation loses the log tail; what recovery sees is a shorter
    // event prefix. Replaying that prefix must regenerate reports
    // identical to the uninterrupted run's first batches — the oracle
    // contract the server's crash matrix pins bytewise.
    let registry = FunctionRegistry::with_builtins();
    let pq = plan_sql(NESTED_SQL, &cat, &registry).unwrap();
    let base = config(6, 2.0, 1);
    let mut full = IolapDriver::from_plan(&pq, &cat, "t", base.clone()).unwrap();
    let reports = full.run_to_completion().unwrap();
    let mut resumed = IolapDriver::from_plan(&pq, &cat, "t", base).unwrap();
    let events: Vec<_> = (0..3).map(iolap_core::ReplayEvent::Batch).collect();
    let outcome = resumed.resume_replay(&events).unwrap();
    assert_eq!(outcome.replayed_batches, 3);
    assert_eq!(outcome.stale_digests, 0);
    assert_eq!(outcome.reports.len(), 3);
    for (r, e) in outcome.reports.iter().zip(reports.iter()) {
        assert_eq!(r.batch, e.batch);
        assert_eq!(r.recovered, e.recovered);
        assert!(
            r.result.relation.approx_eq(&e.result.relation, 0.0),
            "replayed batch {} diverged from the uninterrupted run",
            r.batch
        );
    }
}

#[test]
fn stale_manifest_digest_is_detected_but_replay_stays_exact() {
    // A stale manifest poisons the *recorded* digest, never the data: the
    // replay re-derives state from the stream, flags the mismatch, and the
    // regenerated reports still match the uninterrupted run exactly.
    let cat = stationary_catalog(300, 22);
    let cfg = config(6, 2.0, 1).fault_plan(FaultPlan::new(9).with(1, FaultKind::StaleManifest));
    let (_, _, _, stale) = run_with_durable_hooks(&cat, cfg);
    assert_eq!(stale.len(), 1);
    let mask = stale[0].1;
    assert_ne!(mask, 0, "mask must actually flip digest bits");

    let registry = FunctionRegistry::with_builtins();
    let pq = plan_sql(NESTED_SQL, &cat, &registry).unwrap();
    let base = config(6, 2.0, 1);
    let mut full = IolapDriver::from_plan(&pq, &cat, "t", base.clone()).unwrap();
    let reports = full.run_to_completion().unwrap();
    let (digest, _) = full.checkpoint_for(5).expect("interval-1 checkpoints");

    // Undamaged digest: verified clean.
    let replay = |poison: u64| {
        let mut d = IolapDriver::from_plan(&pq, &cat, "t", base.clone()).unwrap();
        let events: Vec<_> = (0..6)
            .map(iolap_core::ReplayEvent::Batch)
            .chain(std::iter::once(iolap_core::ReplayEvent::Checkpoint {
                batch: 5,
                digest: digest ^ poison,
            }))
            .collect();
        d.resume_replay(&events).unwrap()
    };
    let clean = replay(0);
    assert_eq!(clean.stale_digests, 0, "pristine digest must verify");
    let poisoned = replay(mask);
    assert_eq!(poisoned.stale_digests, 1, "mask must trip the digest check");
    assert_eq!(poisoned.reports.len(), reports.len());
    for (r, e) in poisoned.reports.iter().zip(reports.iter()) {
        assert!(
            r.result.relation.approx_eq(&e.result.relation, 0.0),
            "stale digest must not change replayed answers (batch {})",
            r.batch
        );
    }
}

#[test]
fn durable_faults_are_option_gated() {
    // L004: production configs carry no injector at all — the durable
    // spill path's hooks hang off `fault_injector()` returning `None`,
    // not off a disarmed injector.
    let cat = stationary_catalog(100, 23);
    let registry = FunctionRegistry::with_builtins();
    let pq = plan_sql(NESTED_SQL, &cat, &registry).unwrap();
    let driver = IolapDriver::from_plan(&pq, &cat, "t", config(4, 2.0, 1)).unwrap();
    assert!(driver.fault_injector().is_none());
}

#[test]
fn fault_free_plan_changes_nothing() {
    // An armed injector with an empty fault list must be a strict no-op:
    // identical reports to a production (no-plan) run.
    let cat = drifting_catalog(200, 19);
    let base = config(8, 0.0, 1);
    let with_empty_plan = config(8, 0.0, 1).fault_plan(FaultPlan::new(7));
    let registry = FunctionRegistry::with_builtins();
    let pq = plan_sql(NESTED_SQL, &cat, &registry).unwrap();
    let mut a = IolapDriver::from_plan(&pq, &cat, "t", base).unwrap();
    let mut b = IolapDriver::from_plan(&pq, &cat, "t", with_empty_plan).unwrap();
    let ra = a.run_to_completion().unwrap();
    let rb = b.run_to_completion().unwrap();
    assert_eq!(ra.len(), rb.len());
    for (x, y) in ra.iter().zip(rb.iter()) {
        assert!(x.result.relation.approx_eq(&y.result.relation, 0.0));
        assert_eq!(x.recovered, y.recovered);
    }
    assert!(b.fault_fires().iter().all(|(_, _, n)| *n == 0));
}
