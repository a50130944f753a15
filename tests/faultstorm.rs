//! Seeded fault-storm property test (§5.1 hardening): for the paper's
//! representative nested queries (TPC-H Q17/Q20, Conviva C8), inject every
//! fault kind at varying batch points and checkpoint intervals across
//! several seeds, and assert the driver still lands on the *exact* offline
//! answer at the final mini-batch (Theorem 1 anchor at m = 1). Q17 and C8
//! also run with fold dispatch offloaded to a two-shard loopback pool.

use iolap_core::{FaultKind, FaultPlan, IolapConfig, IolapDriver, ShardExec};
use iolap_engine::{execute, plan_sql, FunctionRegistry};
use iolap_relation::{Catalog, PartitionMode};
use iolap_server::shard::{serve_shard, TcpShardPool};
use iolap_workloads::{
    conviva_catalog, conviva_queries, conviva_registry, tpch_catalog, tpch_queries, QuerySpec,
};
use std::sync::Arc;

const BATCHES: usize = 6;
const KINDS: [FaultKind; 6] = [
    FaultKind::FailRange {
        agg: None,
        column: None,
    },
    FaultKind::DropCheckpoint,
    FaultKind::CorruptCheckpoint,
    FaultKind::WorkerPanic,
    FaultKind::DerefPanic,
    FaultKind::PerturbRanges { epsilon: 0.3 },
];

fn config(seed: u64, interval: usize, plan: FaultPlan) -> IolapConfig {
    let mut c = IolapConfig::with_batches(BATCHES)
        .trials(16)
        .seed(seed)
        .fault_plan(plan);
    c.partition_mode = PartitionMode::RowShuffle;
    c.checkpoint_interval = interval;
    c
}

/// A pool of `shards` connections to one loopback `serve_shard` worker.
fn loopback_pool(shards: usize) -> Arc<TcpShardPool> {
    let listener =
        std::net::TcpListener::bind("127.0.0.1:0").expect("bind a loopback shard worker");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || serve_shard(listener));
    Arc::new(TcpShardPool::connect(&vec![addr; shards]).unwrap())
}

/// Run `q` under `cfg` to completion and assert the final answer equals the
/// offline exact execution of the same plan. A `pool` makes the storm
/// also exercise the scale-out fold path (dispatch, partial ship,
/// partition-order merge) under faults.
fn storm_one(
    q: &QuerySpec,
    cat: &Catalog,
    registry: &FunctionRegistry,
    cfg: IolapConfig,
    pool: Option<&Arc<TcpShardPool>>,
) {
    let label = format!(
        "{} seed={} interval={} shards={} faults={:?}",
        q.id,
        cfg.seed,
        cfg.checkpoint_interval,
        pool.map_or(0, |p| p.shards()),
        cfg.fault_plan.as_ref().map(|p| p
            .faults
            .iter()
            .map(|f| f.kind.label())
            .collect::<Vec<_>>())
    );
    let pq = plan_sql(q.sql, cat, registry).unwrap_or_else(|e| panic!("{label}: plan error {e}"));
    let mut driver = IolapDriver::from_plan(&pq, cat, q.stream_table, cfg)
        .unwrap_or_else(|e| panic!("{label}: driver error {e}"));
    if let Some(pool) = pool {
        driver.set_shard_exec(pool.clone());
    }
    let reports = driver
        .run_to_completion()
        .unwrap_or_else(|e| panic!("{label}: run error {e}"));
    let exact = execute(&pq.plan, cat).unwrap();
    let last = &reports.last().unwrap().result.relation;
    assert!(
        last.approx_eq(&exact, 1e-6),
        "{label}: final batch != exact\n== iOLAP ==\n{last}== exact ==\n{exact}"
    );
}

fn storm(q: &QuerySpec, cat: &Catalog, registry: &FunctionRegistry, shards: usize) {
    let pool = (shards > 0).then(|| loopback_pool(shards));
    // Injected worker/deref panics are caught and recovered, but the
    // default hook would still print their backtraces into the test log.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        for seed in [11u64, 12, 13] {
            for kind in &KINDS {
                for (batch, interval) in [(2usize, 1usize), (BATCHES - 2, 2)] {
                    let plan = FaultPlan::new(seed).with(batch, kind.clone());
                    storm_one(
                        q,
                        cat,
                        registry,
                        config(seed, interval, plan),
                        pool.as_ref(),
                    );
                }
            }
            // Compound storm: several faults armed in one run.
            let plan = FaultPlan::new(seed)
                .with(1, FaultKind::CorruptCheckpoint)
                .with(
                    2,
                    FaultKind::FailRange {
                        agg: None,
                        column: None,
                    },
                )
                .with(3, FaultKind::WorkerPanic)
                .with(4, FaultKind::PerturbRanges { epsilon: 0.2 });
            storm_one(q, cat, registry, config(seed, 1, plan), pool.as_ref());
        }
    }));
    std::panic::set_hook(prev);
    if let Err(payload) = run {
        std::panic::resume_unwind(payload);
    }
}

fn tpch_query(id: &str) -> QuerySpec {
    tpch_queries().into_iter().find(|q| q.id == id).unwrap()
}

#[test]
fn tpch_q17_survives_fault_storm_exactly() {
    let cat = tpch_catalog(0.04, 41);
    let registry = FunctionRegistry::with_builtins();
    storm(&tpch_query("Q17"), &cat, &registry, 0);
}

#[test]
fn tpch_q20_survives_fault_storm_exactly() {
    let cat = tpch_catalog(0.04, 42);
    let registry = FunctionRegistry::with_builtins();
    storm(&tpch_query("Q20"), &cat, &registry, 0);
}

#[test]
fn conviva_c8_survives_fault_storm_exactly() {
    let cat = conviva_catalog(700, 43);
    let registry = conviva_registry();
    let q = conviva_queries()
        .into_iter()
        .find(|q| q.id == "C8")
        .unwrap();
    storm(&q, &cat, &registry, 0);
}

/// The same storm with fold dispatch offloaded to a two-shard pool: every
/// fault kind must still land Theorem-1-exact, and the WorkerPanic fault
/// (which now fires on the dispatch path) must still be recoverable.
#[test]
fn conviva_c8_survives_fault_storm_exactly_on_two_shards() {
    let cat = conviva_catalog(700, 43);
    let registry = conviva_registry();
    let q = conviva_queries()
        .into_iter()
        .find(|q| q.id == "C8")
        .unwrap();
    storm(&q, &cat, &registry, 2);
}

#[test]
fn tpch_q17_survives_fault_storm_exactly_on_two_shards() {
    let cat = tpch_catalog(0.04, 41);
    let registry = FunctionRegistry::with_builtins();
    storm(&tpch_query("Q17"), &cat, &registry, 2);
}
