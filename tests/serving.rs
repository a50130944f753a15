//! Serving-layer acceptance: eight concurrent sessions over four distinct
//! built-in queries, with every delivered report byte-identical to the
//! solo run's report at the same batch, accuracy-contract sessions stopping
//! strictly before full-data completion, and run-to-completion sessions
//! running every batch — under open arrival (every session live at once)
//! and closed arrival (live slots bounded, the rest queued). Admission
//! rejection when full is covered by `crates/server/tests/serving.rs`.

use iolap_core::{BatchReport, IolapConfig, IolapDriver};
use iolap_engine::{plan_sql, FunctionRegistry};
use iolap_relation::{Catalog, PartitionMode};
use iolap_server::{Server, ServerConfig, SessionSpec, StopPolicy};
use iolap_workloads::{conviva_catalog, conviva_query, conviva_registry};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

const BATCHES: usize = 6;
const SESSIONS: usize = 8;
/// Session `i` runs `QUERIES[i % 4]` under `policy(i)`.
const QUERIES: [&str; 4] = ["C2", "C3", "SBI", "C1"];

fn policy(i: usize) -> StopPolicy {
    match i % 4 {
        0 | 1 => StopPolicy::complete(),
        // Generous enough to be met within the first batches, so the
        // "stops strictly early" check is exercised, not vacuous.
        2 => StopPolicy::RelativeCI {
            target: 0.5,
            confidence: 0.95,
        },
        _ => StopPolicy::Batches(BATCHES / 2),
    }
}

fn driver(cat: &Catalog, registry: &FunctionRegistry, id: &str) -> IolapDriver {
    let q = conviva_query(id).unwrap();
    let pq = plan_sql(q.sql, cat, registry).unwrap();
    let mut cfg = IolapConfig::with_batches(BATCHES).trials(12).seed(2016);
    cfg.partition_mode = PartitionMode::RowShuffle;
    IolapDriver::from_plan(&pq, cat, q.stream_table, cfg).unwrap()
}

/// A report's answer (relation, names, error estimates — no wall clock).
fn canon(r: &BatchReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "batch={} fraction={} recovered={}",
        r.batch, r.fraction, r.recovered
    );
    let _ = writeln!(s, "names={:?}", r.result.names);
    let _ = write!(s, "{}", r.result.relation);
    let _ = writeln!(s, "estimates={:?}", r.result.estimates);
    s
}

/// Submit the eight sessions to a `workers`-thread server with `max_live`
/// live slots, drain each from its own client thread, and check every
/// session against its solo run.
fn run_fleet_and_check(workers: usize, max_live: usize) {
    let cat = conviva_catalog(500, 2016);
    let registry = conviva_registry();
    let solo: BTreeMap<&str, Vec<String>> = QUERIES
        .iter()
        .map(|id| {
            let reports = driver(&cat, &registry, id).run_to_completion().unwrap();
            (*id, reports.iter().map(canon).collect())
        })
        .collect();

    let server = Server::new(
        ServerConfig::with_workers(workers)
            .max_live(max_live)
            .max_queued(SESSIONS),
    );
    let sessions: Vec<_> = (0..SESSIONS)
        .map(|i| {
            let id = QUERIES[i % QUERIES.len()];
            let label = format!("s{i}:{id}");
            let spec = SessionSpec::named(label.clone()).policy(policy(i));
            let handle = server
                .submit(driver(&cat, &registry, id), spec)
                .unwrap_or_else(|e| panic!("{label} rejected: {e}"));
            (label, id, policy(i), handle)
        })
        .collect();
    let drained: Vec<_> = std::thread::scope(|scope| {
        let clients: Vec<_> = sessions
            .iter()
            .map(|(_, _, _, h)| {
                scope.spawn(move || (h.drain(Duration::from_secs(30)), h.summary()))
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });
    server.shutdown();

    for ((label, id, policy, _), (reports, summary)) in sessions.iter().zip(&drained) {
        assert!(!reports.is_empty(), "{label} delivered nothing");
        // Concurrency must never change an answer.
        for (k, r) in reports.iter().enumerate() {
            assert_eq!(
                Some(&canon(r)),
                solo[id].get(k),
                "{label}: batch {k} diverged from its solo run"
            );
        }
        assert_eq!(summary.state.as_str(), "done", "{label}: {summary:?}");
        assert!(summary.end.is_some(), "{label}: {summary:?}");
        match policy {
            StopPolicy::RelativeCI { .. } => {
                // The accuracy contract fires strictly before completion.
                assert!(summary.stopped_early(), "{label}: {summary:?}");
                assert!(
                    summary.batches_run < summary.total_batches,
                    "{label} ran {}/{} batches — not strictly early",
                    summary.batches_run,
                    summary.total_batches
                );
            }
            p if *p == StopPolicy::complete() => {
                assert_eq!(summary.batches_run, summary.total_batches, "{label}")
            }
            _ => {}
        }
    }
}

#[test]
fn eight_sessions_on_four_workers_match_their_solo_runs() {
    run_fleet_and_check(4, SESSIONS);
}

#[test]
fn closed_arrival_also_preserves_exactness() {
    run_fleet_and_check(2, 2);
}
