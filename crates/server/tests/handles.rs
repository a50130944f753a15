//! Client handles under contention: every report a session delivers
//! reaches exactly one receive call, however the client polls and however
//! many clones of the handle poll at once.

use iolap_core::{IolapConfig, IolapDriver};
use iolap_engine::plan_sql;
use iolap_server::{Server, ServerConfig, SessionSpec};
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(30);
const BATCHES: usize = 40;

/// A fast many-batch Conviva session: reports arrive while the client is
/// between calls.
fn driver() -> IolapDriver {
    let catalog = iolap_workloads::conviva_catalog(800, 17);
    let registry = iolap_workloads::conviva_registry();
    let q = iolap_workloads::conviva_queries()
        .into_iter()
        .find(|q| q.id == "C3")
        .unwrap();
    let pq = plan_sql(q.sql, &catalog, &registry).unwrap();
    let cfg = IolapConfig::with_batches(BATCHES).trials(4).seed(17);
    IolapDriver::from_plan(&pq, &catalog, q.stream_table, cfg).unwrap()
}

#[test]
fn zero_timeout_drains_lose_no_report() {
    for _ in 0..3 {
        let server = Server::new(ServerConfig::with_workers(1));
        let h = server.submit(driver(), SessionSpec::named("spin")).unwrap();
        let mut got = Vec::new();
        // A zero-timeout drain gives up at once while the session runs;
        // a report landing between its wait and its exit must still be
        // returned, not popped and dropped.
        while !h.state().is_terminal() {
            got.extend(h.drain(Duration::ZERO).iter().map(|r| r.batch));
        }
        assert_eq!(got, (0..BATCHES).collect::<Vec<_>>());
    }
}

#[test]
fn cloned_handles_receive_each_report_exactly_once() {
    for _ in 0..3 {
        let server = Server::new(ServerConfig::with_workers(1));
        let h = server
            .submit(driver(), SessionSpec::named("shared"))
            .unwrap();
        let takers: Vec<_> = (0..2)
            .map(|_| {
                let h = h.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(r) = h.recv_timeout(WAIT) {
                        got.push(r.batch);
                    }
                    // `None` before the timeout means the session ended:
                    // the peer clone must not have taken a report this
                    // call had already seen.
                    assert!(h.state().is_terminal(), "None while {}", h.state());
                    got
                })
            })
            .collect();
        let mut all: Vec<usize> = takers.into_iter().flat_map(|t| t.join().unwrap()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..BATCHES).collect::<Vec<_>>());
    }
}
