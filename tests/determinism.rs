//! Determinism regression: two identical runs of the same query must
//! produce byte-identical batch reports (modulo wall-clock). Guards the
//! bug class the source lint L002 polices statically — `HashMap` iteration
//! order leaking into a `Sink` or `BatchReport` (each `HashMap` instance
//! gets its own random hash keys, so any leaked order differs even between
//! two runs in the same process).

use iolap_baselines::HdaDriver;
use iolap_core::{BatchReport, IolapConfig, IolapDriver};
use iolap_engine::plan_sql;
use iolap_relation::PartitionMode;
use iolap_workloads::{
    conviva_catalog, conviva_queries, conviva_query, conviva_registry, tpch_catalog, tpch_queries,
    tpch_query,
};
use std::fmt::Write as _;

fn config(batches: usize) -> IolapConfig {
    let mut c = IolapConfig::with_batches(batches).trials(25).seed(17);
    c.partition_mode = PartitionMode::RowShuffle;
    c
}

/// Canonical report serialization: everything except wall-clock (`elapsed`
/// and the `*_ns` metric spans, which legitimately differ between runs).
fn canon(reports: &[BatchReport]) -> String {
    let mut s = String::new();
    for r in reports {
        let _ = writeln!(
            s,
            "batch={} fraction={} recovered={} join_bytes={} other_bytes={}",
            r.batch, r.fraction, r.recovered, r.state_bytes_join, r.state_bytes_other
        );
        let _ = writeln!(
            s,
            "stats recomputed={} shipped={} failures={}",
            r.stats.recomputed_tuples, r.stats.shipped_bytes, r.stats.failures
        );
        let _ = writeln!(s, "names={:?}", r.result.names);
        let _ = write!(s, "{}", r.result.relation);
        let _ = writeln!(s, "estimates={:?}", r.result.estimates);
        for (name, v) in r.metrics.iter() {
            if !name.ends_with("_ns") && !name.ends_with(".ns") {
                let _ = writeln!(s, "metric {name}={v}");
            }
        }
    }
    s
}

fn assert_deterministic_iolap(sql: &str, stream: &str, cat: &iolap_relation::Catalog, id: &str) {
    let registry = conviva_registry();
    let pq = plan_sql(sql, cat, &registry).unwrap();
    let run = || {
        let mut d = IolapDriver::from_plan(&pq, cat, stream, config(5)).unwrap();
        canon(&d.run_to_completion().unwrap())
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "{id}: two identical iOLAP runs diverged");
}

#[test]
fn iolap_reports_are_bytewise_deterministic() {
    let cat = conviva_catalog(120, 11);
    for id in ["SBI", "C2", "C3"] {
        let q = conviva_query(id).unwrap();
        assert_deterministic_iolap(q.sql, q.stream_table, &cat, id);
    }
}

#[test]
fn iolap_tpch_reports_are_bytewise_deterministic() {
    let cat = tpch_catalog(0.02, 23);
    let q = tpch_query("Q18").unwrap();
    let registry = iolap_engine::FunctionRegistry::with_builtins();
    let pq = plan_sql(q.sql, &cat, &registry).unwrap();
    let run = || {
        let mut d = IolapDriver::from_plan(&pq, &cat, q.stream_table, config(5)).unwrap();
        canon(&d.run_to_completion().unwrap())
    };
    assert_eq!(run(), run(), "Q18: two identical iOLAP runs diverged");
}

/// Trace determinism: with timestamps normalized away (replaced by the
/// sequence counter, which *is* the causal order — all emissions happen on
/// the driver thread), two identical traced runs must export byte-identical
/// journals in both the JSONL and Chrome `trace_event` formats. This is
/// what lets `scripts/trace-schema.golden` be a plain golden file.
#[test]
fn trace_exports_are_bytewise_deterministic() {
    use iolap_core::{export_chrome, export_jsonl, TraceMode};
    let cat = conviva_catalog(120, 11);
    let registry = conviva_registry();
    let q = conviva_query("C2").unwrap();
    let pq = plan_sql(q.sql, &cat, &registry).unwrap();
    let run = || {
        let cfg = config(5).trace_mode(TraceMode::Journal);
        let mut d = IolapDriver::from_plan(&pq, &cat, q.stream_table, cfg).unwrap();
        d.run_to_completion().unwrap();
        let events = d.trace_events();
        assert!(!events.is_empty(), "journal mode produced no events");
        (export_jsonl(&events, true), export_chrome(&events, true))
    };
    let ((jl_a, ch_a), (jl_b, ch_b)) = (run(), run());
    assert_eq!(
        jl_a, jl_b,
        "C2: normalized JSONL trace diverged across runs"
    );
    assert_eq!(
        ch_a, ch_b,
        "C2: normalized Chrome trace diverged across runs"
    );
}

/// Multi-tenant determinism: two fixed-seed runs of the *same* concurrent
/// session mix through the serving layer must deliver byte-identical
/// per-session report streams. Sessions share nothing (each driver owns
/// its data and RNG), so per-session results are schedule-independent even
/// though the interleaving across sessions varies with worker timing.
#[test]
fn multi_tenant_session_reports_are_bytewise_deterministic() {
    use iolap_server::{Server, ServerConfig, SessionSpec};
    use std::time::Duration;

    let cat = conviva_catalog(120, 11);
    let registry = conviva_registry();
    let run = || {
        let server = Server::new(ServerConfig::with_workers(4));
        let handles: Vec<_> = ["SBI", "C2", "C3", "SBI", "C2", "C3"]
            .iter()
            .enumerate()
            .map(|(i, id)| {
                let q = conviva_query(id).unwrap();
                let pq = plan_sql(q.sql, &cat, &registry).unwrap();
                let d = IolapDriver::from_plan(&pq, &cat, q.stream_table, config(5)).unwrap();
                (
                    format!("s{i}:{id}"),
                    server
                        .submit(d, SessionSpec::named(format!("s{i}:{id}")))
                        .unwrap(),
                )
            })
            .collect();
        handles
            .into_iter()
            .map(|(label, h)| {
                let reports = h.drain(Duration::from_secs(30));
                assert_eq!(reports.len(), 5, "{label} did not complete");
                format!("{label}\n{}", canon(&reports))
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        run(),
        run(),
        "two fixed-seed multi-tenant runs diverged per-session"
    );
}

/// A pool of `shards` connections to one loopback `serve_shard` worker.
fn loopback_pool(shards: usize) -> std::sync::Arc<iolap_server::shard::TcpShardPool> {
    use iolap_server::shard::{serve_shard, TcpShardPool};
    let listener =
        std::net::TcpListener::bind("127.0.0.1:0").expect("bind a loopback shard worker");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || serve_shard(listener));
    std::sync::Arc::new(TcpShardPool::connect(&vec![addr; shards]).unwrap())
}

/// Scale-out determinism (§8): attaching a shard pool of any size must
/// not move a single byte of the published reports. The merge tree is
/// pinned to the partition grid, so N=1/2/4 runs are identical to each
/// other *and* — once the shard-only bookkeeping metrics are set aside —
/// to the single-process run. The one metric set aside between shard
/// counts is `shard.bytes_shipped`: it measures the response frames, and
/// every block's frame carries its own envelope.
#[test]
fn shard_count_never_changes_published_reports() {
    // ~1400 rows per batch: two grid partitions, so multi-shard pools
    // genuinely split the work.
    let cat = conviva_catalog(4200, 11);
    let registry = conviva_registry();
    let strip = |s: &str, prefix: &str| {
        s.lines()
            .filter(|l| !l.starts_with(prefix))
            .collect::<Vec<_>>()
            .join("\n")
    };
    for id in ["SBI", "C2", "C3"] {
        let q = conviva_query(id).unwrap();
        let pq = plan_sql(q.sql, &cat, &registry).unwrap();
        let run = |shards: usize| {
            let mut d = IolapDriver::from_plan(&pq, &cat, q.stream_table, config(3)).unwrap();
            if shards > 0 {
                d.set_shard_exec(loopback_pool(shards));
            }
            canon(&d.run_to_completion().unwrap())
        };
        let solo = run(0);
        let one_shard = run(1);
        assert_eq!(
            strip(&one_shard, "metric shard."),
            strip(&solo, "metric shard."),
            "{id}: sharded run diverged from single-process run"
        );
        for shards in [2usize, 4] {
            assert_eq!(
                strip(&run(shards), "metric shard.bytes_shipped"),
                strip(&one_shard, "metric shard.bytes_shipped"),
                "{id}: shard count {shards} changed the published reports"
            );
        }
    }
}

/// Cross-shard trace identity: the canonical trace export — `shard.*`
/// frames filtered, sequence renumbered — must be byte-identical no
/// matter how many shards the driver dispatches folds to. Shard topology
/// may add its own frames but must never move an application span.
#[test]
fn canonical_trace_exports_are_byte_identical_across_shard_counts() {
    use iolap_core::{canonical_events, export_jsonl, TraceMode};

    let cat = conviva_catalog(4200, 11);
    let registry = conviva_registry();
    let q = conviva_query("C2").unwrap();
    let pq = plan_sql(q.sql, &cat, &registry).unwrap();
    let run = |shards: usize| {
        let cfg = config(3).trace_mode(TraceMode::Journal);
        let mut d = IolapDriver::from_plan(&pq, &cat, q.stream_table, cfg).unwrap();
        if shards > 0 {
            d.set_shard_exec(loopback_pool(shards));
        }
        d.run_to_completion().unwrap();
        let events = d.trace_events();
        if shards > 1 {
            assert!(
                events.iter().any(|e| e.name.starts_with("shard.")),
                "multi-shard run recorded no shard frames"
            );
        }
        export_jsonl(&canonical_events(&events), true)
    };
    let baseline = run(0);
    assert!(!baseline.is_empty());
    for shards in [1usize, 2, 4] {
        assert_eq!(
            run(shards),
            baseline,
            "shard count {shards} changed the canonical trace export"
        );
    }
}

/// Telemetry determinism across multi-tenant interleavings: two
/// fixed-seed runs of the same session mix — racing on two workers — must
/// render byte-identical canonical expositions and canonical scheduler
/// traces. Metric rollups are commutative merges and the canonical trace
/// groups events by session, so worker timing must not show.
#[test]
fn multi_tenant_canonical_telemetry_is_bytewise_deterministic() {
    use iolap_core::{export_jsonl, TraceMode};
    use iolap_server::{canonical_trace, Server, ServerConfig, SessionSpec};
    use std::time::Duration;

    let cat = conviva_catalog(120, 11);
    let registry = conviva_registry();
    let run = || {
        let server = Server::new(
            ServerConfig::with_workers(2)
                .max_live(8)
                .trace(TraceMode::Journal),
        );
        let handles: Vec<_> = ["SBI", "C2", "C3", "C2"]
            .iter()
            .enumerate()
            .map(|(i, id)| {
                let q = conviva_query(id).unwrap();
                let pq = plan_sql(q.sql, &cat, &registry).unwrap();
                let d = IolapDriver::from_plan(&pq, &cat, q.stream_table, config(5)).unwrap();
                let tenant = if i % 2 == 0 { "acme" } else { "bob\"s" };
                server.submit(d, SessionSpec::named(tenant)).unwrap()
            })
            .collect();
        // Join before draining so the `sess.finish` mark's buffer-state
        // detail cannot race a concurrent client.
        for h in &handles {
            assert!(h.join(Duration::from_secs(30)), "session did not finish");
        }
        for h in &handles {
            h.drain(Duration::from_secs(30));
        }
        let exposition = server.exposition(true);
        let trace = export_jsonl(&canonical_trace(&server.trace_events()), true);
        server.shutdown();
        (exposition, trace)
    };
    let ((exp_a, tr_a), (exp_b, tr_b)) = (run(), run());
    assert!(exp_a.contains("tenant=\"bob\\\"s\""), "label not escaped");
    assert_eq!(exp_a, exp_b, "canonical expositions diverged across runs");
    assert_eq!(
        tr_a, tr_b,
        "canonical scheduler traces diverged across runs"
    );
}

/// The pinned configuration both golden files were recorded at.
fn golden_config(batches: usize, trials: usize) -> IolapConfig {
    let mut c = IolapConfig::with_batches(batches).trials(trials).seed(2016);
    c.partition_mode = PartitionMode::RowShuffle;
    c
}

/// Byte-compare `got` against the checked-in `scripts/<name>`, reporting
/// the first differing line. `IOLAP_UPDATE_GOLDEN=1` rewrites the file
/// instead, after an audited change.
fn check_golden(name: &str, got: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scripts")
        .join(name);
    if std::env::var("IOLAP_UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_default();
    if want != got {
        // Past the shorter file's end when one is a prefix of the other.
        let i = want
            .lines()
            .zip(got.lines())
            .position(|(w, g)| w != g)
            .unwrap_or_else(|| want.lines().count().min(got.lines().count()));
        panic!(
            "output drifted from scripts/{name} at line {}\n  want: {}\n  got:  {}\n\
             if the change is intentional, regenerate with IOLAP_UPDATE_GOLDEN=1",
            i + 1,
            want.lines().nth(i).unwrap_or(""),
            got.lines().nth(i).unwrap_or("")
        );
    }
}

/// Plan-shape golden: every TPC-H and Conviva workload query (SBI
/// included), planned from SQL. Each entry holds the query id, the output
/// names, the root schema's types and `plan.explain()`, so a planner change
/// that moves any operator, key or expression is a reviewed change. Plans
/// depend only on schemas, so tiny catalogs suffice.
#[test]
fn plans_match_the_shape_golden() {
    let tpch = tpch_catalog(0.01, 1);
    let conviva = conviva_catalog(10, 1);
    let tpch_registry = iolap_engine::FunctionRegistry::with_builtins();
    let conviva_registry = conviva_registry();
    let queries = tpch_queries()
        .into_iter()
        .map(|q| (q, &tpch, &tpch_registry))
        .chain(
            conviva_queries()
                .into_iter()
                .map(|q| (q, &conviva, &conviva_registry)),
        );
    let mut out = String::new();
    for (q, cat, registry) in queries {
        let pq = plan_sql(q.sql, cat, registry).unwrap();
        let types: Vec<_> = pq
            .plan
            .schema()
            .fields()
            .iter()
            .map(|f| f.data_type)
            .collect();
        writeln!(out, "== {}", q.id).unwrap();
        writeln!(out, "names: {:?}", pq.output_names).unwrap();
        writeln!(out, "types: {types:?}").unwrap();
        out.push_str(&pq.plan.explain());
    }
    check_golden("plan-shapes.golden", &out);
}

/// Trace schema golden: C2 on a pinned 300-row Conviva catalog with the
/// journal armed. The normalized Chrome export must equal
/// `scripts/trace-schema.golden`, so any drift in the event schema or in
/// seeded determinism is a reviewed change.
#[test]
fn trace_export_matches_the_schema_golden() {
    use iolap_core::{export_chrome, TraceMode};
    let cat = conviva_catalog(300, 2016);
    let q = conviva_query("C2").unwrap();
    let pq = plan_sql(q.sql, &cat, &conviva_registry()).unwrap();
    let cfg = golden_config(3, 10).trace_mode(TraceMode::Journal);
    let mut d = IolapDriver::from_plan(&pq, &cat, q.stream_table, cfg).unwrap();
    d.run_to_completion().unwrap();
    check_golden(
        "trace-schema.golden",
        &export_chrome(&d.trace_events(), true),
    );
}

/// Exposition golden: a pinned four-session fleet — two tenants, a
/// hostile label that must survive Prometheus escaping, and one session
/// per stop-policy family — on two workers. The canonical exposition
/// must equal `scripts/observe-exposition.golden`.
/// Sessions are joined before any client drains, so the `sess.finish`
/// mark cannot race a client. The deadline is generous so the session
/// always completes inside it.
#[test]
fn fleet_exposition_matches_the_golden() {
    use iolap_core::TraceMode;
    use iolap_server::{Server, ServerConfig, SessionSpec, StopPolicy};
    use std::time::Duration;

    let cat = conviva_catalog(600, 2016);
    let registry = conviva_registry();
    let ci = StopPolicy::RelativeCI {
        target: 0.5,
        confidence: 0.95,
    };
    let fleet = [
        ("C2", StopPolicy::complete(), "acme"),
        ("C2", ci, "acme"),
        ("C3", StopPolicy::Batches(3), "bob\"s \\shop"),
        ("SBI", StopPolicy::Deadline(Duration::from_secs(60)), ""),
    ];
    let server = Server::new(
        ServerConfig::with_workers(2)
            .max_live(8)
            .trace(TraceMode::Journal),
    );
    let handles: Vec<_> = fleet
        .into_iter()
        .map(|(id, policy, tenant)| {
            let q = conviva_query(id).unwrap();
            let pq = plan_sql(q.sql, &cat, &registry).unwrap();
            let d =
                IolapDriver::from_plan(&pq, &cat, q.stream_table, golden_config(6, 16)).unwrap();
            server
                .submit(d, SessionSpec::named(tenant).policy(policy))
                .unwrap()
        })
        .collect();
    for h in &handles {
        assert!(h.join(Duration::from_secs(30)), "session did not finish");
    }
    for h in &handles {
        h.drain(Duration::from_secs(30));
    }
    let exposition = server.exposition(true);
    server.shutdown();
    check_golden("observe-exposition.golden", &exposition);
}

#[test]
fn hda_reports_are_bytewise_deterministic() {
    // C2's correlated subquery gives HDA's inner view many group entries —
    // the exact surface where unordered materialization used to leak.
    let cat = conviva_catalog(120, 11);
    let registry = conviva_registry();
    for id in ["SBI", "C2"] {
        let q = conviva_query(id).unwrap();
        let pq = plan_sql(q.sql, &cat, &registry).unwrap();
        let run = || {
            let mut d = HdaDriver::from_plan(&pq, &cat, q.stream_table, config(5)).unwrap();
            canon(&d.run_to_completion().unwrap())
        };
        assert_eq!(run(), run(), "{id}: two identical HDA runs diverged");
    }
}
