//! Everything generated from `--seed`: the data, the order sessions are
//! submitted in, and the request and append lines clients send. The
//! program sees only these; the same seed gives the same bytes.

use crate::spec::{Scale, Workload, APPEND_ROWS, CI_CONFIDENCE, CI_TARGET};
use crate::stats::mix;
use iolap_core::IolapConfig;
use iolap_engine::FunctionRegistry;
use iolap_relation::{Catalog, PartitionMode, Relation};
use iolap_server::wire::{escape, value_json};
use iolap_workloads::QuerySpec;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A seed that survives a JSON number (53 bits).
pub fn wire_seed(seed: u64, salt: u64) -> u64 {
    mix(seed, salt) >> 11
}

/// The data and functions one set of queries runs against.
pub struct Env {
    /// TPC-H-lite and Conviva tables in one catalog.
    pub catalog: Catalog,
    /// Built-ins plus the Conviva UDFs/UDAF.
    pub registry: FunctionRegistry,
    /// Seconds the catalog took to generate.
    pub gen_s: f64,
}

impl Env {
    /// Generate the tables `scale` asks for from `seed`.
    pub fn generate(scale: &Scale, seed: u64) -> Env {
        let start = std::time::Instant::now();
        let mut catalog = if scale.tpch_sf > 0.0 {
            iolap_workloads::tpch_catalog(scale.tpch_sf, seed)
        } else {
            Catalog::new()
        };
        if scale.conviva_rows > 0 {
            catalog.register(
                "sessions",
                iolap_workloads::conviva_sessions(scale.conviva_rows, seed),
            );
        }
        Env {
            catalog,
            registry: iolap_workloads::conviva_registry(),
            gen_s: start.elapsed().as_secs_f64(),
        }
    }

    /// This catalog with `extra` rows added to `table`: what the batch
    /// oracle must see once appends have landed.
    pub fn with_appended(&self, table: &str, extra: &[Relation]) -> Catalog {
        let mut catalog = self.catalog.clone();
        let base = catalog.get(table).expect("appended table exists");
        let mut rows = base.rows().to_vec();
        for rel in extra {
            rows.extend_from_slice(rel.rows());
        }
        catalog.register(table, Relation::new(base.schema().clone(), rows));
        catalog
    }
}

/// The workload's queries, TPC-H-lite first.
pub fn queries(w: &Workload) -> Vec<QuerySpec> {
    let find = |id: &str| {
        iolap_workloads::tpch_query(id)
            .or_else(|| iolap_workloads::conviva_query(id))
            .unwrap_or_else(|| panic!("unknown query {id}"))
    };
    w.tpch.iter().chain(w.conviva).map(|id| find(id)).collect()
}

/// Driver configuration at `scale`, as the repo's own experiments set it.
pub fn config(scale: &Scale, seed: u64) -> IolapConfig {
    let mut c = IolapConfig::with_batches(scale.batches)
        .trials(scale.trials)
        .seed(seed);
    c.partition_mode = PartitionMode::RowShuffle;
    c
}

/// One kind of served session: a query, run to completion or under a
/// `relative_ci` contract.
#[derive(Clone, Debug)]
pub struct SessionKind {
    /// The query.
    pub spec: QuerySpec,
    /// Whether the session carries the `relative_ci` stop policy.
    pub ci: bool,
}

impl SessionKind {
    /// Sample key of this kind.
    pub fn label(&self) -> String {
        if self.ci {
            format!("{}/ci", self.spec.id)
        } else {
            self.spec.id.to_string()
        }
    }

    /// The `submit` line: the query travels as SQL text, so parse → plan →
    /// rewrite run on the server for every session.
    pub fn submit_line(&self, data: usize, driver_seed: u64, label: &str) -> String {
        let policy = if self.ci {
            format!(
                ",\"policy\":{{\"kind\":\"relative_ci\",\"target\":{CI_TARGET},\"confidence\":{CI_CONFIDENCE}}}"
            )
        } else {
            String::new()
        };
        format!(
            "{{\"op\":\"submit\",\"sql\":\"{}\",\"stream\":\"{}\",\"data\":{data},\"seed\":{driver_seed},\"label\":\"{}\"{policy}}}",
            escape(self.spec.sql),
            self.spec.stream_table,
            escape(label),
        )
    }
}

/// Every query of `w` once to completion and once under `relative_ci`.
pub fn session_kinds(w: &Workload) -> Vec<SessionKind> {
    queries(w)
        .into_iter()
        .flat_map(|spec| {
            [false, true].map(|ci| SessionKind {
                spec: spec.clone(),
                ci,
            })
        })
        .collect()
}

/// Order in which round `round` submits `n` session kinds: a seeded
/// permutation, so every round carries the same mix in a different order.
pub fn round_order(seed: u64, round: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut StdRng::seed_from_u64(mix(seed, 0xA11C_E000 + round)));
    order
}

/// Rows a client appends to `table`, generated from `seed`.
pub fn append_rows(table: &str, seed: u64) -> Relation {
    let rel = match table {
        "sessions" => iolap_workloads::conviva_sessions(APPEND_ROWS, seed),
        "lineorder" => {
            // A catalog just large enough to hold APPEND_ROWS lineorder
            // rows; its keys fall inside every larger catalog's ranges.
            let sf = APPEND_ROWS as f64 / 6000.0;
            let small = iolap_workloads::tpch_catalog(sf, seed);
            (*small.get("lineorder").expect("lineorder generated")).clone()
        }
        other => panic!("no append generator for table {other}"),
    };
    assert_eq!(rel.len(), APPEND_ROWS);
    rel
}

/// The `append` line carrying `rows` for `table`.
pub fn append_line(table: &str, rows: &Relation) -> String {
    let mut out = format!("{{\"op\":\"append\",\"table\":\"{table}\",\"rows\":[");
    for (i, row) in rows.rows().iter().enumerate() {
        out.push_str(if i > 0 { ",[" } else { "[" });
        for (j, v) in row.values.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&value_json(v));
        }
        out.push(']');
    }
    out.push_str("]}");
    out
}
