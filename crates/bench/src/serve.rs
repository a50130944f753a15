//! The TCP front-end runner behind `experiments serve --listen`: the
//! Conviva workload served over the newline-delimited JSON protocol.

use crate::{conviva_workload, ExpScale, Workload};
use iolap_core::IolapDriver;
use iolap_server::{tcp::SubmitFactory, wire::JVal, Server, ServerConfig};
use std::sync::Arc;

/// Run the TCP front-end until the process is killed: builds the Conviva
/// workload at `scale`, binds `addr`, and serves the newline-delimited
/// JSON protocol. Submit requests name a built-in query:
/// `{"op":"submit","query":"C2","label":"u1","policy":{"kind":"relative_ci","target":0.1}}`.
pub fn serve_listen(addr: &str, scale: &ExpScale) -> std::io::Result<()> {
    let listener = std::net::TcpListener::bind(addr)?;
    println!(
        "iolap-server listening on {} (conviva at {} rows × {} batches; \
         ops: submit/poll/summary/cancel/stats)",
        listener.local_addr()?,
        scale.conviva_rows,
        scale.batches
    );
    let server = Arc::new(Server::new(ServerConfig::with_workers(4)));
    let factory = workload_factory(conviva_workload(scale), *scale);
    iolap_server::tcp::serve(listener, server, factory);
    Ok(())
}

/// A [`SubmitFactory`] serving a prepared workload's queries by id, with
/// optional per-request `batches`/`trials`/`seed` overrides.
pub fn workload_factory(w: Workload, scale: ExpScale) -> SubmitFactory {
    Arc::new(move |req: &JVal| {
        let query = req
            .get("query")
            .and_then(JVal::as_str)
            .ok_or_else(|| "missing \"query\"".to_string())?;
        let q = w
            .queries
            .iter()
            .find(|q| q.id == query)
            .ok_or_else(|| format!("unknown query {query:?}"))?
            .clone();
        let mut scale = scale;
        if let Some(b) = req.get("batches").and_then(JVal::as_u64) {
            scale.batches = (b as usize).clamp(1, 1_000);
        }
        if let Some(t) = req.get("trials").and_then(JVal::as_u64) {
            scale.trials = (t as usize).clamp(1, 10_000);
        }
        if let Some(s) = req.get("seed").and_then(JVal::as_u64) {
            scale.seed = s;
        }
        let pq = w.plan(&q);
        let driver = IolapDriver::from_plan(&pq, &w.catalog, q.stream_table, scale.config())
            .map_err(|e| e.to_string())?;
        let spec = iolap_server::tcp::spec_from_request(req);
        Ok((driver, spec))
    })
}
