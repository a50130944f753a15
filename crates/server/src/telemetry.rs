//! Fleet telemetry plane: per-session / per-tenant rollups,
//! CI-convergence SLO tracking, and a zero-dependency Prometheus-style
//! text exposition.
//!
//! The scheduler feeds this module from inside its state lock (no second
//! mutex, no new lock order): every delivered batch report merges its
//! [`Metrics`] into the fleet and tenant rollups and appends the batch's
//! relative-CI half-width to the session's bounded trajectory ring; every
//! session end updates the stop-policy burn counters. The durable write
//! counts are the one exception: the [`DurableStore`] keeps them itself,
//! and [`Telemetry::durable`] reads them from it. Because `Metrics`
//! merge is pointwise-additive and commutative, the rollups are
//! independent of worker interleaving — the exposition of a fixed-seed
//! run is byte-identical across repeated runs (canonical mode; wall-clock
//! families are excluded there).
//!
//! The CI trajectory ring also powers the *predicted time-to-target*
//! estimate: the bootstrap half-width of an additive aggregate shrinks as
//! `c/√n` in the number of processed batches (§4.2's CLT scaling), so a
//! single observed `(batch, rel_ci)` point pins `c` and extrapolates how
//! many more batches a `RelativeCI` session needs. ROADMAP item 5's
//! accuracy-as-a-resource scheduler will consume exactly this estimate.

use crate::durable::DurableStore;
use crate::policy::StopPolicy;
use crate::session::SessionEnd;
use iolap_core::Metrics;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::Arc;

/// Bound on each session's CI trajectory ring: enough to see the `c/√n`
/// tail flatten, small enough to never matter for memory accounting.
pub const CI_RING_CAPACITY: usize = 64;

/// Per-session SLO/convergence state tracked by the telemetry plane.
#[derive(Clone, Debug, Default)]
pub struct SessionSlo {
    /// Tenant label from the [`crate::session::SessionSpec`] (`"default"`
    /// when the client sent none).
    pub label: String,
    /// Bounded `(batch index, relative-CI half-width)` trajectory, oldest
    /// first; batches without error estimates are not appended.
    pub ring: VecDeque<(usize, f64)>,
    /// Batches delivered so far.
    pub batches: usize,
    /// Total mini-batches the driver was built with.
    pub total_batches: usize,
    /// `RelativeCI` stop-policy target, when that policy governs.
    pub ci_target: Option<f64>,
    /// `Deadline` stop-policy budget in milliseconds, when that policy
    /// governs.
    pub deadline_ms: Option<u64>,
    /// End label once finished (`completed` / `target_met` / …).
    pub end: Option<&'static str>,
}

impl SessionSlo {
    /// Last observed relative-CI half-width, if any batch carried one.
    pub fn last_rel_ci(&self) -> Option<(usize, f64)> {
        self.ring.back().copied()
    }

    /// Predicted number of *additional* batches needed to reach this
    /// session's `RelativeCI` target (see [`predict_batches_remaining`]).
    /// `None` without a target or an observed trajectory point.
    pub fn predicted_remaining(&self) -> Option<u64> {
        let target = self.ci_target?;
        predict_batches_remaining(&self.ring, target)
    }
}

/// Extrapolate the bootstrap's `c/√n` convergence: the newest ring point
/// `(b, ci)` pins `c = ci·√(b+1)`, the target needs `n ≥ (c/target)²`
/// processed batches, and the prediction is the shortfall from `b+1`.
/// `Some(0)` when the target is already met; `None` when the ring is
/// empty, the target is non-positive, or the half-width is not finite.
pub fn predict_batches_remaining(ring: &VecDeque<(usize, f64)>, target: f64) -> Option<u64> {
    let &(b, ci) = ring.back()?;
    if target.is_nan() || target <= 0.0 || !ci.is_finite() || ci < 0.0 {
        return None;
    }
    if ci <= target {
        return Some(0);
    }
    let c = ci * ((b as f64) + 1.0).sqrt();
    let need = (c / target).powi(2).ceil();
    if !need.is_finite() {
        return None;
    }
    Some((need as u64).saturating_sub(b as u64 + 1))
}

/// Burn-rate counters for the accuracy/latency stop policies: how many
/// sessions ran under each contract, how many met it, and what the early
/// stops saved. All counters are monotonic and saturating.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SloCounters {
    /// Sessions governed by [`StopPolicy::RelativeCI`].
    pub ci_sessions: u64,
    /// `RelativeCI` sessions that stopped early with the target met.
    pub ci_met: u64,
    /// Batches `RelativeCI` sessions actually ran.
    pub ci_batches: u64,
    /// Batches early-stopped `RelativeCI` sessions did *not* run
    /// (total minus delivered — the accuracy contract's compute dividend).
    pub ci_batches_saved: u64,
    /// Sessions governed by [`StopPolicy::Deadline`].
    pub deadline_sessions: u64,
    /// `Deadline` sessions that completed every batch inside the budget.
    pub deadline_met: u64,
    /// `Deadline` sessions cut short by the budget (the policy fired).
    pub deadline_overrun: u64,
}

/// Durability-plane counters: spilled records, streaming appends, and
/// what recovery replayed. All monotonic and saturating, all free of
/// wall-clock content — they render in canonical exposition mode.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DurableCounters {
    /// Records written to the durable store (manifest + session logs).
    pub records: u64,
    /// Durable writes that failed with an I/O error (the session keeps
    /// running; its recoverability degrades).
    pub write_errors: u64,
    /// Streaming append batches applied to a live driver.
    pub appends_applied: u64,
    /// Streaming append batches dropped (parse, schema, or driver
    /// rejection) — the session is never poisoned by a bad append.
    pub appends_rejected: u64,
    /// Sessions rebuilt from the durable log by `Server::recover`.
    pub resumed_sessions: u64,
    /// Mini-batches re-run during recovery replay.
    pub replayed_batches: u64,
    /// Appends re-applied at their logged positions during replay.
    pub reapplied_appends: u64,
    /// Logged checkpoint digests that disagreed with re-derived state.
    pub stale_digests: u64,
}

/// The fleet rollup state. Owned by the scheduler's `State` (updated
/// under the existing lock), cloned out for exposition and wire replies.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    fleet: Metrics,
    tenants: BTreeMap<String, Metrics>,
    sessions: BTreeMap<u64, SessionSlo>,
    slo: SloCounters,
    /// Every durable counter except the write counts, which `store` keeps.
    durable: DurableCounters,
    store: Option<Arc<DurableStore>>,
}

impl Telemetry {
    /// Empty rollups for a server whose durable writes (if any) go to
    /// `store`.
    pub fn with_store(store: Option<Arc<DurableStore>>) -> Telemetry {
        Telemetry {
            store,
            ..Telemetry::default()
        }
    }

    /// Register a session at admission time.
    pub fn observe_submit(
        &mut self,
        id: u64,
        label: &str,
        total_batches: usize,
        policy: &StopPolicy,
    ) {
        let mut slo = SessionSlo {
            label: if label.is_empty() {
                "default".to_string()
            } else {
                label.to_string()
            },
            total_batches,
            ..SessionSlo::default()
        };
        match policy {
            StopPolicy::RelativeCI { target, .. } => {
                slo.ci_target = Some(*target);
                self.slo.ci_sessions = self.slo.ci_sessions.saturating_add(1);
            }
            StopPolicy::Deadline(d) => {
                slo.deadline_ms = Some(u64::try_from(d.as_millis()).unwrap_or(u64::MAX));
                self.slo.deadline_sessions = self.slo.deadline_sessions.saturating_add(1);
            }
            StopPolicy::Batches(_) => {}
        }
        self.sessions.insert(id, slo);
    }

    /// Fold one delivered batch into the rollups: fleet + tenant metrics
    /// merge, CI ring append, batch counters.
    pub fn observe_batch(
        &mut self,
        id: u64,
        batches_run: usize,
        rel_ci: Option<f64>,
        metrics: &Metrics,
    ) {
        let Some(slo) = self.sessions.get_mut(&id) else {
            return;
        };
        slo.batches = batches_run;
        if let Some(ci) = rel_ci {
            if slo.ring.len() >= CI_RING_CAPACITY {
                slo.ring.pop_front();
            }
            slo.ring.push_back((batches_run.saturating_sub(1), ci));
        }
        if slo.ci_target.is_some() {
            self.slo.ci_batches = self.slo.ci_batches.saturating_add(1);
        }
        self.fleet.merge(metrics);
        self.tenants
            .entry(slo.label.clone())
            .or_default()
            .merge(metrics);
    }

    /// Record a session end: burn-counter updates keyed on the governing
    /// policy. A `Deadline` session that ran out of budget ends in
    /// `TargetMet` (the policy fired) and counts as an overrun; one that
    /// finished all its batches first counts as met.
    pub fn observe_finish(&mut self, id: u64, end: &SessionEnd) {
        let Some(slo) = self.sessions.get_mut(&id) else {
            return;
        };
        slo.end = Some(end.label());
        if slo.ci_target.is_some() {
            if let SessionEnd::TargetMet { batches } = end {
                self.slo.ci_met = self.slo.ci_met.saturating_add(1);
                self.slo.ci_batches_saved = self
                    .slo
                    .ci_batches_saved
                    .saturating_add(slo.total_batches.saturating_sub(*batches) as u64);
            }
        }
        if slo.deadline_ms.is_some() {
            match end {
                SessionEnd::Completed => {
                    self.slo.deadline_met = self.slo.deadline_met.saturating_add(1)
                }
                SessionEnd::TargetMet { .. } => {
                    self.slo.deadline_overrun = self.slo.deadline_overrun.saturating_add(1)
                }
                _ => {}
            }
        }
    }

    /// Fleet-wide metric rollup (every delivered batch merged).
    pub fn fleet(&self) -> &Metrics {
        &self.fleet
    }

    /// Per-tenant metric rollups, keyed by session label.
    pub fn tenants(&self) -> &BTreeMap<String, Metrics> {
        &self.tenants
    }

    /// Per-session SLO/convergence state.
    pub fn sessions(&self) -> &BTreeMap<u64, SessionSlo> {
        &self.sessions
    }

    /// Stop-policy burn counters.
    pub fn slo(&self) -> &SloCounters {
        &self.slo
    }

    /// Record streaming-append application outcomes.
    pub fn observe_appends(&mut self, applied: u64, rejected: u64) {
        self.durable.appends_applied = self.durable.appends_applied.saturating_add(applied);
        self.durable.appends_rejected = self.durable.appends_rejected.saturating_add(rejected);
    }

    /// Record one session restored by recovery replay.
    pub fn observe_resume(&mut self, replayed: u64, reapplied: u64, stale: u64) {
        self.durable.resumed_sessions = self.durable.resumed_sessions.saturating_add(1);
        self.durable.replayed_batches = self.durable.replayed_batches.saturating_add(replayed);
        self.durable.reapplied_appends = self.durable.reapplied_appends.saturating_add(reapplied);
        self.durable.stale_digests = self.durable.stale_digests.saturating_add(stale);
    }

    /// Durability-plane counters; the write counts are read from the store
    /// at call time.
    pub fn durable(&self) -> DurableCounters {
        let (records, write_errors) = self.store.as_ref().map_or((0, 0), |s| s.write_counts());
        DurableCounters {
            records,
            write_errors,
            ..self.durable
        }
    }
}

/// Escape a Prometheus label value: backslash, double quote, newline.
fn label_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Whether a metric name survives canonical mode: wall-clock families
/// (`*_ns` / `*.ns` sums and their histograms) and shard-topology
/// counters (`shard.*`) are excluded so the exposition is byte-identical
/// across repeated runs and across shard counts — the metrics analogue of
/// `iolap_core::trace::canonical_events`.
fn canonical_metric(name: &str) -> bool {
    !name.ends_with("_ns") && !name.ends_with(".ns") && !name.starts_with("shard.")
}

fn render_metric_family(
    out: &mut String,
    family: &str,
    label: &str,
    value: &str,
    metrics: &Metrics,
    canonical: bool,
) {
    for (name, v) in metrics.iter() {
        if canonical && !canonical_metric(name) {
            continue;
        }
        let _ = writeln!(
            out,
            "{family}{{{label}=\"{}\",name=\"{}\"}} {v}",
            label_escape(value),
            label_escape(name)
        );
    }
    if !canonical {
        for (name, h) in metrics.histograms() {
            for (q, tag) in [(0.5, "p50"), (0.95, "p95"), (0.99, "p99")] {
                if let Some(ns) = h.quantile(q) {
                    let _ = writeln!(
                        out,
                        "{family}_{tag}_ns{{{label}=\"{}\",name=\"{}\"}} {ns}",
                        label_escape(value),
                        label_escape(name)
                    );
                }
            }
        }
    }
}

/// Render the fleet state as Prometheus-style text exposition (strictly
/// deterministic ordering: fixed section order, `BTreeMap` iteration
/// within). `canonical` drops every wall-clock and shard-topology family
/// so the output byte-compares across repeated fixed-seed runs and across
/// shard counts; the full form adds quantiles and memory for human/scrape
/// consumption.
pub fn render_exposition(
    t: &Telemetry,
    stats: &crate::scheduler::ServerStats,
    canonical: bool,
) -> String {
    let mut out = String::new();
    out.push_str("# iolap fleet telemetry exposition\n");
    out.push_str("# TYPE iolap_sessions_live gauge\n");
    let _ = writeln!(out, "iolap_sessions_live {}", stats.live);
    let _ = writeln!(out, "iolap_sessions_queued {}", stats.queued);
    out.push_str("# TYPE iolap_sessions_admitted_total counter\n");
    let _ = writeln!(out, "iolap_sessions_admitted_total {}", stats.admitted);
    let _ = writeln!(out, "iolap_sessions_rejected_total {}", stats.rejected);
    let _ = writeln!(out, "iolap_sessions_shed_total {}", stats.shed);
    if !canonical {
        let _ = writeln!(out, "iolap_sessions_mem_bytes {}", stats.mem_bytes);
    }

    out.push_str("# TYPE iolap_slo counter\n");
    let s = t.slo();
    let _ = writeln!(out, "iolap_slo_ci_sessions_total {}", s.ci_sessions);
    let _ = writeln!(out, "iolap_slo_ci_met_total {}", s.ci_met);
    let _ = writeln!(out, "iolap_slo_ci_batches_total {}", s.ci_batches);
    let _ = writeln!(
        out,
        "iolap_slo_ci_batches_saved_total {}",
        s.ci_batches_saved
    );
    let _ = writeln!(
        out,
        "iolap_slo_deadline_sessions_total {}",
        s.deadline_sessions
    );
    let _ = writeln!(out, "iolap_slo_deadline_met_total {}", s.deadline_met);
    let _ = writeln!(
        out,
        "iolap_slo_deadline_overrun_total {}",
        s.deadline_overrun
    );

    out.push_str("# TYPE iolap_durable counter\n");
    let d = t.durable();
    let _ = writeln!(out, "iolap_durable_records_total {}", d.records);
    let _ = writeln!(out, "iolap_durable_write_errors_total {}", d.write_errors);
    let _ = writeln!(
        out,
        "iolap_durable_appends_applied_total {}",
        d.appends_applied
    );
    let _ = writeln!(
        out,
        "iolap_durable_appends_rejected_total {}",
        d.appends_rejected
    );
    let _ = writeln!(
        out,
        "iolap_durable_resumed_sessions_total {}",
        d.resumed_sessions
    );
    let _ = writeln!(
        out,
        "iolap_durable_replayed_batches_total {}",
        d.replayed_batches
    );
    let _ = writeln!(
        out,
        "iolap_durable_reapplied_appends_total {}",
        d.reapplied_appends
    );
    let _ = writeln!(out, "iolap_durable_stale_digests_total {}", d.stale_digests);

    out.push_str("# TYPE iolap_session gauge\n");
    for (id, slo) in t.sessions() {
        let tenant = label_escape(&slo.label);
        let _ = writeln!(
            out,
            "iolap_session_batches_total{{session=\"{id}\",tenant=\"{tenant}\"}} {}",
            slo.batches
        );
        if let Some((batch, ci)) = slo.last_rel_ci() {
            let _ = writeln!(
                out,
                "iolap_session_rel_ci{{session=\"{id}\",tenant=\"{tenant}\",batch=\"{batch}\"}} {ci}"
            );
        }
        if let Some(rem) = slo.predicted_remaining() {
            let _ = writeln!(
                out,
                "iolap_session_predicted_remaining{{session=\"{id}\",tenant=\"{tenant}\"}} {rem}"
            );
        }
        if let Some(end) = slo.end {
            let _ = writeln!(
                out,
                "iolap_session_end_info{{session=\"{id}\",tenant=\"{tenant}\",end=\"{end}\"}} 1"
            );
        }
    }

    out.push_str("# TYPE iolap_tenant_metric_total counter\n");
    for (tenant, metrics) in t.tenants() {
        render_metric_family(
            &mut out,
            "iolap_tenant_metric_total",
            "tenant",
            tenant,
            metrics,
            canonical,
        );
    }

    out.push_str("# TYPE iolap_fleet_metric_total counter\n");
    render_metric_family(
        &mut out,
        "iolap_fleet_metric_total",
        "scope",
        "fleet",
        t.fleet(),
        canonical,
    );
    out
}

/// Canonical form of a scheduler trace journal: stable-sort by
/// `(session id, seq)` — every scheduler event carries the session id in
/// `n` — then renumber `seq` contiguously. Grouping by session removes
/// the only nondeterminism in a fixed-seed run (the interleaving of one
/// session's picks with another's submits across threads); each session's
/// own lifecycle order is fixed by the state lock. Export the result with
/// `iolap_core::export_jsonl(&events, true)` for byte comparison.
pub fn canonical_trace(events: &[iolap_core::TraceEvent]) -> Vec<iolap_core::TraceEvent> {
    let mut evs: Vec<iolap_core::TraceEvent> = events.to_vec();
    evs.sort_by_key(|e| (e.n, e.seq));
    for (i, e) in evs.iter_mut().enumerate() {
        e.seq = i as u64;
    }
    evs
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn ring(points: &[(usize, f64)]) -> VecDeque<(usize, f64)> {
        points.iter().copied().collect()
    }

    #[test]
    fn prediction_extrapolates_sqrt_convergence() {
        // ci(b=3) = 0.2 → c = 0.4; target 0.1 needs n ≥ 16 → 12 more.
        assert_eq!(predict_batches_remaining(&ring(&[(3, 0.2)]), 0.1), Some(12));
        // Already met.
        assert_eq!(predict_batches_remaining(&ring(&[(5, 0.05)]), 0.1), Some(0));
        // Degenerate inputs.
        assert_eq!(predict_batches_remaining(&ring(&[]), 0.1), None);
        assert_eq!(
            predict_batches_remaining(&ring(&[(1, f64::NAN)]), 0.1),
            None
        );
        assert_eq!(predict_batches_remaining(&ring(&[(1, 0.2)]), 0.0), None);
    }

    #[test]
    fn ci_ring_is_bounded() {
        let mut t = Telemetry::default();
        t.observe_submit(
            0,
            "u1",
            1000,
            &StopPolicy::RelativeCI {
                target: 0.01,
                confidence: 0.95,
            },
        );
        let m = Metrics::new();
        for b in 0..CI_RING_CAPACITY + 10 {
            t.observe_batch(0, b + 1, Some(1.0 / (b as f64 + 1.0)), &m);
        }
        let slo = &t.sessions()[&0];
        assert_eq!(slo.ring.len(), CI_RING_CAPACITY);
        assert_eq!(slo.batches, CI_RING_CAPACITY + 10);
        assert_eq!(t.slo().ci_batches, (CI_RING_CAPACITY + 10) as u64);
    }

    #[test]
    fn burn_counters_track_policy_outcomes() {
        let mut t = Telemetry::default();
        let ci = StopPolicy::RelativeCI {
            target: 0.05,
            confidence: 0.95,
        };
        t.observe_submit(0, "a", 10, &ci);
        t.observe_finish(0, &SessionEnd::TargetMet { batches: 4 });
        t.observe_submit(1, "a", 10, &ci);
        t.observe_finish(1, &SessionEnd::Completed);
        t.observe_submit(2, "b", 8, &StopPolicy::Deadline(Duration::from_millis(5)));
        t.observe_finish(2, &SessionEnd::TargetMet { batches: 3 });
        t.observe_submit(3, "b", 8, &StopPolicy::Deadline(Duration::from_secs(60)));
        t.observe_finish(3, &SessionEnd::Completed);
        let s = t.slo();
        assert_eq!(s.ci_sessions, 2);
        assert_eq!(s.ci_met, 1);
        assert_eq!(s.ci_batches_saved, 6);
        assert_eq!(s.deadline_sessions, 2);
        assert_eq!(s.deadline_met, 1);
        assert_eq!(s.deadline_overrun, 1);
        assert_eq!(t.sessions()[&0].end, Some("target_met"));
    }

    #[test]
    fn exposition_is_deterministic_and_canonical_strips_clocks() {
        let mut t = Telemetry::default();
        t.observe_submit(0, "he\"said\\", 4, &StopPolicy::complete());
        let mut m = Metrics::new();
        m.add("agg.fold_rows", 100);
        m.record_ns("agg.fold_ns", 12345);
        m.add("shard.partials", 2);
        t.observe_batch(0, 1, Some(0.25), &m);
        let stats = crate::scheduler::ServerStats {
            admitted: 1,
            ..Default::default()
        };
        let canon = render_exposition(&t, &stats, true);
        let full = render_exposition(&t, &stats, false);
        assert_eq!(canon, render_exposition(&t, &stats, true));
        // Canonical drops clocks and shard topology; full keeps them.
        assert!(!canon.contains("_ns"));
        assert!(!canon.contains("shard"));
        assert!(full.contains("agg.fold_ns"));
        assert!(full.contains("shard.partials"));
        // Hostile tenant labels are escaped, never raw.
        assert!(canon.contains("tenant=\"he\\\"said\\\\\""));
        assert!(canon.contains("iolap_session_rel_ci"));
        assert!(canon.contains("agg.fold_rows"));
    }

    #[test]
    fn canonical_trace_groups_by_session() {
        use iolap_core::{EventKind, TraceEvent};
        let ev = |seq, n, name: &'static str| TraceEvent {
            seq,
            ts_ns: seq * 10,
            kind: EventKind::Mark,
            span: iolap_core::SpanId::NONE,
            parent: iolap_core::SpanId::NONE,
            batch: usize::MAX,
            name,
            n,
            detail: String::new(),
        };
        // Two interleavings of the same per-session histories.
        let a = vec![
            ev(0, 0, "sess.submit"),
            ev(1, 1, "sess.submit"),
            ev(2, 0, "sched.pick"),
            ev(3, 1, "sched.pick"),
        ];
        let b = vec![
            ev(0, 0, "sess.submit"),
            ev(1, 0, "sched.pick"),
            ev(2, 1, "sess.submit"),
            ev(3, 1, "sched.pick"),
        ];
        let ca = iolap_core::export_jsonl(&canonical_trace(&a), true);
        let cb = iolap_core::export_jsonl(&canonical_trace(&b), true);
        assert_eq!(ca, cb);
    }
}
