//! iOLAP engine configuration.

use crate::faults::FaultPlan;
use crate::trace::TraceMode;
use iolap_relation::PartitionMode;

/// Tunable knobs of the iOLAP engine (paper §7, §8.4).
#[derive(Clone, Debug)]
pub struct IolapConfig {
    /// Number of bootstrap trials (the paper uses 100 throughout §8).
    pub trials: usize,
    /// Slack `ε` on variation ranges (§5.1; default 2.0 per §8.4: "slack =
    /// 2.0 leads to a good trade-off in practice").
    pub slack: f64,
    /// RNG seed for partitioning and bootstrap draws.
    pub seed: u64,
    /// Number of mini-batches the streamed relation is split into.
    pub num_batches: usize,
    /// How rows are randomized before batching.
    pub partition_mode: PartitionMode,
    /// Confidence level of reported intervals.
    pub confidence: f64,
    /// OPT1: tuple-uncertainty partitioning via variation ranges (§5).
    /// Disabling it keeps every tuple under an uncertain predicate in the
    /// non-deterministic set — the middle bar of Figure 9(a).
    pub opt_tuple_partition: bool,
    /// OPT2: lineage propagation + lazy evaluation (§6). Disabling it
    /// materializes uncertain attributes (stale values are refreshed by
    /// recomputing saved tuples from their source rows).
    pub opt_lazy_lineage: bool,
    /// Checkpoint operator state every `n` batches for failure recovery
    /// (§5.1). `1` = every batch. How many checkpoints are retained and
    /// how many rollbacks one batch may take are fixed by the recovery
    /// policy (four each), not configured.
    pub checkpoint_interval: usize,
    /// Deterministic fault-injection schedule (§5.1 hardening harness).
    /// `None` — the production default — compiles every injection hook down
    /// to a skipped pointer check.
    pub fault_plan: Option<FaultPlan>,
    /// Causal trace journal: `Off` (default; all hooks are `None` and the
    /// hot paths pay one pointer check per operator call), `Journal`
    /// (unbounded, for exports/experiments), or `Flight` (bounded ring
    /// that survives panics and is dumped on hard engine errors).
    pub trace_mode: TraceMode,
}

impl Default for IolapConfig {
    fn default() -> Self {
        IolapConfig {
            trials: 100,
            slack: 2.0,
            seed: 0xD1CE,
            num_batches: 10,
            partition_mode: PartitionMode::RowShuffle,
            confidence: 0.95,
            opt_tuple_partition: true,
            opt_lazy_lineage: true,
            checkpoint_interval: 1,
            fault_plan: None,
            trace_mode: TraceMode::Off,
        }
    }
}

impl IolapConfig {
    /// Config with a given batch count and defaults elsewhere.
    pub fn with_batches(num_batches: usize) -> Self {
        IolapConfig {
            num_batches,
            ..Default::default()
        }
    }

    /// Builder-style setter for the slack parameter.
    pub fn slack(mut self, slack: f64) -> Self {
        self.slack = slack;
        self
    }

    /// Builder-style setter for the trial count.
    pub fn trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Builder-style setter for the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style toggle for both §5/§6 optimizations (Fig 9(a)
    /// ablation).
    pub fn optimizations(mut self, opt1: bool, opt2: bool) -> Self {
        self.opt_tuple_partition = opt1;
        self.opt_lazy_lineage = opt2;
        self
    }

    /// Builder-style setter arming a fault-injection schedule.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Builder-style setter for the trace journal mode.
    pub fn trace_mode(mut self, mode: TraceMode) -> Self {
        self.trace_mode = mode;
        self
    }

    /// Builder-style shorthand arming the flight recorder at its default
    /// ring capacity.
    pub fn flight_recorder(mut self) -> Self {
        self.trace_mode = TraceMode::Flight {
            capacity: TraceMode::DEFAULT_FLIGHT_CAPACITY,
        };
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = IolapConfig::default();
        assert_eq!(c.trials, 100);
        assert_eq!(c.slack, 2.0);
        assert!(c.opt_tuple_partition && c.opt_lazy_lineage);
        assert!(c.fault_plan.is_none(), "faults must be off by default");
        assert_eq!(c.trace_mode, TraceMode::Off, "tracing off by default");
    }

    #[test]
    fn fault_plan_builder_arms_injection() {
        use crate::faults::{FaultKind, FaultPlan};
        let c = IolapConfig::with_batches(4)
            .fault_plan(FaultPlan::new(7).with(1, FaultKind::DropCheckpoint));
        assert_eq!(c.fault_plan.as_ref().unwrap().faults.len(), 1);
    }

    #[test]
    fn trace_mode_builders() {
        let c = IolapConfig::with_batches(3).trace_mode(TraceMode::Journal);
        assert_eq!(c.trace_mode, TraceMode::Journal);
        let c = IolapConfig::with_batches(3).flight_recorder();
        assert!(matches!(c.trace_mode, TraceMode::Flight { capacity } if capacity > 0));
    }

    #[test]
    fn builders_compose() {
        let c = IolapConfig::with_batches(5).slack(1.0).trials(40).seed(7);
        assert_eq!(c.num_batches, 5);
        assert_eq!(c.slack, 1.0);
        assert_eq!(c.trials, 40);
        assert_eq!(c.seed, 7);
    }
}
