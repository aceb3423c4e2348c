//! Simulation configuration.

use crate::faults::FaultPlan;
use crate::subsys::FsKind;

/// Parameters of one simulator run.
///
/// Everything is deterministic given a configuration: the same `seed`
/// reproduces the identical trace, mirroring how the paper re-runs the same
/// benchmark image under Bochs.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed for all randomized decisions (workload op mix, irq timing,
    /// fault-injection draws).
    pub seed: u64,
    /// Probability that a timer hardirq fires at an instrumentation point
    /// (per memory access). The handler runs in hardirq context with its
    /// own lock state.
    pub irq_rate: f64,
    /// Probability that a softirq (writeback flush) runs after a hardirq.
    pub softirq_rate: f64,
    /// Fault-injection plan; empty by default (clean run).
    pub fault_plan: FaultPlan,
    /// Number of simulated worker tasks the scheduler rotates between.
    pub tasks: usize,
    /// Shard index when this run is one slice of a sharded workload (see
    /// [`crate::parallel`]). `None` (the default) is an unsharded run and
    /// keeps the historical task names and address base; `Some(j)` suffixes
    /// task names with `.s{j}` and offsets the heap base so shard traces
    /// occupy disjoint address ranges and can be concatenated.
    pub shard: Option<u64>,
    /// Filesystems to mount at boot. `None` (the default) mounts all of
    /// [`FsKind::all`], reproducing the historical full boot. `Some(set)`
    /// boots a minimal machine that mounts only the listed filesystems —
    /// the way the paper's benchmark images are configured per-experiment —
    /// so the trace only observes the types those mounts touch. The caller
    /// must list every filesystem its workload mix uses. Mount order is
    /// always the canonical [`FsKind::all`] order, not the list order, so
    /// the set (not its ordering) determines the trace.
    pub mounts: Option<Vec<FsKind>>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 0x10cc_d0c5,
            irq_rate: 0.002,
            softirq_rate: 0.25,
            fault_plan: FaultPlan::default(),
            tasks: 4,
            shard: None,
            mounts: None,
        }
    }
}

impl SimConfig {
    /// A configuration with a specific seed and defaults otherwise.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Disables interrupt simulation (useful for focused unit tests).
    pub fn without_irqs(mut self) -> Self {
        self.irq_rate = 0.0;
        self.softirq_rate = 0.0;
        self
    }

    /// Attaches a fault plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Restricts boot to the given filesystem set (see [`Self::mounts`]).
    pub fn with_mounts(mut self, fss: Vec<FsKind>) -> Self {
        self.mounts = Some(fss);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_methods_compose() {
        let cfg = SimConfig::with_seed(7).without_irqs();
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.irq_rate, 0.0);
        assert_eq!(cfg.softirq_rate, 0.0);
        assert_eq!(cfg.tasks, 4);
    }
}
