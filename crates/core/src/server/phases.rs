//! Per-phase timing of server-side query processing.
//!
//! The paper breaks a query's server-side latency into five phases
//! (Figure 5 / Algorithm 1 steps ➋–➏, plotted in Figure 10 and summarised
//! in Table 1): DPF evaluation, CPU→DPU copy of the function shares, the
//! `dpXOR` kernel, the DPU→CPU copy of subresults, and host-side
//! aggregation. Both server backends fill the same structure (the CPU
//! backend simply leaves the PIM-only phases at zero), so the harness can
//! print the two breakdowns side by side.

/// Time spent in one phase.
///
/// `wall_seconds` is what this process actually measured;
/// `simulated_seconds` is the cost model's estimate of the same work on the
/// paper's UPMEM hardware (present only for phases that ran on the
/// simulated PIM).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseTime {
    /// Measured wall-clock seconds.
    pub wall_seconds: f64,
    /// Modelled seconds on the paper's hardware, if the phase ran on the
    /// simulated PIM.
    pub simulated_seconds: Option<f64>,
}

impl PhaseTime {
    /// A phase that did not run.
    #[must_use]
    pub fn zero() -> Self {
        PhaseTime::default()
    }

    /// A host-side phase: only measured wall time.
    #[must_use]
    pub fn host(wall_seconds: f64) -> Self {
        PhaseTime {
            wall_seconds,
            simulated_seconds: None,
        }
    }

    /// A PIM-side phase: measured wall time plus modelled hardware time.
    #[must_use]
    pub fn pim(wall_seconds: f64, simulated_seconds: f64) -> Self {
        PhaseTime {
            wall_seconds,
            simulated_seconds: Some(simulated_seconds),
        }
    }

    /// The "hybrid" time: modelled hardware time when available, measured
    /// wall time otherwise.
    #[must_use]
    pub fn hybrid_seconds(&self) -> f64 {
        self.simulated_seconds.unwrap_or(self.wall_seconds)
    }

    /// Adds another phase time into this one.
    pub fn merge(&mut self, other: &PhaseTime) {
        self.wall_seconds += other.wall_seconds;
        self.simulated_seconds = match (self.simulated_seconds, other.simulated_seconds) {
            (None, None) => None,
            (a, b) => Some(a.unwrap_or(0.0) + b.unwrap_or(0.0)),
        };
    }

    /// Combines a phase time that ran **concurrently** with this one (on
    /// disjoint hardware): the merged time is the critical path, i.e. the
    /// maximum of both components.
    pub fn merge_parallel(&mut self, other: &PhaseTime) {
        self.wall_seconds = self.wall_seconds.max(other.wall_seconds);
        self.simulated_seconds = match (self.simulated_seconds, other.simulated_seconds) {
            (None, None) => None,
            (a, b) => Some(a.unwrap_or(0.0).max(b.unwrap_or(0.0))),
        };
    }

    /// Both components scaled by `factor` — used to attribute a shared
    /// batch's cost proportionally to the requests that made it up (e.g.
    /// one session's slice of a coalesced server wave).
    #[must_use]
    pub fn scaled(&self, factor: f64) -> PhaseTime {
        PhaseTime {
            wall_seconds: self.wall_seconds * factor,
            simulated_seconds: self.simulated_seconds.map(|s| s * factor),
        }
    }
}

/// The five server-side phases of one query (or the totals of a batch).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseBreakdown {
    /// Host-side DPF evaluation (Algorithm 1 step ➋).
    pub eval: PhaseTime,
    /// CPU→DPU copy of the evaluated function shares (step ➌).
    pub copy_to_pim: PhaseTime,
    /// The `dpXOR` kernel over the database (step ➍).
    pub dpxor: PhaseTime,
    /// DPU→CPU copy of per-DPU subresults (step ➎).
    pub copy_from_pim: PhaseTime,
    /// Host-side aggregation of subresults (step ➏).
    pub aggregate: PhaseTime,
}

impl PhaseBreakdown {
    /// A breakdown with every phase at zero.
    #[must_use]
    pub fn zero() -> Self {
        PhaseBreakdown::default()
    }

    /// Total measured wall time across all phases.
    #[must_use]
    pub fn total_wall_seconds(&self) -> f64 {
        self.eval.wall_seconds
            + self.copy_to_pim.wall_seconds
            + self.dpxor.wall_seconds
            + self.copy_from_pim.wall_seconds
            + self.aggregate.wall_seconds
    }

    /// Total "hybrid" time: PIM phases use their modelled hardware time,
    /// host phases their measured time.
    #[must_use]
    pub fn total_hybrid_seconds(&self) -> f64 {
        self.eval.hybrid_seconds()
            + self.copy_to_pim.hybrid_seconds()
            + self.dpxor.hybrid_seconds()
            + self.copy_from_pim.hybrid_seconds()
            + self.aggregate.hybrid_seconds()
    }

    /// Adds another breakdown into this one (phase by phase).
    pub fn merge(&mut self, other: &PhaseBreakdown) {
        self.eval.merge(&other.eval);
        self.copy_to_pim.merge(&other.copy_to_pim);
        self.dpxor.merge(&other.dpxor);
        self.copy_from_pim.merge(&other.copy_from_pim);
        self.aggregate.merge(&other.aggregate);
    }

    /// Combines a breakdown that ran **concurrently** with this one on
    /// disjoint hardware (e.g. another engine shard): each phase takes the
    /// critical path across the two (see [`PhaseTime::merge_parallel`]).
    pub fn merge_parallel(&mut self, other: &PhaseBreakdown) {
        self.eval.merge_parallel(&other.eval);
        self.copy_to_pim.merge_parallel(&other.copy_to_pim);
        self.dpxor.merge_parallel(&other.dpxor);
        self.copy_from_pim.merge_parallel(&other.copy_from_pim);
        self.aggregate.merge_parallel(&other.aggregate);
    }

    /// Every phase scaled by `factor` (see [`PhaseTime::scaled`]).
    #[must_use]
    pub fn scaled(&self, factor: f64) -> PhaseBreakdown {
        PhaseBreakdown {
            eval: self.eval.scaled(factor),
            copy_to_pim: self.copy_to_pim.scaled(factor),
            dpxor: self.dpxor.scaled(factor),
            copy_from_pim: self.copy_from_pim.scaled(factor),
            aggregate: self.aggregate.scaled(factor),
        }
    }

    /// Per-phase shares of the hybrid total, in percent, in Table 1's
    /// column order (Eval, CPU→DPU, dpXOR, DPU→CPU, aggregation).
    ///
    /// Returns all zeros if the total is zero.
    #[must_use]
    pub fn percentages(&self) -> [f64; 5] {
        let total = self.total_hybrid_seconds();
        if total <= 0.0 {
            return [0.0; 5];
        }
        [
            100.0 * self.eval.hybrid_seconds() / total,
            100.0 * self.copy_to_pim.hybrid_seconds() / total,
            100.0 * self.dpxor.hybrid_seconds() / total,
            100.0 * self.copy_from_pim.hybrid_seconds() / total,
            100.0 * self.aggregate.hybrid_seconds() / total,
        ]
    }

    /// Phase names in the order used by [`PhaseBreakdown::percentages`].
    #[must_use]
    pub fn phase_names() -> [&'static str; 5] {
        [
            "Eval",
            "copy(cpu→pim)",
            "dpXOR",
            "copy(pim→cpu)",
            "aggregation",
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_prefers_simulated_time() {
        let host = PhaseTime::host(2.0);
        let pim = PhaseTime::pim(0.5, 0.01);
        assert!((host.hybrid_seconds() - 2.0).abs() < 1e-12);
        assert!((pim.hybrid_seconds() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_both_components() {
        let mut a = PhaseTime::pim(1.0, 0.1);
        a.merge(&PhaseTime::pim(2.0, 0.2));
        assert!((a.wall_seconds - 3.0).abs() < 1e-12);
        assert!((a.simulated_seconds.unwrap() - 0.3).abs() < 1e-12);

        let mut host = PhaseTime::host(1.0);
        host.merge(&PhaseTime::host(1.0));
        assert!(host.simulated_seconds.is_none());
    }

    #[test]
    fn parallel_merge_takes_the_critical_path() {
        let mut a = PhaseTime::pim(1.0, 0.2);
        a.merge_parallel(&PhaseTime::pim(0.5, 0.7));
        assert!((a.wall_seconds - 1.0).abs() < 1e-12);
        assert!((a.simulated_seconds.unwrap() - 0.7).abs() < 1e-12);

        let mut host = PhaseTime::host(2.0);
        host.merge_parallel(&PhaseTime::host(3.0));
        assert!((host.wall_seconds - 3.0).abs() < 1e-12);
        assert!(host.simulated_seconds.is_none());

        let mut breakdown = PhaseBreakdown {
            dpxor: PhaseTime::pim(1.0, 0.4),
            ..PhaseBreakdown::zero()
        };
        breakdown.merge_parallel(&PhaseBreakdown {
            dpxor: PhaseTime::pim(0.2, 0.9),
            ..PhaseBreakdown::zero()
        });
        assert!((breakdown.dpxor.simulated_seconds.unwrap() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn breakdown_totals_and_percentages() {
        let breakdown = PhaseBreakdown {
            eval: PhaseTime::host(0.75),
            copy_to_pim: PhaseTime::pim(0.5, 0.05),
            dpxor: PhaseTime::pim(1.0, 0.15),
            copy_from_pim: PhaseTime::pim(0.2, 0.01),
            aggregate: PhaseTime::host(0.04),
        };
        assert!((breakdown.total_wall_seconds() - 2.49).abs() < 1e-9);
        assert!((breakdown.total_hybrid_seconds() - 1.0).abs() < 1e-9);
        let shares = breakdown.percentages();
        assert!((shares.iter().sum::<f64>() - 100.0).abs() < 1e-6);
        assert!(shares[0] > shares[4]);
    }

    #[test]
    fn zero_breakdown_has_zero_percentages() {
        assert_eq!(PhaseBreakdown::zero().percentages(), [0.0; 5]);
    }

    #[test]
    fn phase_names_match_figure_10_legend() {
        assert_eq!(PhaseBreakdown::phase_names()[2], "dpXOR");
        assert_eq!(PhaseBreakdown::phase_names().len(), 5);
    }
}
