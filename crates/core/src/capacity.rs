//! Capacity-aware shard planning: sizing shards to backend capacity.
//!
//! Uniform shard plans throttle a heterogeneous deployment at its slowest
//! backend: a PIM allocation bounded by per-cluster MRAM, a CPU host bounded
//! by DRAM bandwidth and an out-of-core streaming server bounded by the
//! CPU→DPU link differ by orders of magnitude in effective scan speed, yet a
//! uniform [`ShardPlan`] hands each the same record count. This module turns
//! *how the database is partitioned* into a deployment policy computed from
//! capacity, not a constant baked into every construction site:
//!
//! * a [`CapacityProfile`] declares what one backend can do — how many
//!   records its memory budget holds, how fast one wave slot scans, how fast
//!   it evaluates DPF leaves, and how many scans run concurrently
//!   ([`CapacityProfile::wave_width`]);
//! * every bundled backend reports its profile through [`ProfiledBackend`]
//!   (the PIM server derives it from its MRAM budget and the timed
//!   simulator's cost model, the CPU and streaming servers from host
//!   parameters), and the configs offer declared profiles *before* any
//!   backend is built ([`crate::server::pim::ImPirConfig::capacity_profile`]
//!   and friends);
//! * a [`ShardPlanner`] takes N profiles and produces a non-uniform
//!   [`ShardPlan`] that minimises the predicted critical-path scan time —
//!   waterfilling records over effective bandwidth, hard-capped by each
//!   backend's record capacity;
//! * declared numbers are refined by measurement:
//!   [`measure_scan_bandwidth`] runs short probe scans on a live backend and
//!   [`ShardPlanner::calibrate_with`] blends the measured bandwidth into the
//!   declared profile.
//!
//! [`crate::engine::QueryEngine::planned`] consumes the planner output
//! directly and records each shard's predicted scan time, so the engine's
//! per-shard [`crate::server::phases::PhaseBreakdown`]s expose
//! predicted-vs-actual skew after every batch.
//!
//! # Example
//!
//! ```
//! use impir_core::capacity::{CapacityProfile, ShardPlanner};
//!
//! // A fast backend, a slow one, and a fast-but-tiny one.
//! let planner = ShardPlanner::new(vec![
//!     CapacityProfile::new(100_000, 8.0e9, 4.0e7, 2)?,
//!     CapacityProfile::new(100_000, 1.0e9, 4.0e7, 1)?,
//!     CapacityProfile::new(100, 64.0e9, 4.0e7, 4)?,
//! ])?;
//! let plan = planner.plan(10_000, 32)?;
//! let sizes: Vec<u64> = plan.ranges().iter().map(|r| r.end - r.start).collect();
//! // The fast backend takes the bulk, the slow one little, the tiny one is
//! // clamped to its capacity.
//! assert!(sizes[0] > sizes[1]);
//! assert_eq!(sizes[2], 100);
//! assert_eq!(sizes.iter().sum::<u64>(), 10_000);
//! # Ok::<(), impir_core::PirError>(())
//! ```

use crate::batch::BatchExecutor;
use crate::error::PirError;
use crate::shard::ShardPlan;

/// Declared DRAM scan bandwidth of one host thread, bytes/second — the
/// starting point for CPU-side profiles, refined by calibration
/// ([`measure_scan_bandwidth`]). A conservative figure for one core
/// streaming records through the cache hierarchy.
pub const HOST_SCAN_BANDWIDTH_PER_THREAD: f64 = 8.0e9;

/// Declared DPF evaluation throughput of one host thread, GGM leaves per
/// second (AES-bound; two fixed-key AES calls per node).
///
/// Measured, not guessed: the `e2e` harness's traced `batch-large-local`
/// run reports `dpf.leaves_per_s` — the median of repeated
/// `impir_dpf::eval::eval_full` calls on one thread over the 2^16-leaf
/// domain — at 8.4 M leaves/s on a 2.6 GHz Xeon core with the table-driven
/// software AES of `impir_crypto` (≈17 M AES blocks/s, `dpf.prg_ceiling_ratio`
/// 0.98). Rounded down. Re-measure when the AES kernel changes: the figure
/// it replaced (`4.0e7`) was 14× above what the code then delivered.
pub const HOST_EVAL_LEAVES_PER_SEC_PER_THREAD: f64 = 8.0e6;

/// What one backend can do, as the [`ShardPlanner`] sees it.
///
/// A profile can be *declared* — computed from configuration before the
/// backend exists (MRAM budgets, host parameters, the PIM cost model) — or
/// *calibrated*, with measured probe-scan bandwidth blended in
/// ([`CapacityProfile::with_measured_scan_bandwidth`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityProfile {
    /// Maximum number of records this backend can hold, derived from its
    /// memory budget (`u64::MAX` for backends bounded only by host memory,
    /// like the CPU and streaming servers).
    pub record_capacity: u64,
    /// Effective `dpXOR` scan bandwidth of **one wave slot**, bytes/second:
    /// how fast one concurrent scan streams records (for PIM backends this
    /// comes from the timed simulator's cost model and includes selector
    /// scatter, kernel streaming and subresult gather).
    pub scan_bandwidth_bytes_per_sec: f64,
    /// DPF evaluation throughput, GGM leaves per second. Evaluation is
    /// full-domain per query regardless of sharding, so this does not move
    /// shard boundaries; it is carried for end-to-end predictions.
    pub eval_leaves_per_sec: f64,
    /// Number of scans one [`BatchExecutor::execute_wave`] call runs
    /// concurrently (DPU cluster count for PIM, spare cores for CPU, 1 for
    /// the streaming server).
    pub wave_width: usize,
}

impl CapacityProfile {
    /// Creates a profile with an explicit record capacity.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] for a zero capacity or wave width, or a
    /// non-positive / non-finite bandwidth or evaluation rate.
    pub fn new(
        record_capacity: u64,
        scan_bandwidth_bytes_per_sec: f64,
        eval_leaves_per_sec: f64,
        wave_width: usize,
    ) -> Result<Self, PirError> {
        let profile = CapacityProfile {
            record_capacity,
            scan_bandwidth_bytes_per_sec,
            eval_leaves_per_sec,
            wave_width,
        };
        profile.validate()?;
        Ok(profile)
    }

    /// A profile for a backend bounded only by host memory (record capacity
    /// `u64::MAX`).
    ///
    /// # Errors
    ///
    /// See [`CapacityProfile::new`].
    pub fn unbounded(
        scan_bandwidth_bytes_per_sec: f64,
        eval_leaves_per_sec: f64,
        wave_width: usize,
    ) -> Result<Self, PirError> {
        CapacityProfile::new(
            u64::MAX,
            scan_bandwidth_bytes_per_sec,
            eval_leaves_per_sec,
            wave_width,
        )
    }

    /// Validates the profile.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] describing the first degenerate field.
    pub fn validate(&self) -> Result<(), PirError> {
        let fail = |reason: String| Err(PirError::Config { reason });
        if self.record_capacity == 0 {
            return fail("a backend with zero record capacity cannot serve a shard".to_string());
        }
        if !(self.scan_bandwidth_bytes_per_sec.is_finite()
            && self.scan_bandwidth_bytes_per_sec > 0.0)
        {
            return fail(format!(
                "scan bandwidth must be positive and finite, got {}",
                self.scan_bandwidth_bytes_per_sec
            ));
        }
        if !(self.eval_leaves_per_sec.is_finite() && self.eval_leaves_per_sec > 0.0) {
            return fail(format!(
                "eval throughput must be positive and finite, got {}",
                self.eval_leaves_per_sec
            ));
        }
        if self.wave_width == 0 {
            return fail("wave width must be at least 1".to_string());
        }
        Ok(())
    }

    /// Aggregate scan bandwidth across all wave slots, bytes/second — the
    /// weight the planner waterfills records over.
    #[must_use]
    pub fn effective_scan_bandwidth(&self) -> f64 {
        self.scan_bandwidth_bytes_per_sec * self.wave_width as f64
    }

    /// Predicted seconds for **one** query's scan over `records` records of
    /// `record_size` bytes on one wave slot.
    #[must_use]
    pub fn predicted_scan_seconds(&self, records: u64, record_size: usize) -> f64 {
        (records as f64 * record_size as f64) / self.scan_bandwidth_bytes_per_sec
    }

    /// Predicted seconds for a `batch`-query scan of `records` records:
    /// queries proceed in waves of [`CapacityProfile::wave_width`].
    #[must_use]
    pub fn predicted_batch_scan_seconds(
        &self,
        records: u64,
        record_size: usize,
        batch: usize,
    ) -> f64 {
        let waves = batch.max(1).div_ceil(self.wave_width.max(1));
        waves as f64 * self.predicted_scan_seconds(records, record_size)
    }

    /// Returns the profile with `measured` scan bandwidth blended into the
    /// declared one: `declared + weight × (measured − declared)`. A weight
    /// of 0.0 keeps the declaration, 1.0 trusts the measurement outright;
    /// intermediate weights damp probe noise while correcting systematic
    /// declaration error.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] for a weight outside `[0, 1]` or a
    /// non-positive measurement.
    pub fn with_measured_scan_bandwidth(
        mut self,
        measured: f64,
        weight: f64,
    ) -> Result<Self, PirError> {
        if !(0.0..=1.0).contains(&weight) {
            return Err(PirError::Config {
                reason: format!("calibration blend weight must be in [0, 1], got {weight}"),
            });
        }
        if !(measured.is_finite() && measured > 0.0) {
            return Err(PirError::Config {
                reason: format!(
                    "measured scan bandwidth must be positive and finite, got {measured}"
                ),
            });
        }
        self.scan_bandwidth_bytes_per_sec +=
            weight * (measured - self.scan_bandwidth_bytes_per_sec);
        self.validate()?;
        Ok(self)
    }
}

/// A backend that can report its own [`CapacityProfile`].
///
/// All three bundled backends implement this: the PIM server derives record
/// capacity from its per-cluster MRAM budget and bandwidth from the timed
/// simulator's cost model; the CPU and streaming servers derive theirs from
/// host parameters. The profile describes the backend *as configured* — for
/// planning a fresh deployment, use the declared profiles on the configs
/// (no backend construction needed).
pub trait ProfiledBackend: BatchExecutor {
    /// The capacity profile of this backend as configured.
    fn capacity_profile(&self) -> CapacityProfile;
}

impl<S: ProfiledBackend + ?Sized> ProfiledBackend for Box<S> {
    fn capacity_profile(&self) -> CapacityProfile {
        (**self).capacity_profile()
    }
}

/// Measures a backend's per-slot scan bandwidth (bytes/second) with short
/// probe scans: a full wave of alternating-bit selectors over the backend's
/// whole record space, best of `probes` runs, timed in **hybrid** seconds
/// (simulated hardware time for PIM phases, wall time for host phases) so
/// the measurement is meaningful for simulated backends too.
///
/// The probe backend does not have to hold the production database — a
/// small replica of the same record size gives a representative per-byte
/// rate (fixed per-scan latencies then weigh heavier, which makes the
/// calibration conservative).
///
/// # Errors
///
/// Returns [`PirError::Config`] for `probes == 0` and propagates backend
/// scan failures.
pub fn measure_scan_bandwidth<B: BatchExecutor + ?Sized>(
    backend: &mut B,
    probes: usize,
) -> Result<f64, PirError> {
    if probes == 0 {
        return Err(PirError::Config {
            reason: "at least one probe scan is required".to_string(),
        });
    }
    let records = backend.num_records();
    let record_size = backend.record_size();
    let selector: impir_dpf::SelectorVector = (0..records).map(|i| i % 2 == 0).collect();
    let width = backend.wave_width().max(1);
    let wave: Vec<&impir_dpf::SelectorVector> = vec![&selector; width];
    let mut best = f64::INFINITY;
    for _ in 0..probes {
        let (_, phases) = backend.execute_wave(&wave)?;
        best = best.min(phases.total_hybrid_seconds());
    }
    // Each of the `width` slots streamed the whole record space during the
    // wave; the per-slot rate is one slot's bytes over the wave's time.
    let bytes = records as f64 * record_size as f64;
    Ok(bytes / best.max(1e-12))
}

/// Plans non-uniform [`ShardPlan`]s from backend capacity profiles.
///
/// Allocation is a waterfilling over effective scan bandwidth
/// ([`CapacityProfile::effective_scan_bandwidth`]), hard-capped by each
/// backend's record capacity: backends whose proportional share exceeds
/// their capacity are pinned at capacity and the overflow is redistributed
/// over the rest. In the fluid limit this minimises the critical-path scan
/// time `max_i records_i / bandwidth_i` subject to `records_i ≤ capacity_i`.
/// Shard order matches profile order, so shard `i` of the resulting plan is
/// the shard backend `i` should serve.
#[derive(Debug, Clone)]
pub struct ShardPlanner {
    profiles: Vec<CapacityProfile>,
}

impl ShardPlanner {
    /// Creates a planner over one profile per prospective backend.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] for an empty fleet or an invalid
    /// profile.
    pub fn new(profiles: Vec<CapacityProfile>) -> Result<Self, PirError> {
        if profiles.is_empty() {
            return Err(PirError::Config {
                reason: "a shard planner needs at least one backend profile".to_string(),
            });
        }
        for (index, profile) in profiles.iter().enumerate() {
            profile.validate().map_err(|e| PirError::Config {
                reason: format!("backend {index}: {e}"),
            })?;
        }
        Ok(ShardPlanner { profiles })
    }

    /// The profiles the planner allocates over, in shard order.
    #[must_use]
    pub fn profiles(&self) -> &[CapacityProfile] {
        &self.profiles
    }

    /// Number of backends (= shards every plan will have).
    #[must_use]
    pub fn backend_count(&self) -> usize {
        self.profiles.len()
    }

    /// Blends a measured scan bandwidth into backend `shard`'s profile (see
    /// [`CapacityProfile::with_measured_scan_bandwidth`]) — the calibration
    /// path: run [`measure_scan_bandwidth`] against a probe backend, then
    /// fold the measurement in here before planning.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] for an unknown shard index, an invalid
    /// weight or a degenerate measurement.
    pub fn calibrate_with(
        &mut self,
        shard: usize,
        measured_bandwidth: f64,
        weight: f64,
    ) -> Result<(), PirError> {
        let profile = self.profiles.get(shard).ok_or_else(|| PirError::Config {
            reason: format!(
                "cannot calibrate backend {shard}: the planner holds {} profiles",
                self.profiles.len()
            ),
        })?;
        self.profiles[shard] = profile.with_measured_scan_bandwidth(measured_bandwidth, weight)?;
        Ok(())
    }

    /// Produces the capacity-aware plan for a database of `num_records`
    /// records of `record_size` bytes.
    ///
    /// Every backend receives at least one record (a shard may not be
    /// empty), at most its record capacity, and otherwise a share
    /// proportional to its effective scan bandwidth.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] if there are fewer records than
    /// backends, or if the fleet's aggregate record capacity cannot hold
    /// the database.
    pub fn plan(&self, num_records: u64, record_size: usize) -> Result<ShardPlan, PirError> {
        let backends = self.profiles.len();
        if num_records < backends as u64 {
            return Err(PirError::Config {
                reason: format!(
                    "cannot split {num_records} records across {backends} backends \
                     (every shard needs at least one record)"
                ),
            });
        }
        let total_capacity: u128 = self
            .profiles
            .iter()
            .map(|p| u128::from(p.record_capacity))
            .sum();
        if total_capacity < u128::from(num_records) {
            return Err(PirError::Config {
                reason: format!(
                    "fleet capacity of {total_capacity} records cannot hold a \
                     {num_records}-record database"
                ),
            });
        }
        let _ = record_size; // geometry is validated; bandwidth weights are per byte, so
                             // the proportional shares are independent of record size.

        // Waterfilling: pin backends whose proportional share exceeds their
        // capacity, redistribute the rest over the remaining bandwidth.
        let mut assigned = vec![0u64; backends];
        let mut pinned = vec![false; backends];
        loop {
            let pinned_records: u64 = (0..backends)
                .filter(|&i| pinned[i])
                .map(|i| assigned[i])
                .sum();
            let remaining = num_records - pinned_records;
            let active: Vec<usize> = (0..backends).filter(|&i| !pinned[i]).collect();
            let total_weight: f64 = active
                .iter()
                .map(|&i| self.profiles[i].effective_scan_bandwidth())
                .sum();
            let mut newly_pinned = false;
            for &i in &active {
                let share =
                    remaining as f64 * self.profiles[i].effective_scan_bandwidth() / total_weight;
                if share >= self.profiles[i].record_capacity as f64 {
                    pinned[i] = true;
                    assigned[i] = self.profiles[i].record_capacity;
                    newly_pinned = true;
                }
            }
            if newly_pinned {
                continue;
            }
            // Fluid shares fit every active backend's capacity: round to
            // integers by largest remainder, capacity-aware.
            let mut fractions: Vec<(usize, f64)> = Vec::with_capacity(active.len());
            let mut distributed = 0u64;
            for &i in &active {
                let share =
                    remaining as f64 * self.profiles[i].effective_scan_bandwidth() / total_weight;
                let floor = share.floor() as u64;
                assigned[i] = floor.min(self.profiles[i].record_capacity);
                distributed += assigned[i];
                fractions.push((i, share - assigned[i] as f64));
            }
            // Highest fractional part first; index breaks ties so the
            // rounding is deterministic.
            fractions.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
            let mut leftover = remaining - distributed;
            while leftover > 0 {
                let mut progressed = false;
                for &(i, _) in &fractions {
                    if leftover == 0 {
                        break;
                    }
                    if assigned[i] < self.profiles[i].record_capacity {
                        assigned[i] += 1;
                        leftover -= 1;
                        progressed = true;
                    }
                }
                debug_assert!(progressed, "capacity was checked to cover the database");
                if !progressed {
                    break;
                }
            }
            break;
        }

        // A shard may not be empty: top up zero-record backends from the
        // largest allocation (possible because num_records >= backends).
        for i in 0..backends {
            while assigned[i] == 0 {
                let donor = (0..backends)
                    .max_by_key(|&j| assigned[j])
                    .expect("at least one backend");
                debug_assert!(assigned[donor] > 1);
                assigned[donor] -= 1;
                assigned[i] += 1;
            }
        }
        debug_assert_eq!(assigned.iter().sum::<u64>(), num_records);

        let mut ranges = Vec::with_capacity(backends);
        let mut start = 0u64;
        for &records in &assigned {
            ranges.push(start..start + records);
            start += records;
        }
        ShardPlan::from_ranges(ranges)
    }

    /// Predicted per-shard scan seconds for a `batch`-query batch under
    /// `plan` (one entry per shard, profile order).
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] if the plan's shard count differs from
    /// the planner's backend count.
    pub fn predicted_shard_scan_seconds(
        &self,
        plan: &ShardPlan,
        record_size: usize,
        batch: usize,
    ) -> Result<Vec<f64>, PirError> {
        if plan.shard_count() != self.profiles.len() {
            return Err(PirError::Config {
                reason: format!(
                    "plan has {} shards but the planner holds {} backend profiles",
                    plan.shard_count(),
                    self.profiles.len()
                ),
            });
        }
        Ok(self
            .profiles
            .iter()
            .zip(plan.ranges())
            .map(|(profile, range)| {
                profile.predicted_batch_scan_seconds(range.end - range.start, record_size, batch)
            })
            .collect())
    }

    /// Predicted batch scan time under `plan`: the critical path (maximum)
    /// across the concurrently scanning shards.
    ///
    /// # Errors
    ///
    /// See [`ShardPlanner::predicted_shard_scan_seconds`].
    pub fn predicted_batch_seconds(
        &self,
        plan: &ShardPlan,
        record_size: usize,
        batch: usize,
    ) -> Result<f64, PirError> {
        Ok(self
            .predicted_shard_scan_seconds(plan, record_size, batch)?
            .into_iter()
            .fold(0.0f64, f64::max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::server::cpu::{CpuPirServer, CpuServerConfig};
    use crate::server::pim::{ImPirConfig, ImPirServer};
    use std::sync::Arc;

    fn profile(capacity: u64, bandwidth: f64, wave: usize) -> CapacityProfile {
        CapacityProfile::new(
            capacity,
            bandwidth,
            HOST_EVAL_LEAVES_PER_SEC_PER_THREAD,
            wave,
        )
        .unwrap()
    }

    #[test]
    fn degenerate_profiles_are_rejected() {
        assert!(CapacityProfile::new(0, 1.0, 1.0, 1).is_err());
        assert!(CapacityProfile::new(1, 0.0, 1.0, 1).is_err());
        assert!(CapacityProfile::new(1, f64::NAN, 1.0, 1).is_err());
        assert!(CapacityProfile::new(1, 1.0, -1.0, 1).is_err());
        assert!(CapacityProfile::new(1, 1.0, 1.0, 0).is_err());
        assert!(CapacityProfile::new(1, 1.0, 1.0, 1).is_ok());
        assert!(ShardPlanner::new(vec![]).is_err());
    }

    #[test]
    fn proportional_allocation_follows_effective_bandwidth() {
        // 3:1 bandwidth ratio (same wave width) ⇒ a 3:1 record split.
        let planner = ShardPlanner::new(vec![
            profile(u64::MAX, 3.0e9, 1),
            profile(u64::MAX, 1.0e9, 1),
        ])
        .unwrap();
        let plan = planner.plan(4000, 32).unwrap();
        assert_eq!(plan.range(0), Some(0..3000));
        assert_eq!(plan.range(1), Some(3000..4000));
        // Wave width multiplies into the weight: 1 GB/s × 3 slots pulls as
        // much as 3 GB/s × 1 slot.
        let planner = ShardPlanner::new(vec![
            profile(u64::MAX, 1.0e9, 3),
            profile(u64::MAX, 3.0e9, 1),
        ])
        .unwrap();
        let plan = planner.plan(4000, 32).unwrap();
        assert_eq!(plan.range(0), Some(0..2000));
    }

    #[test]
    fn capacity_caps_pin_and_redistribute() {
        // The fastest backend can only hold 100 records; its overflow must
        // waterfill over the other two in bandwidth proportion.
        let planner = ShardPlanner::new(vec![
            profile(100, 64.0e9, 4),
            profile(u64::MAX, 2.0e9, 1),
            profile(u64::MAX, 1.0e9, 1),
        ])
        .unwrap();
        let plan = planner.plan(3100, 32).unwrap();
        let sizes: Vec<u64> = plan.ranges().iter().map(|r| r.end - r.start).collect();
        assert_eq!(sizes[0], 100);
        assert_eq!(sizes[1], 2000);
        assert_eq!(sizes[2], 1000);
    }

    #[test]
    fn plans_tile_exactly_for_awkward_record_counts() {
        let planner = ShardPlanner::new(vec![
            profile(u64::MAX, 7.3e9, 2),
            profile(5000, 1.1e9, 1),
            profile(u64::MAX, 2.9e9, 3),
        ])
        .unwrap();
        for records in [3u64, 7, 97, 1013, 40_001] {
            let plan = planner.plan(records, 24).unwrap();
            assert_eq!(plan.num_records(), records, "records={records}");
            assert_eq!(plan.shard_count(), 3);
            for range in plan.ranges() {
                assert!(range.end > range.start, "records={records}");
            }
        }
    }

    #[test]
    fn insufficient_fleets_are_rejected() {
        // Fewer records than backends.
        let planner =
            ShardPlanner::new(vec![profile(10, 1.0e9, 1), profile(10, 1.0e9, 1)]).unwrap();
        assert!(matches!(planner.plan(1, 32), Err(PirError::Config { .. })));
        // Aggregate capacity short of the database.
        assert!(matches!(planner.plan(21, 32), Err(PirError::Config { .. })));
        // Exactly at capacity is fine.
        assert!(planner.plan(20, 32).is_ok());
    }

    #[test]
    fn calibration_blends_measured_into_declared() {
        let declared = profile(u64::MAX, 2.0e9, 1);
        let blended = declared.with_measured_scan_bandwidth(4.0e9, 0.5).unwrap();
        assert!((blended.scan_bandwidth_bytes_per_sec - 3.0e9).abs() < 1.0);
        let trusted = declared.with_measured_scan_bandwidth(4.0e9, 1.0).unwrap();
        assert!((trusted.scan_bandwidth_bytes_per_sec - 4.0e9).abs() < 1.0);
        assert!(declared.with_measured_scan_bandwidth(4.0e9, 1.5).is_err());
        assert!(declared.with_measured_scan_bandwidth(-1.0, 0.5).is_err());

        let mut planner = ShardPlanner::new(vec![declared, profile(u64::MAX, 2.0e9, 1)]).unwrap();
        planner.calibrate_with(0, 6.0e9, 1.0).unwrap();
        let plan = planner.plan(4000, 32).unwrap();
        // After calibration the first backend is 3× faster: 3:1 split.
        assert_eq!(plan.range(0), Some(0..3000));
        assert!(planner.calibrate_with(5, 1.0e9, 0.5).is_err());
    }

    #[test]
    fn measured_bandwidth_is_positive_and_orders_backends_sensibly() {
        let db = Arc::new(Database::random(512, 32, 3).unwrap());
        let mut cpu = CpuPirServer::new(db.clone(), CpuServerConfig::baseline()).unwrap();
        let cpu_measured = measure_scan_bandwidth(&mut cpu, 2).unwrap();
        assert!(cpu_measured > 0.0 && cpu_measured.is_finite());
        // The simulated PIM backend's hybrid time is dominated by modelled
        // transfer latencies at this tiny scale — still positive and finite.
        let mut pim = ImPirServer::new(db, ImPirConfig::tiny_test(4)).unwrap();
        let pim_measured = measure_scan_bandwidth(&mut pim, 2).unwrap();
        assert!(pim_measured > 0.0 && pim_measured.is_finite());
        assert!(measure_scan_bandwidth(&mut cpu, 0).is_err());
    }

    #[test]
    fn predicted_times_scale_with_records_and_waves() {
        let p = profile(u64::MAX, 1.0e9, 2);
        let one = p.predicted_scan_seconds(1000, 32);
        assert!((one - 32e-6 * 1000.0 / 1000.0 / 1.0).abs() < 1e-9);
        // Two queries fit one wave; three need two.
        assert!((p.predicted_batch_scan_seconds(1000, 32, 2) - one).abs() < 1e-12);
        assert!((p.predicted_batch_scan_seconds(1000, 32, 3) - 2.0 * one).abs() < 1e-12);

        let planner = ShardPlanner::new(vec![p, profile(u64::MAX, 1.0e9, 1)]).unwrap();
        let plan = planner.plan(3000, 32).unwrap();
        let per_shard = planner.predicted_shard_scan_seconds(&plan, 32, 4).unwrap();
        assert_eq!(per_shard.len(), 2);
        let critical = planner.predicted_batch_seconds(&plan, 32, 4).unwrap();
        assert!((critical - per_shard.iter().fold(0.0f64, |a, &b| a.max(b))).abs() < 1e-15);
        // A mismatched plan is rejected.
        let foreign = ShardPlan::uniform(3000, 3).unwrap();
        assert!(planner
            .predicted_shard_scan_seconds(&foreign, 32, 4)
            .is_err());
    }

    #[test]
    fn planned_layout_beats_uniform_on_asymmetric_fleets() {
        // A 10:1 bandwidth asymmetry: uniform pays the slow backend's full
        // half; the planned layout shrinks it to a tenth.
        let planner = ShardPlanner::new(vec![
            profile(u64::MAX, 10.0e9, 1),
            profile(u64::MAX, 1.0e9, 1),
        ])
        .unwrap();
        let records = 22_000u64;
        let planned = planner.plan(records, 32).unwrap();
        let uniform = ShardPlan::uniform(records, 2).unwrap();
        let planned_time = planner.predicted_batch_seconds(&planned, 32, 8).unwrap();
        let uniform_time = planner.predicted_batch_seconds(&uniform, 32, 8).unwrap();
        assert!(
            planned_time < uniform_time / 2.0,
            "planned={planned_time} uniform={uniform_time}"
        );
    }
}
