//! DPU cluster layouts (paper §3.4 and §5.4).
//!
//! For batched query processing IM-PIR partitions the allocated DPUs into
//! clusters; each cluster holds a full copy of the database and serves one
//! query at a time, so independent queries proceed in parallel across
//! clusters. One cluster of all 2048 DPUs maximises per-query parallelism;
//! eight clusters of 256 DPUs trade per-query speed for query-level
//! parallelism (Figure 11 shows the throughput win).

use std::ops::Range;

use crate::error::PimError;

/// A partition of `total_dpus` DPUs into equally sized clusters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterLayout {
    total_dpus: usize,
    clusters: usize,
}

impl ClusterLayout {
    /// Creates a layout of `clusters` clusters over `total_dpus` DPUs.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::InvalidClusterLayout`] if either count is zero
    /// or there are more clusters than DPUs.
    pub fn new(total_dpus: usize, clusters: usize) -> Result<Self, PimError> {
        if total_dpus == 0 {
            return Err(PimError::InvalidClusterLayout {
                reason: "no DPUs to partition".to_string(),
            });
        }
        if clusters == 0 {
            return Err(PimError::InvalidClusterLayout {
                reason: "at least one cluster is required".to_string(),
            });
        }
        if clusters > total_dpus {
            return Err(PimError::InvalidClusterLayout {
                reason: format!("{clusters} clusters requested but only {total_dpus} DPUs"),
            });
        }
        Ok(ClusterLayout {
            total_dpus,
            clusters,
        })
    }

    /// A single cluster spanning every DPU (the paper's default setup).
    ///
    /// # Errors
    ///
    /// Returns [`PimError::InvalidClusterLayout`] if `total_dpus` is zero.
    pub fn single(total_dpus: usize) -> Result<Self, PimError> {
        ClusterLayout::new(total_dpus, 1)
    }

    /// Number of clusters.
    #[must_use]
    pub fn cluster_count(&self) -> usize {
        self.clusters
    }

    /// Total DPUs across all clusters.
    #[must_use]
    pub fn total_dpus(&self) -> usize {
        self.total_dpus
    }

    /// Number of DPUs in cluster `cluster`.
    ///
    /// When the cluster count does not divide the DPU count, the first
    /// `total % clusters` clusters receive one extra DPU.
    ///
    /// # Panics
    ///
    /// Panics if `cluster >= cluster_count()`.
    #[must_use]
    pub fn dpus_in_cluster(&self, cluster: usize) -> usize {
        assert!(cluster < self.clusters, "cluster {cluster} out of range");
        let base = self.total_dpus / self.clusters;
        let remainder = self.total_dpus % self.clusters;
        base + usize::from(cluster < remainder)
    }

    /// The contiguous DPU id range backing cluster `cluster`.
    ///
    /// # Panics
    ///
    /// Panics if `cluster >= cluster_count()`.
    #[must_use]
    pub fn dpu_range(&self, cluster: usize) -> Range<usize> {
        assert!(cluster < self.clusters, "cluster {cluster} out of range");
        let mut start = 0usize;
        for previous in 0..cluster {
            start += self.dpus_in_cluster(previous);
        }
        start..start + self.dpus_in_cluster(cluster)
    }

    /// Iterates over all cluster ranges in order.
    pub fn iter(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        (0..self.clusters).map(move |c| self.dpu_range(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn even_split_matches_paper_examples() {
        // "for two clusters, each cluster has 2048/2 = 1024 DPUs, etc."
        let layout = ClusterLayout::new(2048, 2).unwrap();
        assert_eq!(layout.dpus_in_cluster(0), 1024);
        assert_eq!(layout.dpus_in_cluster(1), 1024);
        let layout = ClusterLayout::new(2048, 8).unwrap();
        assert!(layout.iter().all(|r| r.len() == 256));
    }

    #[test]
    fn uneven_split_distributes_remainder() {
        let layout = ClusterLayout::new(10, 3).unwrap();
        let sizes: Vec<usize> = (0..3).map(|c| layout.dpus_in_cluster(c)).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }

    #[test]
    fn ranges_are_contiguous_and_disjoint() {
        let layout = ClusterLayout::new(100, 7).unwrap();
        let mut next = 0usize;
        for range in layout.iter() {
            assert_eq!(range.start, next);
            next = range.end;
        }
        assert_eq!(next, 100);
    }

    #[test]
    fn invalid_layouts_are_rejected() {
        assert!(ClusterLayout::new(0, 1).is_err());
        assert!(ClusterLayout::new(10, 0).is_err());
        assert!(ClusterLayout::new(4, 5).is_err());
        assert!(ClusterLayout::single(0).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_cluster_panics() {
        let layout = ClusterLayout::new(8, 2).unwrap();
        let _ = layout.dpu_range(2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_partition_is_exact(total in 1usize..3000, clusters in 1usize..64) {
            prop_assume!(clusters <= total);
            let layout = ClusterLayout::new(total, clusters).unwrap();
            let covered: usize = layout.iter().map(|r| r.len()).sum();
            prop_assert_eq!(covered, total);
            let sizes: Vec<usize> = (0..clusters).map(|c| layout.dpus_in_cluster(c)).collect();
            let min = sizes.iter().min().unwrap();
            let max = sizes.iter().max().unwrap();
            prop_assert!(max - min <= 1);
        }
    }
}
