//! Simulated cluster sizing.
//!
//! The paper's scalability experiment (Figure 10) sweeps AWS cluster sizes
//! and reports per-component speedup. We model a cluster as `nodes ×
//! cores_per_node` workers sharing one machine: what the sweep then
//! measures is the same quantity the paper's does — how well each
//! embarrassingly parallel job scales with available task slots, including
//! the straggler effects that flatten the curve.

use std::sync::OnceLock;

/// An execution environment with a bounded number of parallel task slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cluster {
    /// Number of simulated nodes.
    pub nodes: usize,
    /// Cores (task slots) per node.
    pub cores_per_node: usize,
}

impl Cluster {
    /// A single-node "cluster" with `workers` slots (at least one).
    pub fn local(workers: usize) -> Self {
        Self {
            nodes: 1,
            cores_per_node: workers.max(1),
        }
    }

    /// Uses every core the host offers, unless the `POLYGAMY_WORKERS`
    /// environment variable forces a specific count (CI runs the suite
    /// under forced worker counts to prove results are worker-independent).
    ///
    /// Resolved once per process, at first use: every session and every
    /// `Config::default()` of a process sees the same count, and none of
    /// them pays the environment and cgroup reads again.
    pub fn host() -> Self {
        static HOST: OnceLock<Cluster> = OnceLock::new();
        *HOST.get_or_init(|| {
            let cores = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            let forced = Self::forced_workers(std::env::var("POLYGAMY_WORKERS").ok());
            Self::local(forced.unwrap_or(cores))
        })
    }

    /// Parses a `POLYGAMY_WORKERS` override; unset, empty or unparsable
    /// values mean "no override".
    fn forced_workers(var: Option<String>) -> Option<usize> {
        var.as_deref()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    }

    /// Total parallel task slots.
    pub fn workers(&self) -> usize {
        self.nodes * self.cores_per_node
    }
}

impl Default for Cluster {
    fn default() -> Self {
        Self::host()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_counts() {
        let four_by_eight = Cluster {
            nodes: 4,
            cores_per_node: 8,
        };
        assert_eq!(four_by_eight.workers(), 32);
        assert_eq!(Cluster::local(3).workers(), 3);
        assert!(Cluster::host().workers() >= 1);
        assert_eq!(Cluster::host(), Cluster::host());
    }

    #[test]
    fn zero_clamped() {
        assert_eq!(Cluster::local(0).workers(), 1);
    }

    #[test]
    fn forced_worker_parsing() {
        // Parsed without mutating the process environment (other tests run
        // concurrently and must not see a forced count).
        assert_eq!(Cluster::forced_workers(Some("4".into())), Some(4));
        assert_eq!(Cluster::forced_workers(Some(" 2 ".into())), Some(2));
        assert_eq!(Cluster::forced_workers(Some("0".into())), None);
        assert_eq!(Cluster::forced_workers(Some("lots".into())), None);
        assert_eq!(Cluster::forced_workers(None), None);
    }
}
