//! cgroup-style enforcement: once a container is placed, its processes are
//! "restricted to the allocated amount of CPU and memory usage" (Section 6).

use crate::error::{Result, YarnError};
use crate::rm::Container;
use parking_lot::Mutex;
use std::collections::HashMap;

/// Usage snapshot of one container's cgroup.
#[derive(Debug, Clone, Copy, Default)]
pub struct CgroupStats {
    pub mem_mb_used: u64,
    pub mem_mb_limit: u64,
    pub vcores_limit: u32,
    pub killed: bool,
}

/// Tracks and enforces per-container limits.
#[derive(Default)]
pub struct CgroupController {
    groups: Mutex<HashMap<u64, CgroupStats>>,
}

impl CgroupController {
    pub fn new() -> Self {
        CgroupController::default()
    }

    /// Create a cgroup for a granted container.
    pub fn attach(&self, container: &Container) {
        self.groups.lock().insert(
            container.id.0,
            CgroupStats {
                mem_mb_limit: container.mem_mb,
                vcores_limit: container.vcores,
                ..Default::default()
            },
        );
    }

    /// Record memory use. Exceeding the limit kills the container — the OOM
    /// killer semantics of `memory.limit_in_bytes`.
    pub fn charge_memory(&self, container: u64, mem_mb: u64) -> Result<()> {
        let mut groups = self.groups.lock();
        let stats = groups
            .get_mut(&container)
            .ok_or_else(|| YarnError::NotFound(format!("cgroup {container}")))?;
        if stats.killed {
            return Err(YarnError::MemoryLimitExceeded {
                container,
                used_mb: stats.mem_mb_used,
                limit_mb: stats.mem_mb_limit,
            });
        }
        stats.mem_mb_used = mem_mb;
        if mem_mb > stats.mem_mb_limit {
            stats.killed = true;
            return Err(YarnError::MemoryLimitExceeded {
                container,
                used_mb: mem_mb,
                limit_mb: stats.mem_mb_limit,
            });
        }
        Ok(())
    }

    /// CPU throttling: a workload wanting `demanded_cores` inside a
    /// container limited to `vcores` runs at this fraction of full speed
    /// (`cpu.cfs_quota_us` semantics).
    pub fn throttle_factor(&self, container: u64, demanded_cores: u32) -> Result<f64> {
        let groups = self.groups.lock();
        let stats = groups
            .get(&container)
            .ok_or_else(|| YarnError::NotFound(format!("cgroup {container}")))?;
        if demanded_cores == 0 {
            return Ok(1.0);
        }
        Ok((stats.vcores_limit as f64 / demanded_cores as f64).min(1.0))
    }

    pub fn stats(&self, container: u64) -> Option<CgroupStats> {
        self.groups.lock().get(&container).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rm::{AppId, ContainerId};
    use vdr_cluster::NodeId;

    fn container(id: u64, vcores: u32, mem_mb: u64) -> Container {
        Container {
            id: ContainerId(id),
            app: AppId(1),
            node: NodeId(0),
            vcores,
            mem_mb,
        }
    }

    #[test]
    fn memory_limit_kills_and_stays_dead() {
        let cg = CgroupController::new();
        cg.attach(&container(1, 4, 1000));
        cg.charge_memory(1, 900).unwrap();
        let err = cg.charge_memory(1, 1100).unwrap_err();
        assert!(matches!(err, YarnError::MemoryLimitExceeded { .. }));
        assert!(cg.stats(1).unwrap().killed);
        // Once killed, further charges keep failing.
        assert!(cg.charge_memory(1, 10).is_err());
    }

    #[test]
    fn cpu_throttling_caps_oversubscription() {
        let cg = CgroupController::new();
        cg.attach(&container(2, 6, 1000));
        // An R job wanting 24 cores inside a 6-vcore container runs at 1/4.
        assert_eq!(cg.throttle_factor(2, 24).unwrap(), 0.25);
        assert_eq!(cg.throttle_factor(2, 6).unwrap(), 1.0);
        assert_eq!(cg.throttle_factor(2, 3).unwrap(), 1.0);
        assert_eq!(cg.throttle_factor(2, 0).unwrap(), 1.0);
    }

    #[test]
    fn unknown_ids() {
        let cg = CgroupController::new();
        cg.attach(&container(3, 1, 10));
        assert!(cg.stats(4).is_none());
        assert!(cg.charge_memory(4, 1).is_err());
        assert!(cg.throttle_factor(4, 1).is_err());
    }
}
