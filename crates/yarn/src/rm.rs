//! The two-level scheduler: applications ask their queue, queues share the
//! cluster under a capacity or fair policy, and allocations prefer the
//! nodes the application names (data locality with Vertica's segments).

use crate::error::{Result, YarnError};
use parking_lot::Mutex;
use std::collections::HashMap;
use vdr_cluster::{NodeId, SimCluster};

/// How queues share the cluster.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulingPolicy {
    /// Each queue owns a fixed fraction of every resource (hard cap).
    Capacity(HashMap<String, f64>),
    /// Queues may use anything free; under contention the queue with the
    /// smallest current share wins (checked at allocation time).
    Fair,
}

/// Whether an application holds resources long-term (the database) or per
/// session (Distributed R).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lifetime {
    LongRunning,
    Session,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AppId(pub u64);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContainerId(pub u64);

/// A granted container.
#[derive(Debug, Clone)]
pub struct Container {
    pub id: ContainerId,
    pub app: AppId,
    pub node: NodeId,
    pub vcores: u32,
    pub mem_mb: u64,
}

/// A container request from an application master.
#[derive(Debug, Clone)]
pub struct ResourceRequest {
    pub vcores: u32,
    pub mem_mb: u64,
    pub count: usize,
    /// Nodes to prefer (e.g. where the database segments live); falls back
    /// to any node with room.
    pub preferred_nodes: Vec<NodeId>,
}

/// A registered application.
#[derive(Debug, Clone)]
pub struct Application {
    pub id: AppId,
    pub name: String,
    pub queue: String,
    pub lifetime: Lifetime,
}

#[derive(Debug, Clone, Copy, Default)]
struct NodeCapacity {
    vcores_total: u32,
    mem_total_mb: u64,
    vcores_used: u32,
    mem_used_mb: u64,
}

struct State {
    nodes: Vec<NodeCapacity>,
    apps: HashMap<AppId, Application>,
    containers: HashMap<ContainerId, Container>,
    /// (vcores, mem) in use per queue.
    queue_usage: HashMap<String, (u64, u64)>,
    next_app: u64,
    next_container: u64,
}

/// The resource manager.
pub struct ResourceManager {
    policy: SchedulingPolicy,
    state: Mutex<State>,
    cluster_vcores: u64,
    cluster_mem_mb: u64,
}

impl ResourceManager {
    /// Stand up a resource manager over the simulated cluster, taking node
    /// capacities from the hardware profile.
    pub fn new(cluster: &SimCluster, policy: SchedulingPolicy) -> Result<Self> {
        if let SchedulingPolicy::Capacity(shares) = &policy {
            let total: f64 = shares.values().sum();
            if shares.is_empty() || total > 1.0 + 1e-9 || shares.values().any(|s| *s <= 0.0) {
                return Err(YarnError::Config(format!(
                    "capacity shares must be positive and sum to ≤ 1, got {shares:?}"
                )));
            }
        }
        let profile = cluster.profile();
        let per_node = NodeCapacity {
            vcores_total: profile.cores as u32,
            mem_total_mb: profile.mem_bytes / (1 << 20),
            vcores_used: 0,
            mem_used_mb: 0,
        };
        let n = cluster.num_nodes();
        Ok(ResourceManager {
            policy,
            cluster_vcores: per_node.vcores_total as u64 * n as u64,
            cluster_mem_mb: per_node.mem_total_mb * n as u64,
            state: Mutex::new(State {
                nodes: vec![per_node; n],
                apps: HashMap::new(),
                containers: HashMap::new(),
                queue_usage: HashMap::new(),
                next_app: 1,
                next_container: 1,
            }),
        })
    }

    /// Register an application master under `queue`.
    pub fn register(&self, name: &str, queue: &str, lifetime: Lifetime) -> Result<Application> {
        if let SchedulingPolicy::Capacity(shares) = &self.policy {
            if !shares.contains_key(queue) {
                return Err(YarnError::NoSuchQueue(queue.to_string()));
            }
        }
        let mut state = self.state.lock();
        let id = AppId(state.next_app);
        state.next_app += 1;
        let app = Application {
            id,
            name: name.to_string(),
            queue: queue.to_string(),
            lifetime,
        };
        state.apps.insert(id, app.clone());
        state.queue_usage.entry(app.queue.clone()).or_insert((0, 0));
        Ok(app)
    }

    /// Allocate containers. All-or-nothing: either every requested
    /// container is granted or the state is untouched.
    pub fn allocate(&self, app_id: AppId, req: &ResourceRequest) -> Result<Vec<Container>> {
        vdr_obs::counter("yarn.container.requested", req.count as u64);
        let granted = self.try_allocate(app_id, req)?;
        for c in &granted {
            vdr_obs::counter_on("yarn.container.granted", c.node.0, 1);
        }
        Ok(granted)
    }

    fn try_allocate(&self, app_id: AppId, req: &ResourceRequest) -> Result<Vec<Container>> {
        if req.count == 0 || req.vcores == 0 || req.mem_mb == 0 {
            return Err(YarnError::Unsatisfiable("zero-sized request".into()));
        }
        let mut state = self.state.lock();
        let app = state
            .apps
            .get(&app_id)
            .cloned()
            .ok_or_else(|| YarnError::NotFound(format!("application {app_id:?}")))?;
        // Per-node feasibility.
        if state
            .nodes
            .iter()
            .all(|n| req.vcores > n.vcores_total || req.mem_mb > n.mem_total_mb)
        {
            return Err(YarnError::Unsatisfiable(format!(
                "container ({} vcores, {} MB) larger than any node",
                req.vcores, req.mem_mb
            )));
        }
        // Queue policy headroom.
        let want_vcores = req.vcores as u64 * req.count as u64;
        let want_mem = req.mem_mb * req.count as u64;
        let usage = state.queue_usage.get(&app.queue).copied().unwrap_or((0, 0));
        if let SchedulingPolicy::Capacity(shares) = &self.policy {
            let share = shares[&app.queue];
            let cap_vcores = (self.cluster_vcores as f64 * share) as u64;
            let cap_mem = (self.cluster_mem_mb as f64 * share) as u64;
            if usage.0 + want_vcores > cap_vcores || usage.1 + want_mem > cap_mem {
                return Err(YarnError::InsufficientResources(format!(
                    "queue '{}' capacity share exhausted ({}/{} vcores in use, {} requested)",
                    app.queue, usage.0, cap_vcores, want_vcores
                )));
            }
        }

        // Node selection: preferred first, then round-robin over the rest.
        let order: Vec<usize> = {
            let preferred: Vec<usize> = req
                .preferred_nodes
                .iter()
                .map(|n| n.0)
                .filter(|&i| i < state.nodes.len())
                .collect();
            let mut rest: Vec<usize> = (0..state.nodes.len())
                .filter(|i| !preferred.contains(i))
                .collect();
            // Least-loaded first among the non-preferred.
            rest.sort_by_key(|&i| state.nodes[i].vcores_used);
            preferred.into_iter().chain(rest).collect()
        };

        let mut placements: Vec<usize> = Vec::with_capacity(req.count);
        let mut trial: Vec<NodeCapacity> = state.nodes.clone();
        'containers: for c in 0..req.count {
            // Rotate the start so multi-container requests spread across the
            // preferred nodes instead of stacking on the first one.
            let rotated: Vec<usize> = (0..order.len())
                .map(|k| order[(c + k) % order.len()])
                .collect();
            for &i in &rotated {
                let node = &mut trial[i];
                if node.vcores_used + req.vcores <= node.vcores_total
                    && node.mem_used_mb + req.mem_mb <= node.mem_total_mb
                {
                    node.vcores_used += req.vcores;
                    node.mem_used_mb += req.mem_mb;
                    placements.push(i);
                    continue 'containers;
                }
            }
            return Err(YarnError::InsufficientResources(format!(
                "only {} of {} containers placeable",
                placements.len(),
                req.count
            )));
        }

        // Commit.
        state.nodes = trial;
        let entry = state.queue_usage.entry(app.queue.clone()).or_insert((0, 0));
        entry.0 += want_vcores;
        entry.1 += want_mem;
        let mut granted = Vec::with_capacity(req.count);
        for node_idx in placements {
            let id = ContainerId(state.next_container);
            state.next_container += 1;
            let c = Container {
                id,
                app: app_id,
                node: NodeId(node_idx),
                vcores: req.vcores,
                mem_mb: req.mem_mb,
            };
            state.containers.insert(id, c.clone());
            granted.push(c);
        }
        Ok(granted)
    }

    /// Release one container.
    pub fn release(&self, container: ContainerId) -> Result<()> {
        let mut state = self.state.lock();
        let c = state
            .containers
            .remove(&container)
            .ok_or_else(|| YarnError::NotFound(format!("container {container:?}")))?;
        vdr_obs::counter_on("yarn.container.released", c.node.0, 1);
        let node = &mut state.nodes[c.node.0];
        node.vcores_used -= c.vcores;
        node.mem_used_mb -= c.mem_mb;
        let queue = state.apps.get(&c.app).map(|a| a.queue.clone());
        if let Some(queue) = queue {
            if let Some(u) = state.queue_usage.get_mut(&queue) {
                u.0 -= c.vcores as u64;
                u.1 -= c.mem_mb;
            }
        }
        Ok(())
    }

    /// Unregister an application, releasing everything it still holds (a
    /// Distributed R session ending).
    pub fn unregister(&self, app_id: AppId) -> Result<()> {
        let held: Vec<ContainerId> = {
            let state = self.state.lock();
            if !state.apps.contains_key(&app_id) {
                return Err(YarnError::NotFound(format!("application {app_id:?}")));
            }
            state
                .containers
                .values()
                .filter(|c| c.app == app_id)
                .map(|c| c.id)
                .collect()
        };
        for c in held {
            self.release(c)?;
        }
        self.state.lock().apps.remove(&app_id);
        Ok(())
    }

    /// (vcores, mem MB) currently used by a queue.
    pub fn queue_usage(&self, queue: &str) -> (u64, u64) {
        self.state
            .lock()
            .queue_usage
            .get(queue)
            .copied()
            .unwrap_or((0, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdr_cluster::SimCluster;

    fn capacity_rm(cluster: &SimCluster) -> ResourceManager {
        // The deployment Section 6 describes: the database holds a long-term
        // share, Distributed R sessions get the rest.
        let mut shares = HashMap::new();
        shares.insert("vertica".to_string(), 0.5);
        shares.insert("dr".to_string(), 0.5);
        ResourceManager::new(cluster, SchedulingPolicy::Capacity(shares)).unwrap()
    }

    #[test]
    fn long_running_db_plus_session_dr_coexist() {
        let cluster = SimCluster::for_tests(4); // 4 × 24 vcores
        let rm = capacity_rm(&cluster);
        let db = rm
            .register("vertica", "vertica", Lifetime::LongRunning)
            .unwrap();
        let dr = rm
            .register("distributedR", "dr", Lifetime::Session)
            .unwrap();
        // DB reserves 12 vcores on each node long-term.
        let db_containers = rm
            .allocate(
                db.id,
                &ResourceRequest {
                    vcores: 12,
                    mem_mb: 64_000,
                    count: 4,
                    preferred_nodes: cluster.node_ids(),
                },
            )
            .unwrap();
        assert_eq!(db_containers.len(), 4);
        // One container per node thanks to locality preference.
        let mut nodes: Vec<usize> = db_containers.iter().map(|c| c.node.0).collect();
        nodes.sort();
        assert_eq!(nodes, vec![0, 1, 2, 3]);
        // DR session takes the other half.
        let dr_containers = rm
            .allocate(
                dr.id,
                &ResourceRequest {
                    vcores: 12,
                    mem_mb: 64_000,
                    count: 4,
                    preferred_nodes: cluster.node_ids(),
                },
            )
            .unwrap();
        assert_eq!(dr_containers.len(), 4);
        assert_eq!(rm.queue_usage("vertica"), (48, 256_000));
        // Session ends → resources return.
        rm.unregister(dr.id).unwrap();
        assert_eq!(rm.queue_usage("dr"), (0, 0));
        // Every node got its 12 vcores back: the next session lands one
        // container on each again.
        let next = rm
            .register("distributedR", "dr", Lifetime::Session)
            .unwrap();
        let again = rm
            .allocate(
                next.id,
                &ResourceRequest {
                    vcores: 12,
                    mem_mb: 64_000,
                    count: 4,
                    preferred_nodes: cluster.node_ids(),
                },
            )
            .unwrap();
        let mut nodes: Vec<usize> = again.iter().map(|c| c.node.0).collect();
        nodes.sort();
        assert_eq!(nodes, vec![0, 1, 2, 3]);
    }

    #[test]
    fn capacity_cap_is_a_hard_limit() {
        let cluster = SimCluster::for_tests(2); // 48 vcores total
        let rm = capacity_rm(&cluster);
        let dr = rm.register("dr", "dr", Lifetime::Session).unwrap();
        // dr's share is 24 vcores; asking for 36 must fail untouched.
        let err = rm
            .allocate(
                dr.id,
                &ResourceRequest {
                    vcores: 12,
                    mem_mb: 1000,
                    count: 3,
                    preferred_nodes: vec![],
                },
            )
            .unwrap_err();
        assert!(matches!(err, YarnError::InsufficientResources(_)));
        assert_eq!(rm.queue_usage("dr"), (0, 0));
        // Within the cap it succeeds.
        rm.allocate(
            dr.id,
            &ResourceRequest {
                vcores: 12,
                mem_mb: 1000,
                count: 2,
                preferred_nodes: vec![],
            },
        )
        .unwrap();
    }

    #[test]
    fn fair_policy_allows_bursting_into_free_resources() {
        let cluster = SimCluster::for_tests(2);
        let rm = ResourceManager::new(&cluster, SchedulingPolicy::Fair).unwrap();
        let dr = rm.register("dr", "dr", Lifetime::Session).unwrap();
        // Under fair scheduling an idle cluster can be fully used by one app.
        let got = rm
            .allocate(
                dr.id,
                &ResourceRequest {
                    vcores: 24,
                    mem_mb: 1000,
                    count: 2,
                    preferred_nodes: vec![],
                },
            )
            .unwrap();
        assert_eq!(got.len(), 2);
        // Nothing is left: one more vcore anywhere is refused.
        let one_more = ResourceRequest {
            vcores: 1,
            mem_mb: 1,
            count: 1,
            preferred_nodes: vec![],
        };
        assert!(rm.allocate(dr.id, &one_more).is_err());
    }

    #[test]
    fn oversized_and_unplaceable_requests() {
        let cluster = SimCluster::for_tests(2);
        let rm = ResourceManager::new(&cluster, SchedulingPolicy::Fair).unwrap();
        let app = rm.register("x", "q", Lifetime::Session).unwrap();
        // Bigger than any node.
        assert!(matches!(
            rm.allocate(
                app.id,
                &ResourceRequest {
                    vcores: 100,
                    mem_mb: 10,
                    count: 1,
                    preferred_nodes: vec![]
                }
            ),
            Err(YarnError::Unsatisfiable(_))
        ));
        // Fits per node but not in aggregate; all-or-nothing must not leak.
        assert!(rm
            .allocate(
                app.id,
                &ResourceRequest {
                    vcores: 20,
                    mem_mb: 10,
                    count: 5,
                    preferred_nodes: vec![]
                }
            )
            .is_err());
        // Nothing leaked: the whole cluster is still free to take.
        let whole = ResourceRequest {
            vcores: 24,
            mem_mb: 10,
            count: 2,
            preferred_nodes: vec![],
        };
        let taken = rm.allocate(app.id, &whole).unwrap();
        for c in taken {
            rm.release(c.id).unwrap();
        }
        // Zero request rejected.
        assert!(rm
            .allocate(
                app.id,
                &ResourceRequest {
                    vcores: 0,
                    mem_mb: 10,
                    count: 1,
                    preferred_nodes: vec![]
                }
            )
            .is_err());
    }

    #[test]
    fn unknown_queue_and_ids() {
        let cluster = SimCluster::for_tests(1);
        let rm = capacity_rm(&cluster);
        assert!(matches!(
            rm.register("x", "nope", Lifetime::Session),
            Err(YarnError::NoSuchQueue(_))
        ));
        assert!(rm.release(ContainerId(99)).is_err());
        assert!(rm.unregister(AppId(99)).is_err());
        assert!(rm
            .allocate(
                AppId(99),
                &ResourceRequest {
                    vcores: 1,
                    mem_mb: 1,
                    count: 1,
                    preferred_nodes: vec![]
                }
            )
            .is_err());
    }

    #[test]
    fn bad_capacity_config_rejected() {
        let cluster = SimCluster::for_tests(1);
        let mut shares = HashMap::new();
        shares.insert("a".to_string(), 0.9);
        shares.insert("b".to_string(), 0.9);
        assert!(ResourceManager::new(&cluster, SchedulingPolicy::Capacity(shares)).is_err());
        let empty: HashMap<String, f64> = HashMap::new();
        assert!(ResourceManager::new(&cluster, SchedulingPolicy::Capacity(empty)).is_err());
    }

    #[test]
    fn release_returns_one_holding() {
        let cluster = SimCluster::for_tests(2);
        let rm = ResourceManager::new(&cluster, SchedulingPolicy::Fair).unwrap();
        let app = rm.register("x", "q", Lifetime::Session).unwrap();
        let held = rm
            .allocate(
                app.id,
                &ResourceRequest {
                    vcores: 2,
                    mem_mb: 100,
                    count: 3,
                    preferred_nodes: vec![],
                },
            )
            .unwrap();
        assert_eq!(held.len(), 3);
        assert_eq!(rm.queue_usage("q"), (6, 300));
        rm.release(held[0].id).unwrap();
        assert_eq!(rm.queue_usage("q"), (4, 200));
        assert!(rm.release(held[0].id).is_err(), "released twice");
    }
}
