//! The budgeted engine stack the pair resolver's mechanism suites
//! share.

use colo_shortcuts::netsim::{HostId, HostRegistry, LatencyModel, PingEngine};
use colo_shortcuts::topology::routing::{table_approx_bytes, Router, RoutingPolicy};
use colo_shortcuts::topology::{Topology, TopologyConfig};
use std::sync::Arc;

/// One host in each of `n` eyeball ASes, on an engine whose router can
/// hold `tables` routing tables — far fewer than the batch needs.
pub fn budgeted_stack(n: usize, tables: u64) -> (PingEngine, Vec<HostId>) {
    let topo = Arc::new(Topology::generate(&TopologyConfig::small(), 31));
    let budget = tables * table_approx_bytes(topo.node_index().len());
    let router = Arc::new(Router::with_budget(
        Arc::clone(&topo),
        RoutingPolicy::ValleyFree,
        Some(budget),
    ));
    let mut hosts = HostRegistry::new();
    let ids: Vec<HostId> = topo
        .eyeball_asns()
        .iter()
        .take(n)
        .map(|&asn| hosts.add_host_in_as(&topo, asn, None).expect("host"))
        .collect();
    assert_eq!(ids.len(), n, "small topology has {n} eyeball ASes");
    let engine = PingEngine::new(topo, router, Arc::new(hosts), LatencyModel::default());
    (engine, ids)
}

pub fn all_ordered_pairs(hosts: &[HostId]) -> Vec<(HostId, HostId)> {
    let mut pairs = Vec::new();
    for &s in hosts {
        for &d in hosts {
            if s != d {
                pairs.push((s, d));
            }
        }
    }
    pairs
}
