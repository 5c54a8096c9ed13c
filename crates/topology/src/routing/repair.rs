//! Bringing stale routing tables up to date under topology deltas.
//!
//! A [`super::RoutingTable`] stamped with an older churn epoch has two
//! outcomes when it is next read: it is **re-stamped** if the deltas
//! since its epoch provably leave it unchanged ([`untouched`]), and
//! otherwise **rebuilt** once under the current view by
//! [`compute_table_view`] (or [`compute_table_shortest_view`] for the
//! ablation policy). Every table therefore stays a pure function of
//! `(topology, policy, view, destination)`.
//!
//! The proof is the relevance lemma over the *cumulative* diff between
//! the table's view and the target view. Under pure deletions the offer
//! set of every node only shrinks, so an entry can change only if the
//! path it stores crosses removed state: a removed link `u — v` matters
//! only if `next_node[u] == v` or `next_node[v] == u`, and a downed node
//! only if it held a route. When no stored next-hop chain crosses
//! removed state, every stored offer survives unchanged and every other
//! offer only worsened, so each stored minimum — length, class and the
//! lowest-next-hop-ASN tie-break alike — is still the minimum. That
//! holds for valley-free and shortest-path tables alike. Restorations
//! (a masked link allowed again, a downed node back up) can improve
//! arbitrarily distant entries, so any restoration across the span
//! rebuilds.
//!
//! The view sweeps are the base sweeps with a [`DeltaView::allows`]
//! check on every edge; the view answers edges no delta names from a
//! dense per-node flag, so a rebuild costs about as much as a base
//! sweep.

use super::{compute_table, compute_table_shortest, sweep, sweep_shortest, RoutingTable};
use crate::delta::DeltaView;
use crate::graph::Topology;
use crate::ids::{Asn, NodeId};

/// Full valley-free sweep toward `dst` restricted to the links `view`
/// allows. An empty view is the base topology and delegates to
/// [`compute_table`] so the churn-free path stays byte-identical. A
/// downed destination keeps its own zero-length entry but offers
/// nothing, so everyone else ends unreached.
pub fn compute_table_view(topo: &Topology, view: &DeltaView, dst: Asn) -> RoutingTable {
    if view.is_empty() {
        return compute_table(topo, dst);
    }
    sweep(topo, dst, |u, v| view.allows(u, v))
}

/// View-restricted shortest-path sweep (the ablation policy).
pub fn compute_table_shortest_view(topo: &Topology, view: &DeltaView, dst: Asn) -> RoutingTable {
    if view.is_empty() {
        return compute_table_shortest(topo, dst);
    }
    sweep_shortest(topo, dst, |u, v| view.allows(u, v))
}

/// Whether `old`, computed under `old_view`, is provably identical to
/// a fresh sweep under `new_view` — the caller then only moves the
/// epoch stamp. `false` means rebuild: something was restored across
/// the span, or a net-removed link carries a stored next hop, or a
/// net-downed node holds a route.
pub fn untouched(old_view: &DeltaView, new_view: &DeltaView, old: &RoutingTable) -> bool {
    if old_view == new_view {
        return true;
    }
    let restored = old_view.masked_links().any(|(u, v)| new_view.allows(u, v))
        || old_view.down_nodes().any(|w| new_view.node_up(w));
    if restored {
        return false;
    }
    let routed = |x: NodeId| !old.entries[x.index()].is_unreached();
    let carries = |u: NodeId, v: NodeId| {
        (routed(u) && old.next_node[u.index()] == v) || (routed(v) && old.next_node[v.index()] == u)
    };
    let link_removed = new_view
        .masked_links()
        .any(|(u, v)| old_view.allows(u, v) && carries(u, v));
    let node_removed = new_view
        .down_nodes()
        .any(|w| old_view.node_up(w) && routed(w));
    !link_removed && !node_removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asys::{AsInfo, AsType};
    use crate::delta::TopologyDelta;
    use crate::graph::TopologyBuilder;
    use shortcuts_geo::CountryCode;

    fn mk_as(b: &mut TopologyBuilder, asn: u32, t: AsType) {
        b.add_as(AsInfo {
            asn: Asn(asn),
            as_type: t,
            home_country: CountryCode::new("US").unwrap(),
            countries: vec![],
            pops: vec![],
            prefixes: vec![],
            user_share: 0.0,
            offers_cloud: false,
        });
    }

    /// The routing tests' classic valley topology: tier-1s 1,2 peered;
    /// tier-2s 3,4 peered; stubs 5,6; transit 3→1, 4→2, 5→3, 6→4.
    fn valley_topology() -> Topology {
        let mut b = Topology::builder();
        mk_as(&mut b, 1, AsType::Tier1);
        mk_as(&mut b, 2, AsType::Tier1);
        mk_as(&mut b, 3, AsType::Tier2);
        mk_as(&mut b, 4, AsType::Tier2);
        mk_as(&mut b, 5, AsType::Eyeball);
        mk_as(&mut b, 6, AsType::Eyeball);
        b.add_transit(Asn(3), Asn(1));
        b.add_transit(Asn(4), Asn(2));
        b.add_transit(Asn(5), Asn(3));
        b.add_transit(Asn(6), Asn(4));
        b.add_peering(Asn(1), Asn(2));
        b.add_peering(Asn(3), Asn(4));
        b.build()
    }

    fn assert_tables_equal(a: &RoutingTable, b: &RoutingTable, ctx: &str) {
        assert_eq!(a.destination, b.destination, "{ctx}");
        assert_eq!(a.reachable_count(), b.reachable_count(), "{ctx}");
        for i in 0..a.entries.len() {
            let node = NodeId(i as u32);
            assert_eq!(a.route_at(node), b.route_at(node), "{ctx}: node {i}");
            assert_eq!(
                a.as_path_from(node),
                b.as_path_from(node),
                "{ctx}: node {i}"
            );
        }
    }

    #[test]
    fn untouched_tables_match_the_view_oracle() {
        let topo = valley_topology();
        let base = DeltaView::empty();
        let batch = [TopologyDelta::LinkDown {
            a: Asn(3),
            b: Asn(4),
        }];
        let view = base.applied(&topo, &batch);
        let mut touched = 0;
        for dst in [1u32, 2, 3, 4, 5, 6] {
            let old = compute_table(&topo, Asn(dst));
            if untouched(&base, &view, &old) {
                let oracle = compute_table_view(&topo, &view, Asn(dst));
                assert_tables_equal(&old, &oracle, &format!("dst {dst} (untouched)"));
            } else {
                touched += 1;
            }
        }
        // Stub 5 reaches stub 6 over the 3—4 peering.
        assert!(touched > 0);
    }

    #[test]
    fn irrelevant_link_is_an_o1_no_op() {
        let topo = valley_topology();
        let base = DeltaView::empty();
        // The 3→1 transit never carries a best path toward stub 6:
        // 3 prefers its peer 4, and 1 its peer 2.
        let view = base.applied(
            &topo,
            &[TopologyDelta::LinkDown {
                a: Asn(3),
                b: Asn(1),
            }],
        );
        let old = compute_table(&topo, Asn(6));
        assert!(untouched(&base, &view, &old));
        assert_tables_equal(&old, &compute_table_view(&topo, &view, Asn(6)), "3—1 down");
    }

    #[test]
    fn destination_down_leaves_only_its_self_entry() {
        let topo = valley_topology();
        let base = DeltaView::empty();
        let view = base.applied(&topo, &[TopologyDelta::AsDown { asn: Asn(6) }]);
        let old = compute_table(&topo, Asn(6));
        assert!(!untouched(&base, &view, &old));
        let oracle = compute_table_view(&topo, &view, Asn(6));
        assert_eq!(oracle.reachable_count(), 1);
        assert!(oracle.route(Asn(6)).is_some());
    }

    #[test]
    fn restoration_batches_rebuild_fresh() {
        let topo = valley_topology();
        let link = (Asn(3), Asn(4));
        let view1 = DeltaView::empty().applied(
            &topo,
            &[TopologyDelta::LinkDown {
                a: link.0,
                b: link.1,
            }],
        );
        let view2 = view1.applied(
            &topo,
            &[TopologyDelta::LinkUp {
                a: link.0,
                b: link.1,
            }],
        );
        let old = compute_table_view(&topo, &view1, Asn(6));
        assert!(!untouched(&view1, &view2, &old));
        // Fully restored view ≡ the base table.
        assert_tables_equal(
            &compute_table_view(&topo, &view2, Asn(6)),
            &compute_table(&topo, Asn(6)),
            "restored",
        );
    }
}
