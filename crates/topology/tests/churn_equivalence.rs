//! Stale routing tables, rebuilt ≡ full view recompute, under random
//! delta sequences on random multigraphs.
//!
//! After every applied batch, every destination table the router
//! serves — rebuilt in its slot under the current view, or rebuilt
//! after an eviction — must be entry-for-entry identical to a fresh
//! [`routing::compute_table_view`] sweep under the accumulated
//! [`DeltaView`] (which itself degenerates to the byte-identical base
//! `compute_table` when the view is empty). A budget-starved router
//! runs the same sequence to prove staleness composes with CLOCK
//! eviction, and a lagging router, read only after the last batch,
//! proves a table several epochs stale is rebuilt under the latest
//! view, not any in between.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shortcuts_geo::CountryCode;
use shortcuts_topology::routing::{self, table_approx_bytes, Router, RoutingPolicy};
use shortcuts_topology::{AsInfo, AsType, Asn, DeltaView, Topology, TopologyDelta};
use std::sync::Arc;

/// Builds a random topology: `n` ASes with cycling types and `links`
/// random relationships (2:1 transit to peering), derived entirely
/// from `seed` — same construction as the routing equivalence suite.
fn random_topology(n: usize, links: usize, seed: u64) -> Topology {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = Topology::builder();
    let types = [
        AsType::Tier1,
        AsType::Tier2,
        AsType::Eyeball,
        AsType::Content,
        AsType::Enterprise,
        AsType::Research,
    ];
    for i in 0..n {
        b.add_as(AsInfo {
            asn: Asn(100 + 7 * i as u32),
            as_type: types[i % types.len()],
            home_country: CountryCode::new("US").unwrap(),
            countries: vec![],
            pops: vec![],
            prefixes: vec![],
            user_share: 0.0,
            offers_cloud: false,
        });
    }
    for _ in 0..links {
        let a = Asn(100 + 7 * rng.gen_range(0..n) as u32);
        let c = Asn(100 + 7 * rng.gen_range(0..n) as u32);
        match rng.gen_range(0..3u8) {
            0 => b.add_transit(a, c),
            1 => b.add_transit(c, a),
            _ => b.add_peering(a, c),
        }
    }
    b.build()
}

/// All base links of `topo`, canonically ordered.
fn base_links(topo: &Topology) -> Vec<(Asn, Asn)> {
    let mut links = std::collections::BTreeSet::new();
    for info in topo.ases().iter() {
        let adj = topo.adjacency(info.asn);
        for &other in adj
            .providers
            .iter()
            .chain(adj.customers.iter())
            .chain(adj.peers.iter())
        {
            links.insert((info.asn.min(other), info.asn.max(other)));
        }
    }
    links.into_iter().collect()
}

/// A random delta sequence over the base graph: every batch mixes
/// link downs/ups and AS downs/ups, all naming base state (the only
/// kind validation admits).
fn random_batches(topo: &Topology, seed: u64, n_batches: usize) -> Vec<Vec<TopologyDelta>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_CAFE);
    let links = base_links(topo);
    let asns: Vec<Asn> = topo.ases().iter().map(|a| a.asn).collect();
    let mut batches = Vec::new();
    for _ in 0..n_batches {
        let mut batch = Vec::new();
        for _ in 0..rng.gen_range(1..=3usize) {
            let delta = match rng.gen_range(0..4u8) {
                kind @ (0 | 1) if !links.is_empty() => {
                    let (a, b) = links[rng.gen_range(0..links.len())];
                    if kind == 0 {
                        TopologyDelta::LinkDown { a, b }
                    } else {
                        TopologyDelta::LinkUp { a, b }
                    }
                }
                2 => TopologyDelta::AsDown {
                    asn: asns[rng.gen_range(0..asns.len())],
                },
                _ => TopologyDelta::AsUp {
                    asn: asns[rng.gen_range(0..asns.len())],
                },
            };
            batch.push(delta);
        }
        batches.push(batch);
    }
    batches
}

/// Asserts the router's table toward `dst` is entry-for-entry (and
/// path-for-path) identical to a fresh full sweep under `view`.
fn assert_matches_view(topo: &Topology, router: &Router, view: &DeltaView, dst: Asn, ctx: &str) {
    let got = router.table(dst);
    let want = routing::compute_table_view(topo, view, dst);
    assert_eq!(
        got.reachable_count(),
        want.reachable_count(),
        "{ctx}: reachable toward {dst}"
    );
    for info in topo.ases().iter() {
        assert_eq!(
            got.route(info.asn),
            want.route(info.asn),
            "{ctx}: entry {} toward {dst}",
            info.asn
        );
        assert_eq!(
            got.as_path(info.asn),
            want.as_path(info.asn),
            "{ctx}: path {} toward {dst}",
            info.asn
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The core staleness contract: any delta sequence, any
    /// destination, brought current ≡ recomputed — with and without a
    /// starving byte budget, and across one epoch or several.
    #[test]
    fn repaired_tables_match_full_recompute(
        n in 2usize..40,
        links in 0usize..120,
        seed in 0u64..u64::MAX,
        n_batches in 1usize..5,
    ) {
        let topo = Arc::new(random_topology(n, links, seed));
        let batches = random_batches(&topo, seed, n_batches);
        let dsts: Vec<Asn> = topo.ases().iter().map(|a| a.asn).step_by(1.max(n / 5)).collect();

        let router = Router::new(Arc::clone(&topo));
        let starved = Router::with_budget(
            Arc::clone(&topo),
            RoutingPolicy::ValleyFree,
            Some(2 * table_approx_bytes(n)),
        );
        let lagging = Router::new(Arc::clone(&topo));
        // Warm every destination so the batches hit *resident* tables
        // (the stale-rebuild path), not cold misses.
        router.precompute(&dsts);
        lagging.precompute(&dsts);

        let mut view = DeltaView::empty();
        for (i, batch) in batches.iter().enumerate() {
            view.apply(&topo, batch);
            router.apply_delta(batch);
            starved.apply_delta(batch);
            lagging.apply_delta(batch);
            for &dst in &dsts {
                assert_matches_view(&topo, &router, &view, dst, &format!("batch {i}"));
                assert_matches_view(&topo, &starved, &view, dst, &format!("batch {i} starved"));
            }
        }
        // Stale by every batch at once.
        for &dst in &dsts {
            assert_matches_view(&topo, &lagging, &view, dst, "after the last batch, lagging");
        }
    }

    /// The ablation policy rebuilds the same way: its stale tables must
    /// come back exactly equal to the view sweep.
    #[test]
    fn shortest_path_tables_rebuild_under_churn(
        n in 2usize..24,
        links in 0usize..60,
        seed in 0u64..u64::MAX,
    ) {
        let topo = Arc::new(random_topology(n, links, seed));
        let batches = random_batches(&topo, seed, 2);
        let router = Router::with_policy(Arc::clone(&topo), RoutingPolicy::ShortestPath);
        let dst = Asn(100);
        router.table(dst);
        let mut view = DeltaView::empty();
        for batch in &batches {
            view.apply(&topo, batch);
            router.apply_delta(batch);
            let got = router.table(dst);
            let want = routing::compute_table_shortest_view(&topo, &view, dst);
            for info in topo.ases().iter() {
                prop_assert_eq!(got.route(info.asn), want.route(info.asn), "{}", info.asn);
            }
        }
    }
}

/// A chain 100 ← 107 ← 114 plus an isolated island 121 ← 128, with
/// every chain table warm.
fn chain_and_island() -> (Arc<Topology>, Router) {
    let mut b = Topology::builder();
    for (i, t) in [
        AsType::Tier1,
        AsType::Tier2,
        AsType::Eyeball,
        AsType::Tier2,
        AsType::Eyeball,
    ]
    .iter()
    .enumerate()
    {
        b.add_as(AsInfo {
            asn: Asn(100 + 7 * i as u32),
            as_type: *t,
            home_country: CountryCode::new("US").unwrap(),
            countries: vec![],
            pops: vec![],
            prefixes: vec![],
            user_share: 0.0,
            offers_cloud: false,
        });
    }
    b.add_transit(Asn(107), Asn(100));
    b.add_transit(Asn(114), Asn(107));
    b.add_transit(Asn(128), Asn(121));
    let topo = Arc::new(b.build());
    let router = Router::new(Arc::clone(&topo));
    router.precompute(&CHAIN.map(Asn));
    (topo, router)
}

const CHAIN: [u32; 3] = [100, 107, 114];

fn link_down(a: u32, b: u32) -> TopologyDelta {
    TopologyDelta::LinkDown {
        a: Asn(a),
        b: Asn(b),
    }
}

fn link_up(a: u32, b: u32) -> TopologyDelta {
    TopologyDelta::LinkUp {
        a: Asn(a),
        b: Asn(b),
    }
}

fn assert_chain_matches_view(topo: &Topology, router: &Router, ctx: &str) {
    let view = router.current_view();
    for dst in CHAIN {
        assert_matches_view(topo, router, &view, Asn(dst), ctx);
    }
}

#[test]
fn every_stale_table_is_rebuilt_once_then_served_as_a_hit() {
    let (topo, router) = chain_and_island();

    // The island link cannot touch any chain table, but a stale stamp
    // is all the router looks at: each chain table is rebuilt once.
    router.apply_delta(&[link_down(121, 128)]);
    assert_chain_matches_view(&topo, &router, "island down");
    assert_eq!(router.stats().full_rebuilds, 3);

    // Three epochs pass unread, a chain link flapping down and back
    // up among them: each table, three epochs stale, is rebuilt once
    // under the latest view.
    router.apply_delta(&[link_down(100, 107)]);
    router.apply_delta(&[link_up(107, 100)]);
    router.apply_delta(&[TopologyDelta::AsDown { asn: Asn(114) }]);
    let before = router.stats();
    assert_chain_matches_view(&topo, &router, "three epochs stale");
    let after = router.stats();
    assert_eq!(after.full_rebuilds, 6, "{after:?}");
    assert_eq!(after.hits, before.hits, "{after:?}");

    // Current again: every further read is a hit.
    assert_chain_matches_view(&topo, &router, "current");
    let again = router.stats();
    assert_eq!(again.full_rebuilds, 6, "{again:?}");
    assert_eq!(again.hits, after.hits + 3, "{again:?}");
    assert_eq!(again.misses, after.misses, "{again:?}");
    for dst in CHAIN {
        assert_eq!(router.table(Asn(dst)).epoch(), router.epoch());
    }
}

#[test]
fn evicted_stale_table_rebuilds_fresh_under_current_view() {
    let topo = Arc::new(random_topology(12, 30, 9));
    // Room for a single table: every second lookup evicts the first.
    let router = Router::with_budget(
        Arc::clone(&topo),
        RoutingPolicy::ValleyFree,
        Some(table_approx_bytes(12) + 8),
    );
    let (a, b) = base_links(&topo)[0];
    let dsts: Vec<Asn> = topo.ases().iter().map(|x| x.asn).take(4).collect();
    for &d in &dsts {
        router.table(d);
    }
    router.apply_delta(&[TopologyDelta::LinkDown { a, b }]);
    let view = router.current_view();
    for &d in &dsts {
        assert_matches_view(&topo, &router, &view, d, "budget 1 table");
    }
    assert!(router.stats().evictions > 0);
}
