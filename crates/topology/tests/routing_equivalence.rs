//! Equivalence of the flat bucket-queue routing core against the
//! heap-based reference implementation (`routing::oracle`), plus the
//! valley-free property, on randomly generated topologies.
//!
//! The flat implementation claims *bit-identical* tables — same
//! (class, path length, next hop) per AS — for every destination. The
//! proptests here throw random multigraph-free topologies at both
//! implementations and compare entry for entry; a second deterministic
//! test does the same over the full generator at `small` scale. These
//! run in the default `cargo test` tier (CI's tier-1 gate).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shortcuts_geo::CountryCode;
use shortcuts_topology::routing::{self, oracle, RouteClass};
use shortcuts_topology::{AsInfo, AsType, Asn, Topology, TopologyConfig};

/// Builds a random topology: `n` ASes with cycling types and `links`
/// random relationships (2:1 transit to peering), derived entirely
/// from `seed`.
///
/// With `clean` set, each AS pair gets at most one relationship — the
/// well-formed shape real AS graphs (and the generator) have, and the
/// one on which "a hop has exactly one type" holds, as the valley-free
/// checker requires. Without it, pairs may carry conflicting
/// relationships (mutual transit, transit over peering) — still a
/// legal input whose tables must match the oracle, exercising the
/// degenerate shapes dirty real-world relationship data produces.
fn random_topology(n: usize, links: usize, seed: u64, clean: bool) -> Topology {
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
            // Non-contiguous ASNs so NodeId and ASN never coincide.
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
    let mut linked = std::collections::HashSet::new();
    for _ in 0..links {
        let a = Asn(100 + 7 * rng.gen_range(0..n) as u32);
        let c = Asn(100 + 7 * rng.gen_range(0..n) as u32);
        if clean && !linked.insert((a.min(c), a.max(c))) {
            continue;
        }
        match rng.gen_range(0..3u8) {
            0 => b.add_transit(a, c),
            1 => b.add_transit(c, a),
            _ => b.add_peering(a, c),
        }
    }
    b.build()
}

/// Asserts the flat table toward `dst` matches the oracle entry for
/// entry (and therefore in reachable count).
fn assert_tables_match(topo: &Topology, dst: Asn) {
    let flat = routing::compute_table(topo, dst);
    let reference = oracle::compute_table(topo, dst);
    assert_eq!(
        flat.reachable_count(),
        reference.len(),
        "reachable mismatch toward {dst}"
    );
    for info in topo.ases() {
        assert_eq!(
            flat.route(info.asn),
            reference.get(&info.asn),
            "entry mismatch for {} toward {dst}",
            info.asn
        );
    }
}

/// Asserts `path` climbs providers, crosses at most one peer link, and
/// then only descends customers.
fn assert_valley_free(topo: &Topology, path: &[Asn]) {
    let mut stage = 0u8; // 0 = up, 1 = peer, 2 = down
    for w in path.windows(2) {
        let adj = topo.adjacency(w[0]);
        let step = if adj.providers.contains(&w[1]) {
            0
        } else if adj.peers.contains(&w[1]) {
            1
        } else if adj.customers.contains(&w[1]) {
            2
        } else {
            panic!("path {path:?} uses non-existent link {} -> {}", w[0], w[1]);
        };
        assert!(step >= stage, "valley in {path:?} at {} -> {}", w[0], w[1]);
        if step == 1 {
            assert!(stage < 1, "two peer hops in {path:?}");
        }
        stage = step;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Valley-free tables from the bucket-queue sweeps are
    /// entry-for-entry identical to the heap oracle.
    #[test]
    fn flat_valley_free_tables_match_heap_oracle(
        n in 2usize..48,
        links in 0usize..140,
        seed in 0u64..u64::MAX,
    ) {
        let topo = random_topology(n, links, seed, false);
        // Every AS as destination keeps the check exhaustive on the
        // small instances where disagreement is easiest to localize.
        for info in topo.ases() {
            assert_tables_match(&topo, info.asn);
        }
    }

    /// Shortest-path (ablation) tables match their oracle too.
    #[test]
    fn flat_shortest_tables_match_heap_oracle(
        n in 2usize..48,
        links in 0usize..140,
        seed in 0u64..u64::MAX,
    ) {
        let topo = random_topology(n, links, seed, false);
        for info in topo.ases() {
            let flat = routing::compute_table_shortest(&topo, info.asn);
            let reference = oracle::compute_table_shortest(&topo, info.asn);
            prop_assert_eq!(flat.reachable_count(), reference.len());
            for src in topo.ases() {
                prop_assert_eq!(flat.route(src.asn), reference.get(&src.asn));
            }
        }
    }

    /// Every reconstructed policy path is valley-free, and its length
    /// matches the table's path_len.
    #[test]
    fn sampled_paths_are_valley_free(
        n in 2usize..48,
        links in 0usize..140,
        seed in 0u64..u64::MAX,
    ) {
        let topo = random_topology(n, links, seed, true);
        for dst in topo.ases().iter().step_by(3) {
            let table = routing::compute_table(&topo, dst.asn);
            for src in topo.ases() {
                let Some(path) = table.as_path(src.asn) else { continue };
                assert_valley_free(&topo, &path);
                let entry = table.route(src.asn).expect("path implies entry");
                prop_assert_eq!(path.len() as u32 - 1, entry.path_len());
                // A customer-class route must start on a provider link
                // (the entry's class describes the first hop).
                if path.len() > 1 {
                    let adj = topo.adjacency(src.asn);
                    match entry.class() {
                        RouteClass::Customer => {
                            prop_assert!(adj.customers.contains(&entry.next_hop()))
                        }
                        RouteClass::Peer => prop_assert!(adj.peers.contains(&entry.next_hop())),
                        RouteClass::Provider => {
                            prop_assert!(adj.providers.contains(&entry.next_hop()))
                        }
                    }
                }
            }
        }
    }
}

/// The same equivalence over the real generator at `small` and paper
/// scale: the exact graph shapes (tier-1 clique, regional tier-2s, stub
/// fans) the campaign routes over.
#[test]
fn generated_topology_tables_match_oracle() {
    for (config, seed) in [
        (TopologyConfig::small(), 11u64),
        (TopologyConfig::small(), 404),
        (TopologyConfig::paper_scale(), 1),
    ] {
        let topo = Topology::generate(&config, seed);
        for &dst in topo.eyeball_asns().iter().step_by(11) {
            assert_tables_match(&topo, dst);
        }
        // Also a transit destination, whose table has a huge customer
        // cone, and an unknown destination (degenerate table).
        let tier1 = topo.asns_of_type(AsType::Tier1)[0];
        assert_tables_match(&topo, tier1);
        assert_tables_match(&topo, Asn(u32::MAX));
    }
}

/// Parallel warmup produces the same cached tables as on-demand
/// computation, destination for destination.
#[test]
fn precompute_matches_on_demand_on_generated_topology() {
    let topo = std::sync::Arc::new(Topology::generate(&TopologyConfig::small(), 77));
    let eyes: Vec<Asn> = topo.eyeball_asns().iter().step_by(7).copied().collect();
    let warm = routing::Router::new(std::sync::Arc::clone(&topo));
    warm.precompute(&eyes);
    assert_eq!(warm.cached_tables(), eyes.len());
    let cold = routing::Router::new(std::sync::Arc::clone(&topo));
    for &dst in &eyes {
        let a = warm.table(dst);
        let b = cold.table(dst);
        assert_eq!(a.reachable_count(), b.reachable_count(), "dst {dst}");
        for info in topo.ases() {
            assert_eq!(a.route(info.asn), b.route(info.asn), "dst {dst}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// A budget-starved router — room for only ~2 resident tables, so
    /// almost every access evicts and later re-derives — still serves
    /// entry-identical tables to the heap oracle under arbitrary
    /// destination interleavings. This is the routing half of the
    /// memory-budget contract: eviction bounds residency, never
    /// results.
    #[test]
    fn starved_router_serves_oracle_tables(
        n in 4usize..32,
        links in 4usize..100,
        seed in 0u64..u64::MAX,
        accesses in proptest::collection::vec(0usize..64, 1..48),
    ) {
        use shortcuts_topology::routing::{Router, RoutingPolicy};
        let topo = std::sync::Arc::new(random_topology(n, links, seed, false));
        let budget = 2 * routing::table_approx_bytes(topo.node_index().len());
        let router = Router::with_budget(
            std::sync::Arc::clone(&topo),
            RoutingPolicy::ValleyFree,
            Some(budget),
        );
        let asns: Vec<Asn> = topo.ases().iter().map(|a| a.asn).collect();
        let mut distinct = std::collections::BTreeSet::new();
        for &a in &accesses {
            let dst = asns[a % asns.len()];
            distinct.insert(dst);
            let table = router.table(dst);
            let reference = oracle::compute_table(&topo, dst);
            prop_assert_eq!(table.reachable_count(), reference.len());
            for src in topo.ases() {
                prop_assert_eq!(table.route(src.asn), reference.get(&src.asn));
            }
        }
        // With more distinct destinations than the budget holds, the
        // starved cache must actually have evicted — the equivalence
        // above covered the recompute path, not just warm hits.
        if distinct.len() > 2 {
            prop_assert!(router.stats().evictions > 0);
        }
    }
}
