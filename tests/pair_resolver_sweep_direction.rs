//! The pair resolver's sweep direction, pinned with counters: sweeps
//! that overflow the router's budget run in **alternating direction**,
//! so the tables one leaves resident are the first the next one asks
//! for (and, under churn, brings current).
//!
//! The test sets `RAYON_NUM_THREADS` while it runs, so it lives alone
//! in this binary: `setenv` is not safe against the `getenv` every
//! other test's forks would make concurrently in a shared process.

mod resolver_stack;

use colo_shortcuts::topology::TopologyDelta;
use resolver_stack::{all_ordered_pairs, budgeted_stack};

#[test]
fn overflowing_sweeps_alternate_direction_and_meet_resident_tables() {
    // 24 ASes against six tables. Destination runs execute on the
    // worker pool, so the order tables are touched in is exact only up
    // to the worker count: six tables leave room for the last few runs
    // of a sweep to finish in any order and stay resident, and one
    // worker makes the order exact on any machine.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let (engine, hosts) = budgeted_stack(24, 6);
    let pairs = all_ordered_pairs(&hosts);
    let _ = engine.resolve_pairs(&pairs);
    assert_eq!(engine.engine_stats().full_rebuilds, 0);

    // The sweep ran ascending, so the tables toward the highest nodes
    // were touched last and are resident. Down the first provider
    // link of the highest one: every pair to or from it goes stale
    // *and* crosses the dirty link, so the batch re-expands them and
    // asks for all 24 tables again.
    let hosts_of = engine.hosts();
    let top = hosts
        .iter()
        .map(|&h| hosts_of.get(h))
        .max_by_key(|h| h.node)
        .expect("hosts");
    let provider = *engine
        .topology()
        .adjacency(top.asn)
        .providers
        .first()
        .expect("an eyeball AS has a provider");
    engine.apply_delta(&[TopologyDelta::LinkDown {
        a: top.asn,
        b: provider,
    }]);
    let _ = engine.resolve_pairs(&pairs);

    // Descending, the second sweep asks for those resident, now stale
    // tables first and brings them current. Ascending again it would
    // get to them last, long after the rebuilt tables before them had
    // pushed them out, and find nothing stale to rebuild.
    let stats = engine.engine_stats();
    assert!(stats.full_rebuilds >= 1, "{stats:?}");
}
