//! Criterion micro-benchmarks for the simulator's hot paths:
//! router-level path expansion, ping sampling, and the
//! median/statistics kernels the analyses lean on. Route computation
//! has its own `routing` bench (flat core vs. heap oracle).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use shortcuts_core::analysis::stats;
use shortcuts_core::measure::median;
use shortcuts_netsim::clock::SimTime;
use shortcuts_netsim::path::{expand_path, path_cost, ExpandConfig};
use shortcuts_netsim::{HostRegistry, LatencyModel, PingEngine};
use shortcuts_topology::routing::Router;
use shortcuts_topology::{Topology, TopologyConfig};

fn bench_expansion(c: &mut Criterion) {
    let topo = std::sync::Arc::new(Topology::generate(&TopologyConfig::paper_scale(), 1));
    let router = Router::new(std::sync::Arc::clone(&topo));
    let eyes = topo.eyeball_asns();
    // A representative long AS path.
    let (src, dst) = (eyes[0], eyes[eyes.len() / 2]);
    let as_path = router.as_path(src, dst).expect("routable");
    let src_city = topo.pop(topo.expect_as(src).pops[0]).city;
    let dst_city = topo.pop(topo.expect_as(dst).pops[0]).city;
    let cfg = ExpandConfig::default();
    c.bench_function("netsim/expand_path", |b| {
        b.iter(|| black_box(expand_path(&topo, &as_path, src_city, dst_city, &cfg)))
    });
    // The same walk without materializing the path: what the ping
    // engine pays per direction of a pair-cache miss.
    c.bench_function("netsim/path_cost", |b| {
        b.iter(|| black_box(path_cost(&topo, &as_path, src_city, dst_city, &cfg)))
    });
}

fn bench_ping(c: &mut Criterion) {
    let topo = std::sync::Arc::new(Topology::generate(&TopologyConfig::paper_scale(), 1));
    let router = std::sync::Arc::new(Router::new(std::sync::Arc::clone(&topo)));
    let mut hosts = HostRegistry::new();
    let eyes = topo.eyeball_asns();
    let mut ids = Vec::new();
    for &asn in eyes.iter().take(50) {
        if let Ok(id) = hosts.add_host_in_as(&topo, asn, None) {
            ids.push(id);
        }
    }
    let engine = PingEngine::new(
        std::sync::Arc::clone(&topo),
        router,
        std::sync::Arc::new(hosts),
        LatencyModel::default(),
    );
    // Warm the pair caches so the benchmark measures the steady state
    // the campaign actually runs in.
    let mut rng = StdRng::seed_from_u64(5);
    for (i, &a) in ids.iter().enumerate() {
        for &b in ids.iter().skip(i + 1) {
            let _ = engine.ping(a, b, SimTime(0.0), &mut rng);
        }
    }
    c.bench_function("netsim/ping_cached_pair", |b| {
        let mut i = 0;
        b.iter(|| {
            let a = ids[i % ids.len()];
            let d = ids[(i + 7) % ids.len()];
            i += 1;
            black_box(engine.ping(a, d, SimTime(i as f64), &mut rng))
        })
    });
}

fn bench_stats(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(9);
    use rand::Rng;
    let samples6: Vec<f64> = (0..6).map(|_| rng.gen_range(10.0..200.0)).collect();
    let samples10k: Vec<f64> = (0..10_000).map(|_| rng.gen_range(10.0..200.0)).collect();
    c.bench_function("stats/median_of_6", |b| {
        b.iter(|| black_box(median(&samples6)))
    });
    c.bench_function("stats/percentile_10k", |b| {
        b.iter(|| black_box(stats::percentile(&samples10k, 95.0)))
    });
    let xs: Vec<f64> = (0..=200).map(f64::from).collect();
    c.bench_function("stats/cdf_10k_at_200_points", |b| {
        b.iter(|| black_box(stats::cdf_at(&samples10k, &xs)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_expansion, bench_ping, bench_stats
}
criterion_main!(benches);
