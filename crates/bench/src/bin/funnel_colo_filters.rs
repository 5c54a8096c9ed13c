//! §2.2 funnel — the five-filter COR selection pipeline.
//!
//! Paper reference: 2675 → 1008 → 764 → 725 → 725 → 356 IP addresses,
//! ending at 58 facilities in 36 cities.

use rand::rngs::StdRng;
use rand::SeedableRng;
use shortcuts_bench::{build_world, print_header, seed_from_env};
use shortcuts_core::colo::{run_pipeline, ColoPipelineConfig};
use shortcuts_netsim::clock::SimTime;
use shortcuts_netsim::PingHandle;

fn main() {
    let world = build_world();
    print_header("§2.2 funnel: COR selection filters", &world, 0);

    let handle = PingHandle::new(world.shared().engine(Default::default()));
    let vantage = world.looking_glasses.lgs()[0].host;
    let mut rng = StdRng::seed_from_u64(seed_from_env());
    let pool = run_pipeline(
        &world,
        &handle,
        vantage,
        SimTime(0.0),
        &ColoPipelineConfig::default(),
        &mut rng,
    );

    let f = pool.funnel;
    let paper = [2675.0, 1008.0, 764.0, 725.0, 725.0, 356.0];
    let stages = [
        ("raw dataset", f.initial),
        ("1. single-facility & active PeeringDB", f.single_facility),
        ("2. pingability", f.pingable),
        ("3. same IP-ownership (no MOAS)", f.ownership),
        ("4. active facility presence", f.presence),
        ("5. RTT-based geolocation", f.geolocated),
    ];
    println!(
        "{:<42} {:>9} {:>10} {:>10}",
        "stage", "kept", "rate", "paper-rate"
    );
    let mut prev = f.initial as f64;
    let mut paper_prev = paper[0];
    for (i, (name, kept)) in stages.iter().enumerate() {
        let rate = if i == 0 { 1.0 } else { *kept as f64 / prev };
        let paper_rate = if i == 0 { 1.0 } else { paper[i] / paper_prev };
        println!(
            "{:<42} {:>9} {:>9.0}% {:>9.0}%",
            name,
            kept,
            100.0 * rate,
            100.0 * paper_rate
        );
        prev = *kept as f64;
        paper_prev = paper[i];
    }
    println!();
    println!(
        "surviving pool: {} IPs at {} facilities in {} cities (paper: 356 IPs, 58 facilities, 36 cities)",
        pool.relays.len(),
        pool.facility_count(),
        pool.city_count()
    );
}
