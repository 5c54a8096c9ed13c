//! Extension — are two relays better than one?
//!
//! The paper restricts itself to one-relay paths, citing Han et al. and
//! Le et al. that N ≥ 2 relays add little over N = 1. With a simulator
//! we can check that claim directly: for one measurement round, compare
//! each pair's best 1-relay COR path against its best 2-relay COR path
//! (relay pair drawn from the top relays to keep the measurement budget
//! sane — exactly how a real follow-up study would do it).

use rand::rngs::StdRng;
use rand::SeedableRng;
use shortcuts_bench::{build_world, print_header, seed_from_env};
use shortcuts_core::colo::{run_pipeline, ColoPipelineConfig};
use shortcuts_core::eyeball::{select_eyeballs, EndpointPool};
use shortcuts_core::feasibility::is_feasible;
use shortcuts_core::measure::{measure_pair, WindowConfig};
use shortcuts_netsim::clock::SimTime;
use shortcuts_netsim::{HostId, PingHandle};
use std::collections::HashMap;

fn main() {
    let world = build_world();
    print_header("Extension: one relay vs two relays (COR)", &world, 1);

    let handle = PingHandle::new(world.shared().engine(Default::default()));
    let mut rng = StdRng::seed_from_u64(seed_from_env());
    let vantage = world.looking_glasses.lgs()[0].host;
    let colo = run_pipeline(
        &world,
        &handle,
        vantage,
        SimTime(0.0),
        &ColoPipelineConfig::default(),
        &mut rng,
    );
    let verified = select_eyeballs(&world, 10.0).verified;
    let pool = EndpointPool::build(&world, &verified);
    let raes = pool.sample_round(&mut rng);
    let window = WindowConfig::default();

    // Candidate relays: one per facility (the heavy-hitter facilities
    // dominate anyway), capped for the O(k^2) relay-relay legs.
    let mut seen_fac = std::collections::HashSet::new();
    let relays: Vec<_> = colo
        .relays
        .iter()
        .filter(|r| seen_fac.insert(r.facility))
        .take(30)
        .collect();
    println!(
        "endpoints: {}, candidate relays: {}\n",
        raes.len(),
        relays.len()
    );

    // Measure relay-relay legs once.
    let mut rr: HashMap<(HostId, HostId), f64> = HashMap::new();
    for (i, a) in relays.iter().enumerate() {
        for b in relays.iter().skip(i + 1) {
            if let Some(m) = measure_pair(&handle, a.host, b.host, SimTime(0.0), &window, &mut rng)
            {
                rr.insert((a.host, b.host), m);
                rr.insert((b.host, a.host), m);
            }
        }
    }

    let mut one_wins = 0usize;
    let mut two_wins_small = 0usize; // 2-relay better by <= 2 ms
    let mut two_wins_big = 0usize; // 2-relay better by > 2 ms
    let mut neither = 0usize;
    let mut total = 0usize;
    let mut extra_gain = Vec::new();

    // Sample endpoint pairs (full cross product is unnecessary here).
    for i in (0..raes.len()).step_by(3) {
        for j in ((i + 1)..raes.len()).step_by(3) {
            let (e1, e2) = (raes[i].host, raes[j].host);
            let Some(direct) = measure_pair(&handle, e1, e2, SimTime(0.0), &window, &mut rng)
            else {
                continue;
            };
            let (l1, l2) = (world.hosts.get(e1).location, world.hosts.get(e2).location);
            // Endpoint->relay legs for feasible relays.
            let mut legs: HashMap<HostId, (Option<f64>, Option<f64>)> = HashMap::new();
            for r in &relays {
                if !is_feasible(&l1, &l2, &world.hosts.get(r.host).location, direct) {
                    continue;
                }
                let a = measure_pair(&handle, e1, r.host, SimTime(0.0), &window, &mut rng);
                let b = measure_pair(&handle, e2, r.host, SimTime(0.0), &window, &mut rng);
                legs.insert(r.host, (a, b));
            }
            let best1 = legs
                .values()
                .filter_map(|(a, b)| Some(a.as_ref()? + b.as_ref()?))
                .fold(f64::INFINITY, f64::min);
            // Best 2-relay path: e1 -> r1 -> r2 -> e2.
            let mut best2 = f64::INFINITY;
            for (&r1, (a1, _)) in &legs {
                let Some(a1) = a1 else { continue };
                for (&r2, (_, b2)) in &legs {
                    if r1 == r2 {
                        continue;
                    }
                    let (Some(mid), Some(b2)) = (rr.get(&(r1, r2)), b2) else {
                        continue;
                    };
                    best2 = best2.min(a1 + mid + b2);
                }
            }
            total += 1;
            if !best1.is_finite() && !best2.is_finite() {
                neither += 1;
            } else if best2 < best1 - 2.0 {
                two_wins_big += 1;
                extra_gain.push(best1 - best2);
            } else if best2 < best1 {
                two_wins_small += 1;
            } else {
                one_wins += 1;
            }
        }
    }

    println!("pairs compared: {total}");
    println!(
        "one relay at least as good:    {:>5.1}%",
        100.0 * one_wins as f64 / total as f64
    );
    println!(
        "two relays better by <= 2 ms:  {:>5.1}%",
        100.0 * two_wins_small as f64 / total as f64
    );
    println!(
        "two relays better by  > 2 ms:  {:>5.1}%",
        100.0 * two_wins_big as f64 / total as f64
    );
    println!(
        "no relayed path at all:        {:>5.1}%",
        100.0 * neither as f64 / total as f64
    );
    if !extra_gain.is_empty() {
        extra_gain.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        println!(
            "median extra gain when 2 relays win big: {:.1} ms",
            extra_gain[extra_gain.len() / 2]
        );
    }
    println!("\nExpected (and what Han et al. argue): the second relay almost never");
    println!("pays for its extra hop — one-relay paths capture nearly all TIV gains.");
}
