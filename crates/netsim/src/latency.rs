//! The RTT model: kilometers and hops in, milliseconds out.
//!
//! An observed ping RTT is modeled as
//!
//! ```text
//! rtt = base * (1 + diurnal(t)) + jitter [+ spike]
//! base = 2 * km * circuity / fiber_speed  +  router_hops * per_hop_ms
//! ```
//!
//! - `circuity` accounts for fiber not following great circles (typical
//!   measured values are 1.2–1.5; default 1.25).
//! - `per_hop_ms` charges router forwarding/queueing per hop, round trip.
//! - `diurnal(t)` is a smooth load curve peaking at ~20:00 local time of
//!   the path midpoint.
//! - `jitter` is lognormal (small median, long tail).
//! - `spike` is a rare, large addition (tens to hundreds of ms) modeling
//!   the heavy outliers that forced the paper to use medians (§2.5,
//!   footnote 4).

use crate::clock::SimTime;
use crate::path::{ExpandConfig, PathCost};
use rand::Rng;
use shortcuts_geo::FIBER_KM_PER_MS;

/// All knobs of the latency model.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    /// Fiber-route circuity multiplier over great-circle distance.
    pub circuity: f64,
    /// Round-trip processing/queueing per router hop, ms.
    pub per_hop_ms: f64,
    /// Median of the additive lognormal jitter, ms.
    pub jitter_median_ms: f64,
    /// Sigma (log-space) of the jitter distribution.
    pub jitter_sigma: f64,
    /// Probability that a ping hits a heavy spike.
    pub spike_prob: f64,
    /// Range of spike magnitudes, ms.
    pub spike_range_ms: (f64, f64),
    /// Relative amplitude of the diurnal load effect on base RTT.
    pub diurnal_amplitude: f64,
    /// Baseline per-ping loss probability.
    pub loss_prob: f64,
    /// Router-level expansion configuration.
    pub expand: ExpandConfig,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            circuity: 1.25,
            per_hop_ms: 0.1,
            jitter_median_ms: 0.2,
            jitter_sigma: 0.8,
            spike_prob: 0.012,
            spike_range_ms: (30.0, 400.0),
            diurnal_amplitude: 0.06,
            loss_prob: 0.01,
            expand: ExpandConfig::default(),
        }
    }
}

impl LatencyModel {
    /// Deterministic base RTT of an expanded path, in ms, assuming the
    /// reply retraces the same route.
    #[inline]
    pub fn base_rtt_ms(&self, path: PathCost) -> f64 {
        let prop_one_way = path.km * self.circuity / FIBER_KM_PER_MS;
        2.0 * prop_one_way + f64::from(path.router_hops) * self.per_hop_ms
    }

    /// Deterministic base RTT when the forward and return routes differ
    /// (the common case under policy routing): one-way propagation along
    /// each direction's expanded path, plus the per-hop charge averaged
    /// over the two directions. Symmetric by construction:
    /// `base_rtt_two_way(f, r) == base_rtt_two_way(r, f)`.
    #[inline]
    pub fn base_rtt_two_way(&self, fwd: PathCost, rev: PathCost) -> f64 {
        let prop = (fwd.km + rev.km) * self.circuity / FIBER_KM_PER_MS;
        let hops = f64::from(fwd.router_hops + rev.router_hops) / 2.0;
        prop + hops * self.per_hop_ms
    }

    /// Diurnal load factor in `[0, 1]`, peaking at 20:00 local time.
    #[inline]
    pub fn diurnal_load(&self, t: SimTime, mid_longitude: f64) -> f64 {
        let h = t.local_hour(mid_longitude);
        0.5 * (1.0 + (std::f64::consts::TAU * (h - 14.0) / 24.0).sin())
    }

    /// Samples one observed ping RTT, or `None` on packet loss.
    ///
    /// `mid_longitude` locates the path for the diurnal term (use the
    /// average of the endpoint longitudes).
    ///
    /// The draws it makes depend only on the draws themselves, never
    /// on `base_ms`, `t` or `mid_longitude`: the geolocation sampler
    /// ([`crate::traceroute`]) relies on it to skip the hop geometry of
    /// a traceroute's intermediate hops.
    ///
    /// `#[inline]`: this is the innermost call of every measurement
    /// window; letting it inline into the batched sampling loop keeps
    /// the per-ping cost at the arithmetic itself.
    #[inline]
    pub fn sample_rtt<R: Rng + ?Sized>(
        &self,
        base_ms: f64,
        t: SimTime,
        mid_longitude: f64,
        rng: &mut R,
    ) -> Option<f64> {
        if rng.gen_bool(self.loss_prob) {
            return None;
        }
        let load = self.diurnal_load(t, mid_longitude);
        let mut rtt = base_ms * (1.0 + self.diurnal_amplitude * load);
        // Lognormal jitter with the configured median.
        let z: f64 = sample_standard_normal(rng);
        rtt += self.jitter_median_ms * (self.jitter_sigma * z).exp();
        if rng.gen_bool(self.spike_prob) {
            rtt += rng.gen_range(self.spike_range_ms.0..self.spike_range_ms.1);
        }
        Some(rtt)
    }
}

/// Standard normal via Box–Muller (avoids pulling in rand_distr; `rand`
/// alone has no normal distribution).
#[inline]
fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        if z.is_finite() {
            return z;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn fake_path(km: f64, router_hops: u32) -> PathCost {
        PathCost { km, router_hops }
    }

    #[test]
    fn base_rtt_scales_with_distance_and_hops() {
        let m = LatencyModel::default();
        let short = m.base_rtt_ms(fake_path(100.0, 3));
        let long = m.base_rtt_ms(fake_path(5000.0, 3));
        let hoppy = m.base_rtt_ms(fake_path(100.0, 12));
        assert!(long > short);
        assert!(hoppy > short);
        // 5000 km at 1.25 circuity -> 2*6250/199.86 = ~62.5 ms + hops.
        assert!((long - (2.0 * 6250.0 / FIBER_KM_PER_MS + 3.0 * m.per_hop_ms)).abs() < 1e-9);
    }

    #[test]
    fn diurnal_peaks_in_evening() {
        let m = LatencyModel::default();
        // 20:00 UTC at longitude 0.
        let evening = m.diurnal_load(SimTime(20.0 * 3600.0), 0.0);
        let morning = m.diurnal_load(SimTime(8.0 * 3600.0), 0.0);
        assert!(evening > 0.95, "evening load ~1, got {evening}");
        assert!(morning < 0.1, "morning load ~0, got {morning}");
    }

    #[test]
    fn sample_rtt_is_noisy_but_anchored() {
        let m = LatencyModel::default();
        let base = 50.0;
        let mut rng = StdRng::seed_from_u64(11);
        // The diurnal trough (08:00 local, load 0) first: there nothing
        // but jitter and spikes sits between a reply and its base.
        let trough = SimTime(8.0 * 3600.0);
        assert!(m.diurnal_load(trough, 0.0) < 1e-12);
        let mut points = vec![(trough, 0.0)];
        for hour in [0.0, 5.5, 14.0, 20.0] {
            for lon in [-122.4, 0.0, 77.2, 139.7] {
                points.push((SimTime(hour * 3600.0), lon));
            }
        }
        for (t, lon) in points {
            // Jitter, spikes and the diurnal term only ever add.
            let floor = base * (1.0 + m.diurnal_amplitude * m.diurnal_load(t, lon));
            let mut samples = Vec::new();
            for _ in 0..2000 {
                if let Some(r) = m.sample_rtt(base, t, lon, &mut rng) {
                    samples.push(r);
                }
            }
            assert!(samples.len() > 1900, "loss should be ~1%");
            let low = samples.iter().copied().fold(f64::INFINITY, f64::min);
            assert!(
                low >= floor,
                "reply {low} under {floor} at {t:?}, lon {lon}"
            );
            // Median close to the floor (within a few ms).
            samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let median = samples[samples.len() / 2];
            assert!(median < floor + 5.0, "median {median} at {t:?}, lon {lon}");
            // Some spikes appear in 2000 samples at 1.2% spike prob.
            assert!(samples.iter().any(|&r| r > floor + 25.0));
        }
    }

    /// `sample_rtt` consumes the same draws whatever base, time and
    /// longitude it is given. The §2.2 funnel relies on this: its
    /// last-hop sampler feeds a traceroute's intermediate hops a dummy
    /// base instead of expanding the router-level path, and stays
    /// draw-for-draw equal to the full traceroute only while this
    /// holds. Any noise mechanism added to the model (ROADMAP item 23's
    /// responder delay and per-round congestion) must keep it.
    #[test]
    fn sample_rtt_draws_do_not_depend_on_base_time_or_longitude() {
        // Loss and spikes both fire often, so every branch is taken.
        let m = LatencyModel {
            loss_prob: 0.3,
            spike_prob: 0.3,
            ..LatencyModel::default()
        };
        let run = |base: f64, t: SimTime, lon: f64| {
            let mut rng = StdRng::seed_from_u64(29);
            let replied: Vec<bool> = (0..200)
                .map(|_| m.sample_rtt(base, t, lon, &mut rng).is_some())
                .collect();
            (replied, rng.next_u64())
        };
        let want = run(0.0, SimTime(0.0), 0.0);
        assert!(want.0.contains(&false) && want.0.contains(&true));
        for base in [0.0, 0.3, 50.0, 400.0] {
            for secs in [0.0, 8.0 * 3600.0, 77_777.7, 3.9e6] {
                for lon in [-179.9, -122.4, 0.0, 77.2, 139.7, 180.0] {
                    let got = run(base, SimTime(secs), lon);
                    assert_eq!(got, want, "base {base}, t {secs}, lon {lon}");
                }
            }
        }
    }

    #[test]
    fn loss_rate_matches_config() {
        let m = LatencyModel {
            loss_prob: 0.5,
            ..LatencyModel::default()
        };
        let mut rng = StdRng::seed_from_u64(5);
        let lost = (0..2000)
            .filter(|_| m.sample_rtt(10.0, SimTime(0.0), 0.0, &mut rng).is_none())
            .count();
        assert!((800..1200).contains(&lost), "lost {lost} of 2000");
    }

    #[test]
    fn zero_noise_model_is_deterministic() {
        let m = LatencyModel {
            jitter_median_ms: 0.0,
            spike_prob: 0.0,
            diurnal_amplitude: 0.0,
            loss_prob: 0.0,
            ..LatencyModel::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let a = m.sample_rtt(42.0, SimTime(0.0), 10.0, &mut rng).unwrap();
        let b = m.sample_rtt(42.0, SimTime(999.0), -50.0, &mut rng).unwrap();
        assert!((a - 42.0).abs() < 1e-12);
        assert!((b - 42.0).abs() < 1e-12);
    }

    #[test]
    fn normal_sampler_is_roughly_standard() {
        let mut rng = StdRng::seed_from_u64(123);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
