//! §2.4 — the speed-of-light relay feasibility filter.
//!
//! A relay `f` is worth measuring for an endpoint pair `(n1, n2)` only
//! if, even in a speed-of-light Internet, the relayed path could beat
//! the measured direct RTT:
//!
//! ```text
//! 2 * [t(n1, f) + t(f, n2)] <= RTT(n1, n2)
//! ```
//!
//! where `t(a, b) = d(a, b) / (c * 2/3)` is the one-way fiber
//! propagation delay over the great-circle distance. Infeasible relays
//! are excluded *before* any endpoint↔relay probing, which is what keeps
//! the measurement budget tractable. The exclusion is safe because no
//! sampled RTT falls below the light floor between the locations the
//! filter uses; `tests/method_invariants.rs` checks both on every window
//! of its campaigns.

use shortcuts_geo::{light, GeoPoint};

/// Whether a relay at `relay_loc` is feasible for endpoints at
/// `src_loc`/`dst_loc` whose measured direct RTT is `direct_rtt_ms`.
pub fn is_feasible(
    src_loc: &GeoPoint,
    dst_loc: &GeoPoint,
    relay_loc: &GeoPoint,
    direct_rtt_ms: f64,
) -> bool {
    min_relay_rtt(src_loc, dst_loc, relay_loc) <= direct_rtt_ms
}

/// The speed-of-light lower bound of the relayed RTT (the left-hand side
/// of the inequality), in ms.
pub fn min_relay_rtt(src_loc: &GeoPoint, dst_loc: &GeoPoint, relay_loc: &GeoPoint) -> f64 {
    let d1 = src_loc.distance_km(relay_loc);
    let d2 = relay_loc.distance_km(dst_loc);
    light::min_relay_rtt_ms(d1, d2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    #[test]
    fn on_path_relay_is_feasible() {
        let london = p(51.5, -0.13);
        let nyc = p(40.7, -74.0);
        // Dublin is roughly on the way.
        let dublin = p(53.35, -6.26);
        // A healthy transatlantic RTT.
        let direct = 85.0;
        assert!(is_feasible(&london, &nyc, &dublin, direct));
    }

    #[test]
    fn far_relay_is_infeasible() {
        let london = p(51.5, -0.13);
        let paris = p(48.85, 2.35);
        let tokyo = p(35.68, 139.65);
        // Even a slowish London-Paris RTT can't justify a Tokyo detour.
        assert!(!is_feasible(&london, &paris, &tokyo, 30.0));
    }

    #[test]
    fn inflated_direct_path_admits_more_relays() {
        let bogota = p(4.71, -74.07);
        let bratislava = p(48.15, 17.11);
        let miami = p(25.76, -80.19);
        let honest = min_relay_rtt(&bogota, &bratislava, &miami);
        // With a direct RTT barely above the floor, Miami may not fit;
        // with a heavily inflated direct path it does.
        assert!(!is_feasible(&bogota, &bratislava, &miami, honest - 1.0));
        assert!(is_feasible(&bogota, &bratislava, &miami, honest + 50.0));
    }

    #[test]
    fn min_relay_rtt_matches_geo_math() {
        let a = p(0.0, 0.0);
        let b = p(0.0, 10.0);
        let r = p(0.0, 5.0);
        let d1 = a.distance_km(&r);
        let d2 = r.distance_km(&b);
        let want = shortcuts_geo::light::min_relay_rtt_ms(d1, d2);
        assert!((min_relay_rtt(&a, &b, &r) - want).abs() < 1e-12);
    }

    #[test]
    fn zero_direct_rtt_rejects_everything_distant() {
        let a = p(10.0, 10.0);
        let b = p(10.0, 11.0);
        let r = p(20.0, 20.0);
        assert!(!is_feasible(&a, &b, &r, 0.0));
    }
}
