//! Credit-based admission: RIPE-Atlas-style budgets per client.
//!
//! A flat `max_sessions` gate cannot tell a `STATS` probe from a
//! 64-scenario sweep, so one greedy client can starve everyone.
//! Credits price the *work*: each measurement request costs
//! `rounds × scenarios` credits from a per-client (per source IP)
//! token bucket that refills continuously. Cheap requests (`STATS`,
//! `CSV`, `HELLO`, tapping an existing broadcast) cost little or
//! nothing, so they are never queued behind heavy sweeps; a client
//! that outruns its refill gets `ERR credits` with a `retry-after-ms`
//! hint and an intact session.
//!
//! The bucket is lazy: credits accrue on the clock, materialized only
//! when the client next asks. One `Mutex` over the ledger is plenty —
//! a charge is a handful of float ops, and sessions charge once per
//! request, not per round.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::IpAddr;
use std::time::{Duration, Instant};

/// Credit policy: bucket capacity and refill rate, shared by every
/// client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CreditConfig {
    /// Bucket capacity (burst budget). A fresh client starts full.
    pub capacity: f64,
    /// Credits refilled per second.
    pub refill_per_sec: f64,
}

impl CreditConfig {
    /// A policy from capacity and refill rate.
    pub fn new(capacity: f64, refill_per_sec: f64) -> CreditConfig {
        CreditConfig {
            capacity,
            refill_per_sec,
        }
    }

    /// Effectively unmetered admission (load harnesses, benches).
    pub fn generous() -> CreditConfig {
        CreditConfig::new(1e12, 1e9)
    }
}

impl Default for CreditConfig {
    /// Roomy enough that tests and casual use never notice the meter:
    /// a full bucket covers a 1024-round-scenario burst, refilling 64
    /// round-scenarios per second.
    fn default() -> CreditConfig {
        CreditConfig::new(4096.0, 64.0)
    }
}

/// The retry hint for a charge the bucket can never cover, and the
/// ceiling of every other hint.
const NEVER_AFFORDABLE: Duration = Duration::from_secs(3600);

/// Outcome of a charge attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Charge {
    /// Paid; `remaining` is the balance left.
    Ok {
        /// Credits left after the charge.
        remaining: f64,
    },
    /// Insufficient balance; nothing was deducted.
    Denied {
        /// The cost that was asked.
        need: f64,
        /// The balance at denial time.
        have: f64,
        /// How long until the bucket covers `need` at the refill rate.
        retry_after: Duration,
    },
}

struct Bucket {
    credits: f64,
    last_refill: Instant,
}

/// Per-client token buckets, keyed by source IP.
pub struct CreditLedger {
    cfg: CreditConfig,
    buckets: Mutex<HashMap<IpAddr, Bucket>>,
}

impl CreditLedger {
    /// A ledger under the given policy.
    pub fn new(cfg: CreditConfig) -> CreditLedger {
        CreditLedger {
            cfg,
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// The policy this ledger enforces.
    pub fn config(&self) -> CreditConfig {
        self.cfg
    }

    /// Tries to deduct `cost` from `who`'s bucket, refilling first.
    /// Zero-cost requests always pass without touching the ledger.
    pub fn try_charge(&self, who: IpAddr, cost: f64) -> Charge {
        if cost <= 0.0 {
            return Charge::Ok {
                remaining: f64::INFINITY,
            };
        }
        let now = Instant::now();
        let mut buckets = self.buckets.lock();
        let bucket = buckets.entry(who).or_insert(Bucket {
            credits: self.cfg.capacity,
            last_refill: now,
        });
        let elapsed = now.saturating_duration_since(bucket.last_refill);
        bucket.credits = (bucket.credits + elapsed.as_secs_f64() * self.cfg.refill_per_sec)
            .min(self.cfg.capacity);
        bucket.last_refill = now;
        if bucket.credits >= cost {
            bucket.credits -= cost;
            Charge::Ok {
                remaining: bucket.credits,
            }
        } else {
            let need = cost - bucket.credits;
            let retry_after = if self.cfg.refill_per_sec > 0.0 && cost <= self.cfg.capacity {
                // A tiny refill rate puts the wait past what a
                // `Duration` holds: saturate to the ceiling.
                Duration::try_from_secs_f64(need / self.cfg.refill_per_sec)
                    .map_or(NEVER_AFFORDABLE, |wait| wait.min(NEVER_AFFORDABLE))
            } else {
                // Never affordable (cost above capacity, or no refill):
                // an honest "come back much later".
                NEVER_AFFORDABLE
            };
            Charge::Denied {
                need: cost,
                have: bucket.credits,
                retry_after,
            }
        }
    }

    /// Every client's current balance, refilled to now and sorted by
    /// IP (so `STATS` output is stable). Zero-cost requests never
    /// create buckets, so only clients that have paid for work appear.
    pub fn balances(&self) -> Vec<(IpAddr, f64)> {
        let now = Instant::now();
        let mut buckets = self.buckets.lock();
        let mut out: Vec<(IpAddr, f64)> = buckets
            .iter_mut()
            .map(|(ip, bucket)| {
                let elapsed = now.saturating_duration_since(bucket.last_refill);
                bucket.credits = (bucket.credits + elapsed.as_secs_f64() * self.cfg.refill_per_sec)
                    .min(self.cfg.capacity);
                bucket.last_refill = now;
                (*ip, bucket.credits)
            })
            .collect();
        out.sort_by_key(|(ip, _)| *ip);
        out
    }
}

/// Credit cost of a measurement request: `rounds × scenarios`. (The
/// ISSUE's `rounds × pairs` is this up to a world-wide constant — the
/// per-round pair plan is a property of the world, identical across
/// scenarios — so scenarios is the dimension a client controls.)
pub fn request_cost(rounds: u32, scenarios: usize) -> f64 {
    rounds as f64 * scenarios as f64
}

/// Cost of tapping an existing broadcast: a flat 1 credit — the tap
/// consumes fan-out bandwidth, not measurement.
pub const TAP_COST: f64 = 1.0;

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn ip(last: u8) -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(127, 0, 0, last))
    }

    #[test]
    fn fresh_clients_start_with_a_full_bucket() {
        let ledger = CreditLedger::new(CreditConfig::new(10.0, 0.0));
        match ledger.try_charge(ip(1), 10.0) {
            Charge::Ok { remaining } => assert!(remaining.abs() < 1e-9),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn denial_reports_need_have_and_retry_after() {
        let ledger = CreditLedger::new(CreditConfig::new(8.0, 4.0));
        assert!(matches!(ledger.try_charge(ip(1), 8.0), Charge::Ok { .. }));
        match ledger.try_charge(ip(1), 6.0) {
            Charge::Denied {
                need,
                have,
                retry_after,
            } => {
                assert_eq!(need, 6.0);
                assert!(have < 6.0);
                // ~6 missing credits at 4/s: about 1.5 s, minus any
                // refill between the two charges.
                assert!(retry_after <= Duration::from_secs_f64(1.5));
                assert!(retry_after >= Duration::from_millis(100));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn denied_charges_deduct_nothing() {
        let ledger = CreditLedger::new(CreditConfig::new(10.0, 0.0));
        assert!(matches!(ledger.try_charge(ip(1), 6.0), Charge::Ok { .. }));
        assert!(matches!(
            ledger.try_charge(ip(1), 6.0),
            Charge::Denied { .. }
        ));
        // The 4 remaining credits are still there.
        assert!(matches!(ledger.try_charge(ip(1), 4.0), Charge::Ok { .. }));
    }

    #[test]
    fn buckets_refill_over_time_up_to_capacity() {
        let ledger = CreditLedger::new(CreditConfig::new(4.0, 1000.0));
        assert!(matches!(ledger.try_charge(ip(1), 4.0), Charge::Ok { .. }));
        assert!(matches!(
            ledger.try_charge(ip(1), 4.0),
            Charge::Denied { .. }
        ));
        std::thread::sleep(Duration::from_millis(20));
        // 20 ms at 1000/s refills to the 4-credit cap.
        match ledger.try_charge(ip(1), 4.0) {
            Charge::Ok { remaining } => assert!(remaining < 4.0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn clients_are_metered_independently() {
        let ledger = CreditLedger::new(CreditConfig::new(5.0, 0.0));
        assert!(matches!(ledger.try_charge(ip(1), 5.0), Charge::Ok { .. }));
        assert!(matches!(
            ledger.try_charge(ip(1), 1.0),
            Charge::Denied { .. }
        ));
        assert!(matches!(ledger.try_charge(ip(2), 5.0), Charge::Ok { .. }));
    }

    #[test]
    fn zero_cost_requests_never_touch_the_meter() {
        let ledger = CreditLedger::new(CreditConfig::new(1.0, 0.0));
        assert!(matches!(ledger.try_charge(ip(1), 1.0), Charge::Ok { .. }));
        for _ in 0..100 {
            assert!(matches!(ledger.try_charge(ip(1), 0.0), Charge::Ok { .. }));
        }
        assert!(matches!(
            ledger.try_charge(ip(1), 1.0),
            Charge::Denied { .. }
        ));
    }

    #[test]
    fn impossible_costs_get_a_long_retry_hint() {
        let ledger = CreditLedger::new(CreditConfig::new(2.0, 1.0));
        match ledger.try_charge(ip(1), 100.0) {
            Charge::Denied { retry_after, .. } => {
                assert_eq!(retry_after, NEVER_AFFORDABLE);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn tiny_refill_rates_saturate_the_retry_hint() {
        // 1 credit short at 1e-300/s overflows a `Duration`; 1e-4/s
        // fits one but waits far past the ceiling.
        for refill in [1e-300, 1e-4] {
            let ledger = CreditLedger::new(CreditConfig::new(2.0, refill));
            assert!(matches!(ledger.try_charge(ip(1), 2.0), Charge::Ok { .. }));
            match ledger.try_charge(ip(1), 1.0) {
                Charge::Denied { retry_after, .. } => {
                    assert_eq!(retry_after, NEVER_AFFORDABLE, "refill {refill}");
                }
                other => panic!("refill {refill}: {other:?}"),
            }
        }
    }

    #[test]
    fn balances_refill_and_sort_by_ip() {
        let ledger = CreditLedger::new(CreditConfig::new(10.0, 1000.0));
        assert!(ledger.balances().is_empty(), "no charges, no buckets");
        assert!(matches!(ledger.try_charge(ip(9), 10.0), Charge::Ok { .. }));
        assert!(matches!(ledger.try_charge(ip(1), 4.0), Charge::Ok { .. }));
        std::thread::sleep(Duration::from_millis(20));
        let balances = ledger.balances();
        assert_eq!(balances.len(), 2);
        assert_eq!(balances[0].0, ip(1), "sorted by IP");
        assert_eq!(balances[1].0, ip(9));
        // 20 ms at 1000/s refills both buckets to the 10-credit cap.
        assert!(balances.iter().all(|(_, b)| (b - 10.0).abs() < 1e-9));
    }

    #[test]
    fn request_cost_scales_with_rounds_and_scenarios() {
        assert_eq!(request_cost(4, 1), 4.0);
        assert_eq!(request_cost(2, 8), 16.0);
        assert_eq!(request_cost(0, 8), 0.0);
    }
}
