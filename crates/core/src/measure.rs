//! Measurement primitives: medians, windows, stitching.
//!
//! §2.5 defines the paper's RTT estimator: within a 30-minute window,
//! send 6 single-packet pings 5 minutes apart; if at least 3 replies
//! arrive, the pair's RTT for the round is the **median** of the
//! replies (robust to the heavy spikes real networks produce); otherwise
//! the pair is unresponsive this round. A relayed path's RTT is the sum
//! of the two legs' medians ("stitching").

use rand::Rng;
use shortcuts_netsim::clock::SimTime;
use shortcuts_netsim::{HostId, Pinger};
use std::cell::RefCell;

thread_local! {
    /// Per-thread reply buffer shared by every window measured on this
    /// thread. A campaign measures millions of windows; reusing one
    /// buffer per worker removes a `Vec<f64>` allocation per pair per
    /// round from the hot loop.
    static WINDOW_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with this thread's (cleared) window scratch buffer. Do not
/// nest calls on one thread — the buffer is a single per-thread slot.
pub fn with_reply_scratch<T>(f: impl FnOnce(&mut Vec<f64>) -> T) -> T {
    WINDOW_SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        buf.clear();
        f(&mut buf)
    })
}

/// Parameters of a measurement window.
#[derive(Debug, Clone, Copy)]
pub struct WindowConfig {
    /// Pings per window (paper: 6).
    pub pings: usize,
    /// Seconds between pings (paper: 300 s).
    pub interval_secs: f64,
    /// Minimum valid replies for a usable median (paper: 3).
    pub min_valid: usize,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig {
            pings: 6,
            interval_secs: 300.0,
            min_valid: 3,
        }
    }
}

/// Median of a slice. `None` for an empty slice. Even lengths average
/// the middle pair.
///
/// Runs once per ping window — millions of times per campaign — so
/// window-sized inputs (≤ 16 samples) use a stack buffer and a tiny
/// insertion sort, and larger ones select in O(n)
/// (`select_nth_unstable_by`) instead of sorting.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    if values.len() <= 16 {
        let mut buf = [0.0f64; 16];
        buf[..values.len()].copy_from_slice(values);
        Some(median_in_place(&mut buf[..values.len()]))
    } else {
        Some(median_in_place(&mut values.to_vec()))
    }
}

/// Median over a scratch buffer the caller lets us reorder.
///
/// Window-sized inputs (≤ 16, the overwhelmingly common case — every
/// §2.5 window has at most 6 replies) take an insertion sort:
/// `select_nth_unstable` carries pivot machinery that costs more than
/// sorting this few elements outright. Both branches return the same
/// order statistics, so which one runs is unobservable in results.
fn median_in_place(v: &mut [f64]) -> f64 {
    let n = v.len();
    if n <= 16 {
        for i in 1..n {
            let x = v[i];
            let mut j = i;
            while j > 0 && v[j - 1] > x {
                v[j] = v[j - 1];
                j -= 1;
            }
            v[j] = x;
        }
        return if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
    }
    let cmp = |a: &f64, b: &f64| a.partial_cmp(b).expect("RTTs are finite");
    let (lower, &mut upper_mid, _) = v.select_nth_unstable_by(n / 2, cmp);
    if n % 2 == 1 {
        upper_mid
    } else {
        // The other middle element is the maximum of the left
        // partition select_nth already produced.
        let lower_mid = lower.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (lower_mid + upper_mid) / 2.0
    }
}

/// The window verdict over a reply buffer the caller lets us reorder:
/// `None` when there are no replies or fewer than `min_valid`, the
/// selection-based median otherwise. This is [`median`] fused with the
/// §2.5 validity rule, minus `median`'s defensive copy — callers hand
/// over a scratch buffer they are done with.
pub fn window_median(replies: &mut [f64], min_valid: usize) -> Option<f64> {
    if replies.is_empty() || replies.len() < min_valid {
        return None;
    }
    Some(median_in_place(replies))
}

/// Measures one pair over a window: pings per [`WindowConfig`], median
/// if enough replies, `None` otherwise, one [`Pinger::ping`] per ping.
/// Generic over [`Pinger`]: a campaign's
/// [`shortcuts_netsim::PingHandle`] or a test's wrapper around one.
/// Replies land in the thread's scratch buffer
/// ([`with_reply_scratch`]), so steady-state windows allocate nothing.
pub fn measure_pair<P: Pinger, R: Rng + ?Sized>(
    engine: &P,
    src: HostId,
    dst: HostId,
    window_start: SimTime,
    cfg: &WindowConfig,
    rng: &mut R,
) -> Option<f64> {
    with_reply_scratch(|replies| {
        engine.ping_series_into(
            src,
            dst,
            window_start,
            cfg.pings,
            cfg.interval_secs,
            rng,
            replies,
        );
        window_median(replies, cfg.min_valid)
    })
}

/// Stitches a one-relay overlay path from its two leg medians
/// (§2.5 step 4): `RTT(src, relay, dst) = RTT(src, relay) + RTT(dst,
/// relay)`.
pub fn stitch(leg1_ms: f64, leg2_ms: f64) -> f64 {
    leg1_ms + leg2_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
    }

    #[test]
    fn median_large_slices_use_heap_path() {
        // 17+ elements exceed the stack buffer; both parities.
        let odd: Vec<f64> = (0..17).map(f64::from).rev().collect();
        assert_eq!(median(&odd), Some(8.0));
        let even: Vec<f64> = (0..18).map(f64::from).rev().collect();
        assert_eq!(median(&even), Some(8.5));
    }

    #[test]
    fn median_robust_to_one_spike() {
        let m = median(&[10.0, 10.2, 9.9, 10.1, 400.0, 10.0]).unwrap();
        assert!(m < 11.0, "median {m} should shrug off the spike");
    }

    #[test]
    fn window_median_applies_validity_rule_in_place() {
        assert_eq!(window_median(&mut [3.0, 1.0, 2.0], 3), Some(2.0));
        assert_eq!(window_median(&mut [4.0, 1.0, 2.0, 3.0], 3), Some(2.5));
        assert_eq!(window_median(&mut [3.0, 1.0], 3), None, "below min_valid");
        assert_eq!(window_median(&mut [], 0), None, "no replies, no median");
    }

    #[test]
    fn reply_scratch_is_cleared_between_windows() {
        with_reply_scratch(|b| b.extend([1.0, 2.0, 3.0]));
        with_reply_scratch(|b| assert!(b.is_empty(), "stale replies leaked"));
    }

    #[test]
    fn stitch_adds_legs() {
        assert_eq!(stitch(10.0, 15.5), 25.5);
        assert_eq!(stitch(0.0, 0.0), 0.0);
    }

    #[test]
    fn window_default_matches_paper() {
        let w = WindowConfig::default();
        assert_eq!(w.pings, 6);
        assert_eq!(w.interval_secs, 300.0);
        assert_eq!(w.min_valid, 3);
        // 6 pings every 5 minutes fit exactly in the 30-minute window.
        assert!(w.pings as f64 * w.interval_secs <= 1800.0 + 1e-9);
    }
}
