//! Stitching/accumulation layer of the measurement engine (§2.5 step 4
//! plus bookkeeping).
//!
//! [`ResultsBuilder`] folds one round's raw window results — direct,
//! reverse and overlay-link medians, all position-aligned with their
//! plans — into the campaign-level [`CampaignResults`]: case records
//! with per-type outcomes (`RTT(e1, relay, e2) = median(e1, relay) +
//! median(e2, relay)`), per-pair RTT histories, symmetry samples and
//! relay metadata. Everything here is deterministic arithmetic over
//! already-measured data; it neither pings nor draws randomness, so it
//! is independent of how (or in what order) the execution layer ran
//! the tasks.
//!
//! The builder is also **round-order-independent**: each
//! [`ResultsBuilder::absorb_round`] call stitches its round into a
//! private per-round partial, which is buffered until every earlier
//! round has arrived. Once the absorbed rounds are contiguous, the
//! partials are appended to the campaign's results in ascending round
//! order — at the start of the next `absorb_round` (after the caller
//! has emitted the round's summary) or in [`ResultsBuilder::finish`].
//! Rounds may therefore be absorbed in any order — the sharded
//! scheduler completes them whenever their last window lands — and the
//! final [`CampaignResults`] is still bit-identical to a serial,
//! in-order run, while an in-order run holds at most one round's
//! partial at a time.

use crate::measure::stitch;
use crate::plan::{OverlayPlan, RoundPlan};
use crate::workflow::{
    CampaignResults, CaseRecord, Cases, PairHistory, RelayMeta, RoundSummary, TypeOutcome,
};
use shortcuts_netsim::HostId;
use std::collections::{BTreeMap, HashMap};

/// One absorbed round, not yet appended: everything the round
/// contributes to the campaign, in the round's own deterministic
/// internal order.
#[derive(Debug)]
struct RoundPartial {
    cases: Vec<CaseRecord>,
    /// The cases' improving relays, at exact length: what their
    /// `improving_start` offsets index.
    improving: Vec<(HostId, f32)>,
    direct_entries: Vec<((HostId, HostId), f64)>,
    link_entries: Vec<((HostId, HostId), f64)>,
    symmetry: Vec<(f64, f64)>,
    relay_meta: Vec<(HostId, RelayMeta)>,
    endpoints: usize,
    relays: [usize; 4],
    unresponsive: u64,
}

/// Accumulates per-round results into [`CampaignResults`].
///
/// Rounds may arrive in any order; a round waits in its partial until
/// the rounds before it have arrived, so the output never depends on
/// completion order.
#[derive(Debug, Default)]
pub struct ResultsBuilder {
    /// Absorbed rounds not yet appended (a gap precedes each).
    pending: BTreeMap<u32, RoundPartial>,
    /// The next round to append: every round below it is appended.
    next: u32,
    /// The largest improving arena a round has needed so far: the next
    /// round's arena starts at this capacity, so it rarely grows.
    arena_capacity: usize,
    cases: Cases,
    direct_history: PairHistory,
    link_history: PairHistory,
    symmetry_samples: Vec<(f64, f64)>,
    relay_meta: HashMap<HostId, RelayMeta>,
    unresponsive_pairs: u64,
    endpoints_total: usize,
    relays_total: [usize; 4],
}

impl ResultsBuilder {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one completed round in and returns its summary. Rounds
    /// may be absorbed in any order, each exactly once.
    ///
    /// `direct` aligns with `plan.pairs`, `reverse` with the
    /// `reverse`-flagged pairs whose forward window succeeded (the
    /// subsequence [`RoundPlan::reverse_tasks`] schedules), and
    /// `links` with `overlay.needed`.
    pub fn absorb_round(
        &mut self,
        plan: &RoundPlan,
        overlay: &OverlayPlan,
        direct: &[Option<f64>],
        reverse: &[Option<f64>],
        links: &[Option<f64>],
    ) -> RoundSummary {
        assert_eq!(direct.len(), plan.pairs.len());
        assert_eq!(links.len(), overlay.needed.len());
        assert!(
            plan.round >= self.next && !self.pending.contains_key(&plan.round),
            "round {} absorbed twice",
            plan.round
        );
        // The previous call's summary has been emitted by now: append
        // whatever it made contiguous.
        while let Some(partial) = self.pending.remove(&self.next) {
            self.append(partial);
            self.next += 1;
        }

        // Pre-sized from the plan: every bound below is exact or a
        // tight upper bound, so the stitch hot path never reallocates
        // unless a round outgrows every improving arena before it.
        let mut partial = RoundPartial {
            cases: Vec::with_capacity(plan.pairs.len()),
            improving: Vec::with_capacity(self.arena_capacity),
            direct_entries: Vec::with_capacity(plan.pairs.len()),
            link_entries: Vec::with_capacity(overlay.needed.len()),
            symmetry: Vec::with_capacity(reverse.len()),
            relay_meta: Vec::with_capacity(plan.relays.len()),
            endpoints: plan.endpoints.len(),
            relays: [0; 4],
            unresponsive: 0,
        };

        // Relay census and metadata.
        for r in &plan.relays {
            partial.relays[r.rtype.index()] += 1;
            partial.relay_meta.push((
                r.host,
                RelayMeta {
                    rtype: r.rtype,
                    asn: r.asn,
                    city: r.city,
                    country: r.country,
                    facility: r.facility,
                },
            ));
        }

        // Direct medians: histories, symmetry pairs, unresponsiveness.
        let mut reverse_iter = reverse.iter();
        for (pair, d) in plan.pairs.iter().zip(direct) {
            let Some(m) = *d else {
                partial.unresponsive += 1;
                continue;
            };
            let (a, b) = (plan.endpoints[pair.src].host, plan.endpoints[pair.dst].host);
            let key = if a <= b { (a, b) } else { (b, a) };
            partial.direct_entries.push((key, m));
            if pair.reverse {
                let rev = *reverse_iter
                    .next()
                    .expect("one result per responsive reverse flag");
                if let Some(rev) = rev {
                    partial.symmetry.push((m, rev));
                }
            }
        }

        // Overlay-link medians on the dense endpoint × relay grid,
        // addressable by index, with a bitset of which cells hold one.
        // Rows are padded to whole 64-relay words.
        let n_relays = plan.relays.len();
        let row_words = n_relays.div_ceil(64);
        let width = row_words * 64;
        let mut link = vec![0.0f64; plan.endpoints.len() * width];
        let mut measured = vec![0u64; plan.endpoints.len() * row_words];
        for (&(ei, ri), l) in overlay.needed.iter().zip(links) {
            let Some(v) = *l else { continue };
            let ri = ri as usize;
            link[ei * width + ri] = v;
            measured[ei * row_words + ri / 64] |= 1 << (ri % 64);
            let e_host = plan.endpoints[ei].host;
            let r_host = plan.relays[ri].host;
            let key = if e_host <= r_host {
                (e_host, r_host)
            } else {
                (r_host, e_host)
            };
            partial.link_entries.push((key, v));
        }

        // Per relay: its host, and per type a mask over relay indices,
        // so a feasibility word splits into per-type words.
        let mut hosts = vec![HostId(0); width];
        let mut type_mask = vec![[0u64; 4]; row_words];
        for (ri, r) in plan.relays.iter().enumerate() {
            hosts[ri] = r.host;
            type_mask[ri / 64][r.rtype.index()] |= 1 << (ri % 64);
        }
        let (hosts, _) = hosts.as_chunks::<64>();

        // Stitch one-relay paths and emit the round's cases. Only the
        // relays that are feasible *and* have both legs measured are
        // visited: the three bitsets are ANDed a word at a time and
        // split by type. A case's improving relays go to the round's
        // arena type after type, each type in relay order.
        let arena = &mut partial.improving;
        for (pair_idx, (pair, d)) in plan.pairs.iter().zip(direct).enumerate() {
            let Some(d) = *d else { continue };
            let improving_start =
                u32::try_from(arena.len()).expect("fewer than 2^32 improving relays a round");
            let (src_links, _) = link[pair.src * width..][..width].as_chunks::<64>();
            let (dst_links, _) = link[pair.dst * width..][..width].as_chunks::<64>();
            let src_measured = &measured[pair.src * row_words..][..row_words];
            let dst_measured = &measured[pair.dst * row_words..][..row_words];
            let feasible = overlay.row(pair_idx);
            let outcomes: [TypeOutcome; 4] = std::array::from_fn(|t| {
                let first = arena.len();
                let mut n_feasible = 0;
                let mut best: Option<(HostId, f64)> = None;
                for w in 0..row_words {
                    let mut bits =
                        feasible[w] & src_measured[w] & dst_measured[w] & type_mask[w][t];
                    n_feasible += bits.count_ones();
                    let (src, dst, hosts) = (&src_links[w], &dst_links[w], &hosts[w]);
                    while bits != 0 {
                        // `% 64` changes nothing (`bits` is non-zero) but
                        // lets the lane loads skip their bounds checks.
                        let b = bits.trailing_zeros() as usize % 64;
                        bits &= bits - 1;
                        let stitched = stitch(src[b], dst[b]);
                        if best.is_none_or(|(_, v)| stitched < v) {
                            best = Some((hosts[b], stitched));
                        }
                        if stitched < d {
                            arena.push((hosts[b], (d - stitched) as f32));
                        }
                    }
                }
                TypeOutcome::new(best, n_feasible, (arena.len() - first) as u32)
            });
            let (src, dst) = (&plan.endpoints[pair.src], &plan.endpoints[pair.dst]);
            partial.cases.push(CaseRecord {
                round: plan.round,
                src: src.host,
                dst: dst.host,
                src_country: src.country,
                dst_country: dst.country,
                intercontinental: src.continent != dst.continent,
                direct_ms: d,
                outcomes,
                improving_start,
            });
        }
        // Unresponsive pairs, unmeasured links and a smaller round than
        // the largest so far leave the buffers short of their initial
        // capacities: the results keep them at exact length.
        self.arena_capacity = self.arena_capacity.max(partial.improving.len());
        partial.cases.shrink_to_fit();
        partial.direct_entries.shrink_to_fit();
        partial.link_entries.shrink_to_fit();
        partial.improving.shrink_to_fit();

        let summary = summarize(plan, overlay, &partial);
        self.pending.insert(plan.round, partial);
        summary
    }

    /// Rounds folded in so far.
    pub fn rounds_absorbed(&self) -> u32 {
        self.next + self.pending.len() as u32
    }

    /// Appends one round's partial to the campaign-level results;
    /// called in ascending round order. Moves, never re-keys: the
    /// round's cases, improving arena and history entries keep their
    /// allocations.
    fn append(&mut self, partial: RoundPartial) {
        for (host, meta) in partial.relay_meta {
            self.relay_meta.entry(host).or_insert(meta);
        }
        self.direct_history.push_round(partial.direct_entries);
        self.link_history.push_round(partial.link_entries);
        self.symmetry_samples.extend(partial.symmetry);
        self.cases.push_round(partial.cases, partial.improving);
        self.unresponsive_pairs += partial.unresponsive;
        self.endpoints_total += partial.endpoints;
        for (total, n) in self.relays_total.iter_mut().zip(partial.relays) {
            *total += n;
        }
    }

    /// Finalizes into [`CampaignResults`], appending the rounds still
    /// buffered in ascending round order — the step that makes
    /// completion order unobservable.
    pub fn finish(mut self, colo_pool: crate::colo::ColoPool, pings_sent: u64) -> CampaignResults {
        let _span = shortcuts_telemetry::global().span(shortcuts_telemetry::Stage::Stitch);
        let rounds = f64::from(self.rounds_absorbed().max(1));
        for partial in std::mem::take(&mut self.pending).into_values() {
            self.append(partial);
        }
        self.symmetry_samples.shrink_to_fit();
        CampaignResults {
            cases: self.cases,
            direct_history: self.direct_history,
            link_history: self.link_history,
            symmetry_samples: self.symmetry_samples,
            relay_meta: self.relay_meta,
            colo_pool,
            pings_sent,
            unresponsive_pairs: self.unresponsive_pairs,
            avg_endpoints: self.endpoints_total as f64 / rounds,
            avg_relays: self.relays_total.map(|n| n as f64 / rounds),
        }
    }
}

/// The per-round digest the streaming API hands to observers.
fn summarize(plan: &RoundPlan, overlay: &OverlayPlan, partial: &RoundPartial) -> RoundSummary {
    let mut improved = [0usize; 4];
    for case in &partial.cases {
        for (t, n) in improved.iter_mut().enumerate() {
            if case.outcomes[t].improved(case.direct_ms) {
                *n += 1;
            }
        }
    }
    RoundSummary {
        round: plan.round,
        endpoints: plan.endpoints.len(),
        pairs: plan.pairs.len(),
        cases: partial.cases.len(),
        unresponsive_pairs: partial.unresponsive,
        relays: partial.relays,
        links_planned: overlay.needed.len(),
        // One history entry was pushed per measured link (`needed` is
        // deduplicated), so the count is already in the partial.
        links_measured: partial.link_entries.len(),
        symmetry_samples: partial.symmetry.len(),
        improved,
    }
}

/// Buffers out-of-order [`RoundSummary`]s and releases them in round
/// order — the reorder step between "rounds complete whenever their
/// last window lands" and the streaming APIs' in-round-order promise.
/// One instance per campaign (`Campaign::run_streaming` keeps one;
/// `Sweep::run_streaming` one per scenario).
#[derive(Debug, Default)]
pub struct RoundReorder {
    pending: BTreeMap<u32, RoundSummary>,
    next: u32,
}

impl RoundReorder {
    /// An empty buffer expecting round 0 first.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accepts one completed round's summary and invokes `emit` for
    /// every summary that is now ready, in round order.
    pub fn push<F: FnMut(&RoundSummary)>(&mut self, summary: RoundSummary, mut emit: F) {
        self.pending.insert(summary.round, summary);
        while let Some(ready) = self.pending.remove(&self.next) {
            emit(&ready);
            self.next += 1;
        }
    }
}

/// Stand-alone stitching of one (pair, relay) combination from its leg
/// medians — the invariant the proptest suite pins down: a stitched
/// RTT exists iff both legs have medians, and equals their sum.
pub fn stitch_legs(leg1: Option<f64>, leg2: Option<f64>) -> Option<f64> {
    match (leg1, leg2) {
        (Some(a), Some(b)) => Some(stitch(a, b)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{PlannedEndpoint, PlannedPair};
    use crate::relays::{Relay, RelayType};
    use shortcuts_geo::{CityId, Continent, CountryCode, GeoPoint};
    use shortcuts_netsim::clock::SimTime;
    use shortcuts_topology::Asn;

    fn endpoint(id: u32, cc: &str, continent: Continent) -> PlannedEndpoint {
        PlannedEndpoint {
            host: HostId(id),
            country: CountryCode::new(cc).unwrap(),
            city: CityId(0),
            continent,
            location: GeoPoint::new(0.0, f64::from(id)).unwrap(),
        }
    }

    fn relay(id: u32, rtype: RelayType) -> Relay {
        Relay {
            host: HostId(id),
            asn: Asn(id),
            city: CityId(0),
            location: GeoPoint::new(1.0, f64::from(id)).unwrap(),
            country: CountryCode::new("DE").unwrap(),
            rtype,
            facility: None,
        }
    }

    /// Two endpoints, two relays (one COR, one PLR), everything
    /// feasible: stitched outcomes must be exact leg sums.
    fn tiny_round() -> (RoundPlan, OverlayPlan) {
        tiny_round_at(0)
    }

    fn tiny_round_at(round: u32) -> (RoundPlan, OverlayPlan) {
        let plan = RoundPlan {
            round,
            t0: SimTime(0.0),
            endpoints: vec![
                endpoint(1, "US", Continent::NorthAmerica),
                endpoint(2, "DE", Continent::Europe),
            ],
            pairs: vec![PlannedPair {
                src: 0,
                dst: 1,
                reverse: true,
            }],
            relays: vec![relay(10, RelayType::Cor), relay(11, RelayType::Plr)],
        };
        let overlay =
            OverlayPlan::from_rows(2, &[vec![0, 1]], vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
        (plan, overlay)
    }

    #[test]
    fn stitched_outcomes_are_leg_sums() {
        let (plan, overlay) = tiny_round();
        let mut b = ResultsBuilder::new();
        // Links: e0–r0=30, e0–r1=50, e1–r0=40, e1–r1=missing.
        let summary = b.absorb_round(
            &plan,
            &overlay,
            &[Some(100.0)],
            &[Some(101.0)],
            &[Some(30.0), Some(50.0), Some(40.0), None],
        );
        assert_eq!(summary.round, 0);
        assert_eq!(summary.cases, 1);
        assert_eq!(summary.links_planned, 4);
        assert_eq!(summary.links_measured, 3);
        assert_eq!(summary.symmetry_samples, 1);
        assert_eq!(summary.improved[RelayType::Cor.index()], 1);
        assert_eq!(summary.improved[RelayType::Plr.index()], 0);
        let r = b.finish(empty_pool(), 0);
        assert_eq!(r.cases.len(), 1);
        let c = r.cases.iter().next().unwrap();
        assert!(c.intercontinental);
        // COR relay r0: 30 + 40 = 70, improves on 100 by 30.
        let cor = c.outcome(RelayType::Cor);
        assert_eq!(cor.best(), Some((HostId(10), 70.0)));
        assert_eq!(cor.feasible, 1);
        assert_eq!(c.improving(RelayType::Cor), [(HostId(10), 30.0f32)]);
        // PLR relay r1 lost a leg: no stitched path.
        let plr = c.outcome(RelayType::Plr);
        assert!(plr.best().is_none());
        assert_eq!(plr.feasible, 0);
        assert!(c.improving(RelayType::Plr).is_empty());
        // Symmetry pair recorded.
        assert_eq!(r.symmetry_samples, vec![(100.0, 101.0)]);
        // Histories keyed in order.
        assert_eq!(r.direct_history[&(HostId(1), HostId(2))], vec![100.0]);
        assert_eq!(r.link_history[&(HostId(1), HostId(10))], vec![30.0]);
    }

    #[test]
    fn ties_keep_the_first_relay_and_do_not_improve() {
        // Two COR relays stitch to the same RTT, which equals the
        // direct RTT: the lower relay index is the best, and a relay
        // that only matches the direct path does not improve it.
        let (mut plan, _) = tiny_round();
        plan.relays.push(relay(12, RelayType::Cor));
        let needed = vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)];
        let overlay = OverlayPlan::from_rows(3, &[vec![0, 1, 2]], needed);
        let links = [30.0, 50.0, 30.0, 40.0, 20.0, 40.0].map(Some);
        let mut b = ResultsBuilder::new();
        b.absorb_round(&plan, &overlay, &[Some(70.0)], &[None], &links);
        let r = b.finish(empty_pool(), 0);
        let c = r.cases.iter().next().unwrap();
        let cor = c.outcome(RelayType::Cor);
        assert_eq!(cor.best(), Some((HostId(10), 70.0)));
        assert_eq!(cor.feasible, 2);
        assert_eq!(cor.n_improving, 0);
        assert!(c.improving(RelayType::Cor).is_empty());
        assert!(c.improving(RelayType::Plr).is_empty());
    }

    #[test]
    fn unresponsive_direct_pair_drops_the_case() {
        let (plan, overlay) = tiny_round();
        let mut b = ResultsBuilder::new();
        let no_links: Vec<Option<f64>> = vec![None; overlay.needed.len()];
        // No reverse results: an unresponsive forward pair schedules
        // no reverse window.
        let summary = b.absorb_round(&plan, &overlay, &[None], &[], &no_links);
        assert_eq!(summary.cases, 0);
        assert_eq!(summary.unresponsive_pairs, 1);
        let r = b.finish(empty_pool(), 0);
        assert!(r.cases.is_empty());
        assert_eq!(r.unresponsive_pairs, 1);
        assert!(r.symmetry_samples.is_empty());
    }

    #[test]
    fn averages_span_rounds() {
        let mut b = ResultsBuilder::new();
        for round in 0..4 {
            let (plan, overlay) = tiny_round_at(round);
            let no_links: Vec<Option<f64>> = vec![None; overlay.needed.len()];
            b.absorb_round(&plan, &overlay, &[Some(50.0)], &[None], &no_links);
        }
        assert_eq!(b.rounds_absorbed(), 4);
        let r = b.finish(empty_pool(), 123);
        assert_eq!(r.pings_sent, 123);
        assert!((r.avg_endpoints - 2.0).abs() < 1e-12);
        assert!((r.avg_relays[RelayType::Cor.index()] - 1.0).abs() < 1e-12);
        assert!((r.avg_relays[RelayType::Plr.index()] - 1.0).abs() < 1e-12);
        // Direct history accumulated across rounds.
        assert_eq!(r.direct_history[&(HostId(1), HostId(2))].len(), 4);
    }

    #[test]
    fn absorption_order_is_unobservable() {
        // Four rounds with per-round distinguishable medians, absorbed
        // in order vs. scrambled: the merged results must be
        // identical, with every history in ascending round order. The
        // odd rounds improve in two types, so each case's improving
        // relays sit at a round-local offset, COR before PLR.
        let rounds = [0u32, 1, 2, 3];
        let run = |order: &[u32]| {
            let mut b = ResultsBuilder::new();
            for &round in order {
                let (plan, overlay) = tiny_round_at(round);
                let d = 100.0 + f64::from(round);
                let plr_leg = (round % 2 == 1).then_some(45.0);
                b.absorb_round(
                    &plan,
                    &overlay,
                    &[Some(d)],
                    &[Some(d + 0.5)],
                    &[
                        Some(30.0),
                        Some(50.0),
                        Some(40.0 + f64::from(round)),
                        plr_leg,
                    ],
                );
            }
            b.finish(empty_pool(), 7)
        };
        let in_order = run(&rounds);
        let scrambled = run(&[2, 0, 3, 1]);
        assert_eq!(in_order.cases.len(), scrambled.cases.len());
        let bits =
            |o: &[(HostId, f32)]| -> Vec<_> { o.iter().map(|&(h, v)| (h, v.to_bits())).collect() };
        for (a, b) in in_order.cases.iter().zip(&scrambled.cases) {
            assert_eq!(a.round, b.round);
            assert_eq!(a.direct_ms.to_bits(), b.direct_ms.to_bits());
            for t in RelayType::ALL {
                assert_eq!(bits(a.improving(t)), bits(b.improving(t)), "{t:?}");
            }
        }
        for (c, round) in scrambled.cases.iter().zip(rounds) {
            assert_eq!(c.round, round);
            // COR: 30 + (40 + round) stitches to 70 + round.
            assert_eq!(c.improving(RelayType::Cor), [(HostId(10), 30.0f32)]);
            // PLR: 50 + 45 = 95, on odd rounds only.
            let plr: &[(HostId, f32)] = if round % 2 == 1 {
                &[(HostId(11), 5.0 + round as f32)]
            } else {
                &[]
            };
            assert_eq!(c.improving(RelayType::Plr), plr);
            assert!(c.improving(RelayType::RarOther).is_empty());
            assert!(c.improving(RelayType::RarEye).is_empty());
        }
        assert_eq!(in_order.symmetry_samples, scrambled.symmetry_samples);
        assert_eq!(
            in_order.direct_history[&(HostId(1), HostId(2))],
            scrambled.direct_history[&(HostId(1), HostId(2))]
        );
        assert_eq!(
            in_order.link_history[&(HostId(1), HostId(10))],
            scrambled.link_history[&(HostId(1), HostId(10))]
        );
        // And the merged history really is in round order.
        assert_eq!(
            scrambled.direct_history[&(HostId(1), HostId(2))],
            vec![100.0, 101.0, 102.0, 103.0]
        );
    }

    #[test]
    #[should_panic(expected = "absorbed twice")]
    fn double_absorption_is_a_bug() {
        let (plan, overlay) = tiny_round();
        let no_links: Vec<Option<f64>> = vec![None; overlay.needed.len()];
        let mut b = ResultsBuilder::new();
        b.absorb_round(&plan, &overlay, &[Some(50.0)], &[None], &no_links);
        b.absorb_round(&plan, &overlay, &[Some(50.0)], &[None], &no_links);
    }

    #[test]
    fn round_reorder_releases_in_round_order() {
        let summary = |round: u32| {
            let (plan, overlay) = tiny_round_at(round);
            let no_links: Vec<Option<f64>> = vec![None; overlay.needed.len()];
            ResultsBuilder::new().absorb_round(&plan, &overlay, &[Some(50.0)], &[None], &no_links)
        };
        let mut buf = RoundReorder::new();
        let mut seen = Vec::new();
        for round in [2u32, 0, 3, 1] {
            buf.push(summary(round), |s| seen.push(s.round));
        }
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn stitch_legs_requires_both() {
        assert_eq!(stitch_legs(Some(2.0), Some(3.5)), Some(5.5));
        assert_eq!(stitch_legs(None, Some(3.5)), None);
        assert_eq!(stitch_legs(Some(2.0), None), None);
        assert_eq!(stitch_legs(None, None), None);
    }

    fn empty_pool() -> crate::colo::ColoPool {
        crate::colo::ColoPool {
            relays: Vec::new(),
            funnel: crate::colo::FilterFunnel {
                initial: 0,
                single_facility: 0,
                pingable: 0,
                ownership: 0,
                presence: 0,
                geolocated: 0,
            },
        }
    }
}
