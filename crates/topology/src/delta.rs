//! Topology churn: deltas, schedules and the copy-on-write link view.
//!
//! The base [`Topology`] is frozen at build time — its CSR adjacency is
//! shared by every router, campaign and sweep, so it can never be
//! mutated in place. Churn is therefore expressed as an **overlay**: a
//! [`TopologyDelta`] names a change relative to the base graph (a link
//! or AS going down, or coming back up), and a [`DeltaView`] accumulates
//! the deltas applied so far into two small masks — the set of
//! currently-masked links and the set of currently-down nodes. Every
//! routing sweep then consults [`DeltaView::allows`] while walking the
//! unchanged base CSR; the base stays immutable and byte-identical
//! across sweeps, and an empty view is free.
//!
//! Because the view can only *mask* base edges (a `LinkUp`/`AsUp`
//! restores masked state, it never invents links the base graph does
//! not have), the CSR remains the universe of edges and all dense
//! [`NodeId`] indexing stays valid across any delta sequence.
//!
//! A [`ChurnSchedule`] maps campaign rounds to delta batches: the batch
//! at round `r` is applied *before* round `r` runs, splitting the
//! campaign into epochs at the batch boundaries. Campaign and sweep
//! runners consume the schedule via [`ChurnSchedule::segments`]; the
//! textual form (`link-down:AS1-AS2@round3`) is what the CLI `--churn`
//! flag and the service protocol's `churn=` option speak.

use crate::graph::Topology;
use crate::ids::{Asn, NodeId};
use std::collections::{BTreeMap, HashSet};
use std::fmt;

/// One atomic change to the topology, relative to the *base* graph.
///
/// Downs mask base state; ups unmask it. Applying a delta that is
/// already in effect (downing a down link, restoring an up AS) is an
/// idempotent no-op, so schedules compose without bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyDelta {
    /// The link between `a` and `b` (either direction) goes down.
    LinkDown {
        /// One endpoint.
        a: Asn,
        /// The other endpoint.
        b: Asn,
    },
    /// A previously downed base link comes back up.
    LinkUp {
        /// One endpoint.
        a: Asn,
        /// The other endpoint.
        b: Asn,
    },
    /// An AS goes down entirely: all its links stop carrying routes.
    AsDown {
        /// The AS going down.
        asn: Asn,
    },
    /// A previously downed AS comes back up.
    AsUp {
        /// The AS coming back.
        asn: Asn,
    },
}

impl TopologyDelta {
    /// Parses one delta spec, e.g. `link-down:AS1-AS2` or `as-up:AS7`.
    /// The `AS` prefix on numbers is optional.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (kind, rest) = s
            .split_once(':')
            .ok_or_else(|| format!("delta {s:?} missing `:` (want kind:args)"))?;
        let asn = |t: &str| -> Result<Asn, String> {
            let digits = t.strip_prefix("AS").unwrap_or(t);
            digits
                .parse::<u32>()
                .map(Asn)
                .map_err(|_| format!("bad ASN {t:?} in delta {s:?}"))
        };
        let pair = |t: &str| -> Result<(Asn, Asn), String> {
            let (a, b) = t
                .split_once('-')
                .ok_or_else(|| format!("delta {s:?} wants AS<a>-AS<b>"))?;
            Ok((asn(a)?, asn(b)?))
        };
        match kind {
            "link-down" => pair(rest).map(|(a, b)| TopologyDelta::LinkDown { a, b }),
            "link-up" => pair(rest).map(|(a, b)| TopologyDelta::LinkUp { a, b }),
            "as-down" => asn(rest).map(|asn| TopologyDelta::AsDown { asn }),
            "as-up" => asn(rest).map(|asn| TopologyDelta::AsUp { asn }),
            other => Err(format!(
                "unknown delta kind {other:?} (want link-down, link-up, as-down, as-up)"
            )),
        }
    }
}

impl fmt::Display for TopologyDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyDelta::LinkDown { a, b } => write!(f, "link-down:AS{}-AS{}", a.0, b.0),
            TopologyDelta::LinkUp { a, b } => write!(f, "link-up:AS{}-AS{}", a.0, b.0),
            TopologyDelta::AsDown { asn } => write!(f, "as-down:AS{}", asn.0),
            TopologyDelta::AsUp { asn } => write!(f, "as-up:AS{}", asn.0),
        }
    }
}

/// Rounds → delta batches: the batch keyed by round `r` is applied
/// *before* round `r` runs. An empty schedule is the churn-free
/// campaign and costs nothing anywhere.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnSchedule {
    batches: BTreeMap<u32, Vec<TopologyDelta>>,
}

impl ChurnSchedule {
    /// The empty (churn-free) schedule.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the schedule holds no deltas at all.
    pub fn is_empty(&self) -> bool {
        self.batches.values().all(|b| b.is_empty())
    }

    /// Appends `delta` to the batch applied before round `round`.
    pub fn add(&mut self, round: u32, delta: TopologyDelta) {
        self.batches.entry(round).or_default().push(delta);
    }

    /// The non-empty batches in round order.
    pub fn batches(&self) -> impl Iterator<Item = (u32, &[TopologyDelta])> {
        self.batches
            .iter()
            .filter(|(_, b)| !b.is_empty())
            .map(|(&r, b)| (r, b.as_slice()))
    }

    /// Splits `[0, rounds)` into contiguous epochs at the batch
    /// boundaries: returns `(start_round, end_round, batch)` triples
    /// where `batch` is applied before `start_round` (empty for the
    /// leading epoch). A churn-free schedule yields the single segment
    /// `(0, rounds, [])`, so the no-churn path is structurally
    /// identical to today's single-epoch run.
    pub fn segments(&self, rounds: u32) -> Vec<(u32, u32, &[TopologyDelta])> {
        let mut cuts: Vec<(u32, &[TopologyDelta])> =
            self.batches().filter(|&(r, _)| r < rounds).collect();
        static NO_DELTAS: &[TopologyDelta] = &[];
        if cuts.first().is_none_or(|&(r, _)| r > 0) {
            cuts.insert(0, (0, NO_DELTAS));
        }
        let mut segs = Vec::with_capacity(cuts.len());
        for (i, &(start, batch)) in cuts.iter().enumerate() {
            let end = cuts.get(i + 1).map_or(rounds, |&(r, _)| r);
            segs.push((start, end, batch));
        }
        segs
    }

    /// Parses a comma-separated schedule, e.g.
    /// `link-down:AS1-AS2@round3,as-down:AS5@7`. The `round` prefix on
    /// the round number is optional.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut sched = ChurnSchedule::none();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (delta, round) = part
                .rsplit_once('@')
                .ok_or_else(|| format!("churn spec {part:?} missing `@round<r>`"))?;
            let digits = round.strip_prefix("round").unwrap_or(round);
            let round: u32 = digits
                .parse()
                .map_err(|_| format!("bad round {round:?} in churn spec {part:?}"))?;
            sched.add(round, TopologyDelta::parse(delta)?);
        }
        Ok(sched)
    }

    /// Checks every delta against the base topology: all named ASes
    /// must exist, and link deltas must name *base* links (the view
    /// can only mask and unmask base edges, never invent new ones).
    pub fn validate(&self, topo: &Topology) -> Result<(), String> {
        for (round, batch) in self.batches() {
            for d in batch {
                let check_as = |asn: Asn| -> Result<(), String> {
                    if topo.node_index().node(asn).is_none() {
                        return Err(format!("churn at round {round}: unknown AS{}", asn.0));
                    }
                    Ok(())
                };
                match *d {
                    TopologyDelta::LinkDown { a, b } | TopologyDelta::LinkUp { a, b } => {
                        check_as(a)?;
                        check_as(b)?;
                        if !topo.are_neighbors(a, b) {
                            return Err(format!(
                                "churn at round {round}: no base link AS{}-AS{}",
                                a.0, b.0
                            ));
                        }
                    }
                    TopologyDelta::AsDown { asn } | TopologyDelta::AsUp { asn } => check_as(asn)?,
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for ChurnSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (round, batch) in self.batches() {
            for d in batch {
                if !first {
                    write!(f, ",")?;
                }
                write!(f, "{d}@round{round}")?;
                first = false;
            }
        }
        Ok(())
    }
}

/// The accumulated effect of every delta applied so far: which base
/// links are currently masked and which nodes are currently down.
///
/// Routing sweeps walk the base CSR unchanged and skip edges the view
/// forbids; an empty view forbids nothing, so the churn-free path pays
/// only an `is_empty` check. A dense per-node `touched` flag answers
/// [`DeltaView::allows`] for the edges no delta names without hashing,
/// so a view-filtered sweep costs about as much as a base sweep.
/// Cloning is cheap relative to a sweep (two hash sets of the delta
/// footprint plus one flag per node).
#[derive(Debug, Clone, Default)]
pub struct DeltaView {
    /// Masked base links, keyed `(min, max)` by node id.
    masked: HashSet<(NodeId, NodeId)>,
    /// Nodes currently down (all their links masked implicitly).
    down: HashSet<NodeId>,
    /// Per node: down, or an endpoint of a masked link. Rebuilt by
    /// [`DeltaView::apply`]; empty in [`DeltaView::empty`], where every
    /// out-of-range read counts as untouched.
    touched: Vec<bool>,
}

/// Views are equal when they mask the same state; `touched` is derived
/// (and an empty view's is empty, while a view flapped back to nothing
/// keeps an all-false one).
impl PartialEq for DeltaView {
    fn eq(&self, other: &Self) -> bool {
        self.masked == other.masked && self.down == other.down
    }
}

impl Eq for DeltaView {}

impl DeltaView {
    /// The view with nothing masked — the base topology itself.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Whether the view masks nothing (routing may skip all checks).
    pub fn is_empty(&self) -> bool {
        self.masked.is_empty() && self.down.is_empty()
    }

    /// Canonical link key.
    fn key(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
        if u.0 <= v.0 {
            (u, v)
        } else {
            (v, u)
        }
    }

    /// Whether some delta names node `u` (down, or on a masked link).
    #[inline]
    fn touched(&self, u: NodeId) -> bool {
        self.touched.get(u.index()).copied().unwrap_or(false)
    }

    /// Whether the base edge `u — v` currently carries routes.
    #[inline]
    pub fn allows(&self, u: NodeId, v: NodeId) -> bool {
        if !self.touched(u) && !self.touched(v) {
            return true;
        }
        !self.down.contains(&u)
            && !self.down.contains(&v)
            && !self.masked.contains(&Self::key(u, v))
    }

    /// Whether node `u` is currently up.
    #[inline]
    pub fn node_up(&self, u: NodeId) -> bool {
        !self.down.contains(&u)
    }

    /// The masked links (for cache invalidation).
    pub fn masked_links(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.masked.iter().copied()
    }

    /// The downed nodes (for cache invalidation).
    pub fn down_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.down.iter().copied()
    }

    /// Applies one batch in order, mutating the view. Deltas naming
    /// ASNs unknown to `topo` are ignored (validation rejects them
    /// up front where a loud failure is wanted).
    pub fn apply(&mut self, topo: &Topology, batch: &[TopologyDelta]) {
        let node = |asn: Asn| topo.node_index().node(asn);
        for d in batch {
            match *d {
                TopologyDelta::LinkDown { a, b } => {
                    if let (Some(u), Some(v)) = (node(a), node(b)) {
                        self.masked.insert(Self::key(u, v));
                    }
                }
                TopologyDelta::LinkUp { a, b } => {
                    if let (Some(u), Some(v)) = (node(a), node(b)) {
                        self.masked.remove(&Self::key(u, v));
                    }
                }
                TopologyDelta::AsDown { asn } => {
                    if let Some(u) = node(asn) {
                        self.down.insert(u);
                    }
                }
                TopologyDelta::AsUp { asn } => {
                    if let Some(u) = node(asn) {
                        self.down.remove(&u);
                    }
                }
            }
        }
        self.touched.clear();
        self.touched.resize(topo.node_index().len(), false);
        for &(u, v) in &self.masked {
            self.touched[u.index()] = true;
            self.touched[v.index()] = true;
        }
        for &u in &self.down {
            self.touched[u.index()] = true;
        }
    }

    /// A new view equal to this one with `batch` applied.
    pub fn applied(&self, topo: &Topology, batch: &[TopologyDelta]) -> Self {
        let mut next = self.clone();
        next.apply(topo, batch);
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asys::{AsInfo, AsType};
    use shortcuts_geo::CountryCode;

    fn tiny_topology() -> Topology {
        let mut b = Topology::builder();
        for asn in 1u32..=3 {
            b.add_as(AsInfo {
                asn: Asn(asn),
                as_type: AsType::Tier2,
                home_country: CountryCode::new("US").unwrap(),
                countries: vec![],
                pops: vec![],
                prefixes: vec![],
                user_share: 0.0,
                offers_cloud: false,
            });
        }
        b.add_transit(Asn(2), Asn(1));
        b.add_peering(Asn(2), Asn(3));
        b.build()
    }

    #[test]
    fn parse_roundtrips_through_display() {
        let spec = "link-down:AS1-AS2@round3,as-down:AS5@7,link-up:AS1-AS2@round9,as-up:AS5@9";
        let sched = ChurnSchedule::parse(spec).unwrap();
        assert_eq!(
            sched.to_string(),
            "link-down:AS1-AS2@round3,as-down:AS5@round7,link-up:AS1-AS2@round9,as-up:AS5@round9"
        );
        let again = ChurnSchedule::parse(&sched.to_string()).unwrap();
        assert_eq!(sched, again);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "link-down:AS1-AS2",      // no round
            "link-down:AS1@round3",   // no pair
            "teleport:AS1-AS2@3",     // unknown kind
            "as-down:ASx@3",          // bad ASN
            "link-down:AS1-AS2@soon", // bad round
            "AS1-AS2@3",              // no kind
        ] {
            assert!(ChurnSchedule::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn segments_split_rounds_at_batch_boundaries() {
        let sched = ChurnSchedule::parse("link-down:AS1-AS2@2,link-up:AS1-AS2@5").unwrap();
        let segs = sched.segments(8);
        let shape: Vec<(u32, u32, usize)> = segs.iter().map(|&(s, e, b)| (s, e, b.len())).collect();
        assert_eq!(shape, vec![(0, 2, 0), (2, 5, 1), (5, 8, 1)]);
        // Empty schedule: one segment covering everything.
        let none = ChurnSchedule::none();
        let segs = none.segments(4);
        assert_eq!(segs.len(), 1);
        assert_eq!((segs[0].0, segs[0].1), (0, 4));
        assert!(segs[0].2.is_empty());
        // Batches at or past the end of the campaign never fire.
        let late = ChurnSchedule::parse("as-down:AS1@9").unwrap();
        assert_eq!(late.segments(4).len(), 1);
    }

    #[test]
    fn batch_at_round_zero_leads_the_segments() {
        let sched = ChurnSchedule::parse("as-down:AS3@0").unwrap();
        let segs = sched.segments(3);
        assert_eq!(segs.len(), 1);
        assert_eq!((segs[0].0, segs[0].1), (0, 3));
        assert_eq!(segs[0].2.len(), 1);
    }

    #[test]
    fn validate_wants_known_ases_and_base_links() {
        let topo = tiny_topology();
        assert!(ChurnSchedule::parse("link-down:AS1-AS2@1")
            .unwrap()
            .validate(&topo)
            .is_ok());
        // Unknown AS.
        assert!(ChurnSchedule::parse("as-down:AS9@1")
            .unwrap()
            .validate(&topo)
            .is_err());
        // 1 and 3 are not base neighbors.
        assert!(ChurnSchedule::parse("link-down:AS1-AS3@1")
            .unwrap()
            .validate(&topo)
            .is_err());
    }

    #[test]
    fn view_masks_and_restores_links_and_nodes() {
        let topo = tiny_topology();
        let n = |asn: u32| topo.node_index().node(Asn(asn)).unwrap();
        let mut view = DeltaView::empty();
        assert!(view.is_empty());
        assert!(view.allows(n(1), n(2)));

        view.apply(
            &topo,
            &[TopologyDelta::LinkDown {
                a: Asn(2),
                b: Asn(1),
            }],
        );
        assert!(!view.allows(n(1), n(2)), "masking is direction-free");
        assert!(!view.allows(n(2), n(1)));
        assert!(view.allows(n(2), n(3)));

        view.apply(&topo, &[TopologyDelta::AsDown { asn: Asn(3) }]);
        assert!(!view.allows(n(2), n(3)));
        assert!(!view.node_up(n(3)));

        // Idempotent re-application changes nothing.
        let snapshot = view.clone();
        view.apply(
            &topo,
            &[
                TopologyDelta::LinkDown {
                    a: Asn(1),
                    b: Asn(2),
                },
                TopologyDelta::AsDown { asn: Asn(3) },
            ],
        );
        assert_eq!(view, snapshot);

        view.apply(
            &topo,
            &[
                TopologyDelta::LinkUp {
                    a: Asn(1),
                    b: Asn(2),
                },
                TopologyDelta::AsUp { asn: Asn(3) },
            ],
        );
        assert!(view.is_empty(), "restoring everything empties the view");
    }

    #[test]
    fn allows_fast_path_matches_the_set_definition() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let topo = tiny_topology();
        let n = |asn: u32| topo.node_index().node(Asn(asn)).unwrap();
        let nodes: Vec<NodeId> = (1..=3).map(n).collect();
        let check = |view: &DeltaView, ctx: &str| {
            for &u in &nodes {
                for &v in &nodes {
                    let by_sets = !view.down.contains(&u)
                        && !view.down.contains(&v)
                        && !view.masked.contains(&DeltaView::key(u, v));
                    assert_eq!(view.allows(u, v), by_sets, "{ctx}: {u}—{v}");
                }
                assert_eq!(view.node_up(u), !view.down.contains(&u), "{ctx}: {u}");
            }
        };
        let link_down = |a: u32, b: u32| TopologyDelta::LinkDown {
            a: Asn(a),
            b: Asn(b),
        };
        let link_up = |a: u32, b: u32| TopologyDelta::LinkUp {
            a: Asn(a),
            b: Asn(b),
        };

        let links = [(1, 2), (2, 3)];
        let mut rng = StdRng::seed_from_u64(31);
        let mut view = DeltaView::empty();
        for step in 0..400 {
            let (a, b) = links[rng.gen_range(0..links.len())];
            let asn = Asn(rng.gen_range(1..=3));
            let delta = match rng.gen_range(0..4u8) {
                0 => link_down(a, b),
                1 => link_up(a, b),
                2 => TopologyDelta::AsDown { asn },
                _ => TopologyDelta::AsUp { asn },
            };
            view.apply(&topo, &[delta]);
            check(&view, &format!("step {step}: {delta}"));
        }

        // Restoring the last masked link at a node clears its flag.
        let mut view = DeltaView::empty();
        view.apply(&topo, &[link_down(1, 2), link_down(2, 3)]);
        view.apply(&topo, &[link_up(2, 1)]);
        assert!(!view.touched(n(1)), "AS1 has no masked link left");
        assert!(view.touched(n(2)) && view.touched(n(3)));
        check(&view, "one link restored");
        view.apply(&topo, &[TopologyDelta::AsDown { asn: Asn(1) }]);
        check(&view, "AS1 down");
        view.apply(&topo, &[link_up(2, 3), TopologyDelta::AsUp { asn: Asn(1) }]);
        assert!(nodes.iter().all(|&u| !view.touched(u)));
        check(&view, "flapped back");

        // A view flapped back to nothing is the empty view.
        assert!(view.is_empty());
        assert_eq!(view, DeltaView::empty());
        assert_eq!(DeltaView::empty(), view);
    }
}
