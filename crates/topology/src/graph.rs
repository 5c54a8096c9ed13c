//! The assembled topology graph.
//!
//! Besides the per-AS [`Adjacency`] records (the convenient,
//! HashMap-backed view), [`TopologyBuilder::build`] freezes two dense
//! representations that the routing core runs on:
//!
//! - a [`NodeIndex`] mapping every ASN to a compact [`NodeId`] in
//!   `0..n` (insertion order), shared behind an `Arc` so routing
//!   tables can carry it without borrowing the topology;
//! - a [`CsrAdjacency`] — one flat edge array in compressed-sparse-row
//!   layout with per-class (provider / customer / peer) ranges per
//!   node, so a routing sweep touches contiguous memory instead of
//!   chasing per-AS heap allocations.

use crate::asys::{AsInfo, AsType, Pop};
use crate::facility::{Facility, Ixp};
use crate::ids::{Asn, FacilityId, IxpId, NodeId, PopId};
use shortcuts_geo::{CityDb, CityId};
use std::collections::HashMap;
use std::sync::Arc;

/// Business relationship on an inter-AS link, from the perspective of the
/// link as stored (`a`, `b`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relationship {
    /// `a` is a customer of `b` (`a` pays `b` for transit).
    CustomerOf,
    /// `a` and `b` are settlement-free peers.
    Peer,
}

/// Adjacency of one AS, split by relationship class.
#[derive(Debug, Clone, Default)]
pub struct Adjacency {
    /// ASes this AS buys transit from.
    pub providers: Vec<Asn>,
    /// ASes buying transit from this AS.
    pub customers: Vec<Asn>,
    /// Settlement-free peers.
    pub peers: Vec<Asn>,
}

/// Dense, immutable ASN ↔ [`NodeId`] mapping of one topology.
///
/// Shared behind an `Arc` between the [`Topology`] and every
/// [`crate::routing::RoutingTable`] computed over it, so tables are
/// self-contained (`'static`) while still resolving ASNs without a
/// copy of the map.
#[derive(Debug)]
pub struct NodeIndex {
    asn_to_node: HashMap<Asn, NodeId>,
    node_to_asn: Vec<Asn>,
}

impl NodeIndex {
    fn from_asns(asns: impl IntoIterator<Item = Asn>) -> Self {
        let node_to_asn: Vec<Asn> = asns.into_iter().collect();
        let asn_to_node = node_to_asn
            .iter()
            .enumerate()
            .map(|(i, &a)| (a, NodeId(i as u32)))
            .collect();
        NodeIndex {
            asn_to_node,
            node_to_asn,
        }
    }

    /// Dense id of `asn`, if the AS exists.
    #[inline]
    pub fn node(&self, asn: Asn) -> Option<NodeId> {
        self.asn_to_node.get(&asn).copied()
    }

    /// ASN of a dense id (panics on an id from another topology).
    #[inline]
    pub fn asn(&self, node: NodeId) -> Asn {
        self.node_to_asn[node.index()]
    }

    /// Number of ASes in the index.
    pub fn len(&self) -> usize {
        self.node_to_asn.len()
    }

    /// Whether the topology has no ASes.
    pub fn is_empty(&self) -> bool {
        self.node_to_asn.is_empty()
    }
}

/// Compressed-sparse-row adjacency over [`NodeId`]s.
///
/// All edges of all nodes live in one flat `edges` array. Node `i`
/// owns `edges[start[i] .. start[i+1]]`, internally split into three
/// class ranges — providers first, then customers, then peers — so a
/// routing phase iterates exactly the class it propagates over, in
/// cache order, with no hashing and no per-AS allocation.
#[derive(Debug)]
pub struct CsrAdjacency {
    /// Row offsets, length `n + 1`.
    start: Vec<u32>,
    /// End of node `i`'s provider range (absolute edge index).
    prov_end: Vec<u32>,
    /// End of node `i`'s customer range (absolute edge index); peers
    /// run from here to `start[i + 1]`.
    cust_end: Vec<u32>,
    /// Flat edge array, grouped by node then class.
    edges: Vec<NodeId>,
}

impl CsrAdjacency {
    /// Providers of `n` (ASes `n` buys transit from).
    #[inline]
    pub fn providers(&self, n: NodeId) -> &[NodeId] {
        &self.edges[self.start[n.index()] as usize..self.prov_end[n.index()] as usize]
    }

    /// Customers of `n` (ASes buying transit from `n`).
    #[inline]
    pub fn customers(&self, n: NodeId) -> &[NodeId] {
        &self.edges[self.prov_end[n.index()] as usize..self.cust_end[n.index()] as usize]
    }

    /// Settlement-free peers of `n`.
    #[inline]
    pub fn peers(&self, n: NodeId) -> &[NodeId] {
        &self.edges[self.cust_end[n.index()] as usize..self.start[n.index() + 1] as usize]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.start.len() - 1
    }

    /// Number of directed edges (each undirected link counts twice).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }
}

/// The complete synthetic Internet: geography, ASes, PoPs, facilities,
/// IXPs and the business-relationship graph.
///
/// Construct via [`crate::generator`] ([`Topology::generate`]) or
/// assemble by hand in tests with [`Topology::builder`].
#[derive(Debug)]
pub struct Topology {
    /// City database the topology is embedded in.
    pub cities: CityDb,
    asns: Vec<AsInfo>,
    asn_index: HashMap<Asn, usize>,
    pops: Vec<Pop>,
    facilities: Vec<Facility>,
    ixps: Vec<Ixp>,
    adjacency: HashMap<Asn, Adjacency>,
    /// Dense ASN ↔ NodeId mapping, shared with routing tables.
    node_index: Arc<NodeIndex>,
    /// Flat CSR adjacency in NodeId space (the routing core's view of
    /// `adjacency`).
    csr: CsrAdjacency,
    /// Cached: ASNs per [`AsType`], indexed by [`AsType::index`], in
    /// insertion order.
    asns_by_type: [Vec<Asn>; 6],
    /// Cached: cities where each AS has a PoP, ascending and deduped.
    pop_cities: HashMap<Asn, Box<[CityId]>>,
    /// Cached: facilities by city.
    facilities_by_city: HashMap<CityId, Vec<FacilityId>>,
}

impl Topology {
    /// Starts building an empty topology over the embedded city database.
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder::new(CityDb::embedded())
    }

    /// All AS records, in insertion order.
    pub fn ases(&self) -> &[AsInfo] {
        &self.asns
    }

    /// Looks up an AS record.
    pub fn as_info(&self, asn: Asn) -> Option<&AsInfo> {
        self.asn_index.get(&asn).map(|&i| &self.asns[i])
    }

    /// Looks up an AS record, panicking on unknown ASN (for internal use
    /// where the ASN is known-valid by construction).
    pub fn expect_as(&self, asn: Asn) -> &AsInfo {
        self.as_info(asn)
            .unwrap_or_else(|| panic!("unknown {asn} in topology"))
    }

    /// All PoPs, indexed by [`PopId`].
    pub fn pops(&self) -> &[Pop] {
        &self.pops
    }

    /// Looks up a PoP.
    pub fn pop(&self, id: PopId) -> &Pop {
        &self.pops[id.0 as usize]
    }

    /// All facilities, indexed by [`FacilityId`].
    pub fn facilities(&self) -> &[Facility] {
        &self.facilities
    }

    /// Looks up a facility.
    pub fn facility(&self, id: FacilityId) -> &Facility {
        &self.facilities[id.0 as usize]
    }

    /// All IXPs, indexed by [`IxpId`].
    pub fn ixps(&self) -> &[Ixp] {
        &self.ixps
    }

    /// Looks up an IXP.
    pub fn ixp(&self, id: IxpId) -> &Ixp {
        &self.ixps[id.0 as usize]
    }

    /// Adjacency record of `asn` (empty if the AS has no links).
    pub fn adjacency(&self, asn: Asn) -> &Adjacency {
        static EMPTY: std::sync::OnceLock<Adjacency> = std::sync::OnceLock::new();
        self.adjacency
            .get(&asn)
            .unwrap_or_else(|| EMPTY.get_or_init(Adjacency::default))
    }

    /// All ASNs of a given type, in insertion order (cached at build
    /// time — no scan, no allocation).
    pub fn asns_of_type(&self, t: AsType) -> &[Asn] {
        &self.asns_by_type[t.index()]
    }

    /// All eyeball ASNs.
    pub fn eyeball_asns(&self) -> &[Asn] {
        self.asns_of_type(AsType::Eyeball)
    }

    /// The shared dense ASN ↔ [`NodeId`] mapping.
    pub fn node_index(&self) -> &Arc<NodeIndex> {
        &self.node_index
    }

    /// The CSR adjacency the routing core sweeps over.
    pub fn csr(&self) -> &CsrAdjacency {
        &self.csr
    }

    /// Cities where `asn` has a PoP, in ascending id order without
    /// repeats (empty for an unknown AS).
    pub fn pop_cities(&self, asn: Asn) -> &[CityId] {
        self.pop_cities.get(&asn).map_or(&[], |c| c)
    }

    /// Facilities located in `city`.
    pub fn facilities_in_city(&self, city: CityId) -> &[FacilityId] {
        self.facilities_by_city
            .get(&city)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Whether `a` and `b` are directly connected (any relationship).
    pub fn are_neighbors(&self, a: Asn, b: Asn) -> bool {
        let adj = self.adjacency(a);
        adj.providers.contains(&b) || adj.customers.contains(&b) || adj.peers.contains(&b)
    }

    /// Total number of inter-AS links (each counted once).
    pub fn link_count(&self) -> usize {
        let total: usize = self
            .adjacency
            .values()
            .map(|a| a.providers.len() + a.customers.len() + a.peers.len())
            .sum();
        total / 2
    }

    /// Number of ASes.
    pub fn as_count(&self) -> usize {
        self.asns.len()
    }
}

/// Incremental builder for [`Topology`]; the generator drives this, and
/// tests use it to assemble tiny hand-made topologies.
#[derive(Debug)]
pub struct TopologyBuilder {
    cities: CityDb,
    asns: Vec<AsInfo>,
    asn_index: HashMap<Asn, usize>,
    pops: Vec<Pop>,
    facilities: Vec<Facility>,
    ixps: Vec<Ixp>,
    adjacency: HashMap<Asn, Adjacency>,
}

impl TopologyBuilder {
    /// Creates an empty builder over the given city database.
    pub fn new(cities: CityDb) -> Self {
        TopologyBuilder {
            cities,
            asns: Vec::new(),
            asn_index: HashMap::new(),
            pops: Vec::new(),
            facilities: Vec::new(),
            ixps: Vec::new(),
            adjacency: HashMap::new(),
        }
    }

    /// Access to the city database during construction.
    pub fn cities(&self) -> &CityDb {
        &self.cities
    }

    /// Registers an AS. Panics on duplicate ASN (generator bug).
    pub fn add_as(&mut self, info: AsInfo) {
        let prev = self.asn_index.insert(info.asn, self.asns.len());
        assert!(prev.is_none(), "duplicate {}", info.asn);
        self.adjacency.entry(info.asn).or_default();
        self.asns.push(info);
    }

    /// Adds a PoP for an existing AS and records it on the AS. Returns
    /// the new PoP id.
    pub fn add_pop(&mut self, asn: Asn, city: CityId) -> PopId {
        let id = PopId(self.pops.len() as u32);
        let location = self.cities.get(city).location;
        self.pops.push(Pop {
            id,
            asn,
            city,
            location,
        });
        let idx = *self.asn_index.get(&asn).expect("PoP for unknown AS");
        self.asns[idx].pops.push(id);
        if !self.asns[idx]
            .countries
            .contains(&self.cities.get(city).country)
        {
            let cc = self.cities.get(city).country;
            self.asns[idx].countries.push(cc);
        }
        id
    }

    /// Records that `customer` buys transit from `provider`.
    /// Duplicate and self links are ignored. Panics if either AS was
    /// never registered with [`TopologyBuilder::add_as`] — the CSR
    /// built at [`TopologyBuilder::build`] has no node for it.
    pub fn add_transit(&mut self, customer: Asn, provider: Asn) {
        assert!(
            self.asn_index.contains_key(&customer) && self.asn_index.contains_key(&provider),
            "transit link {customer} -> {provider} references an unregistered AS"
        );
        if customer == provider {
            return;
        }
        let c = self.adjacency.entry(customer).or_default();
        if c.providers.contains(&provider) {
            return;
        }
        c.providers.push(provider);
        self.adjacency
            .entry(provider)
            .or_default()
            .customers
            .push(customer);
    }

    /// Records a settlement-free peering link. Duplicates, self links and
    /// links that already exist as transit are ignored. Panics if
    /// either AS was never registered with [`TopologyBuilder::add_as`].
    pub fn add_peering(&mut self, a: Asn, b: Asn) {
        assert!(
            self.asn_index.contains_key(&a) && self.asn_index.contains_key(&b),
            "peering link {a} -- {b} references an unregistered AS"
        );
        if a == b {
            return;
        }
        {
            let adj_a = self.adjacency.entry(a).or_default();
            if adj_a.peers.contains(&b)
                || adj_a.providers.contains(&b)
                || adj_a.customers.contains(&b)
            {
                return;
            }
            adj_a.peers.push(b);
        }
        self.adjacency.entry(b).or_default().peers.push(a);
    }

    /// Registers a facility; returns its id.
    pub fn add_facility(&mut self, name: String, city: CityId, offers_cloud: bool) -> FacilityId {
        let id = FacilityId(self.facilities.len() as u32);
        self.facilities.push(Facility {
            id,
            name,
            city,
            members: Vec::new(),
            ixps: Vec::new(),
            offers_cloud,
        });
        id
    }

    /// Adds `asn` as a member of `facility` (idempotent).
    pub fn add_facility_member(&mut self, facility: FacilityId, asn: Asn) {
        let f = &mut self.facilities[facility.0 as usize];
        if !f.members.contains(&asn) {
            f.members.push(asn);
        }
    }

    /// Registers an IXP present at the given facilities; returns its id.
    pub fn add_ixp(&mut self, name: String, city: CityId, facilities: Vec<FacilityId>) -> IxpId {
        let id = IxpId(self.ixps.len() as u32);
        for &f in &facilities {
            self.facilities[f.0 as usize].ixps.push(id);
        }
        self.ixps.push(Ixp {
            id,
            name,
            city,
            facilities,
            members: Vec::new(),
        });
        id
    }

    /// Adds `asn` as an IXP member (idempotent).
    pub fn add_ixp_member(&mut self, ixp: IxpId, asn: Asn) {
        let ix = &mut self.ixps[ixp.0 as usize];
        if !ix.members.contains(&asn) {
            ix.members.push(asn);
        }
    }

    /// Finalizes the topology, computing derived caches: PoP cities,
    /// facilities by city, the per-type ASN lists, and the dense
    /// [`NodeIndex`] + [`CsrAdjacency`] the routing core runs on.
    pub fn build(self) -> Topology {
        let mut cities_of: HashMap<Asn, Vec<CityId>> = HashMap::new();
        for pop in &self.pops {
            cities_of.entry(pop.asn).or_default().push(pop.city);
        }
        let pop_cities = cities_of
            .into_iter()
            .map(|(asn, mut cities)| {
                cities.sort_unstable();
                cities.dedup();
                (asn, cities.into_boxed_slice())
            })
            .collect();
        let mut facilities_by_city: HashMap<CityId, Vec<FacilityId>> = HashMap::new();
        for f in &self.facilities {
            facilities_by_city.entry(f.city).or_default().push(f.id);
        }

        let mut asns_by_type: [Vec<Asn>; 6] = Default::default();
        for info in &self.asns {
            asns_by_type[info.as_type.index()].push(info.asn);
        }

        // Freeze the dense views. NodeId order is AS insertion order,
        // and within a node the CSR keeps each class's builder
        // insertion order — both deterministic, so identical builder
        // inputs yield identical flat layouts.
        let node_index = Arc::new(NodeIndex::from_asns(self.asns.iter().map(|a| a.asn)));
        let n = self.asns.len();
        let mut start = Vec::with_capacity(n + 1);
        let mut prov_end = Vec::with_capacity(n);
        let mut cust_end = Vec::with_capacity(n);
        let total_edges: usize = self
            .adjacency
            .values()
            .map(|a| a.providers.len() + a.customers.len() + a.peers.len())
            .sum();
        let mut edges = Vec::with_capacity(total_edges);
        start.push(0u32);
        let empty = Adjacency::default();
        for info in &self.asns {
            let adj = self.adjacency.get(&info.asn).unwrap_or(&empty);
            let to_node = |asn: &Asn| node_index.node(*asn).expect("edge to unknown AS");
            edges.extend(adj.providers.iter().map(to_node));
            prov_end.push(edges.len() as u32);
            edges.extend(adj.customers.iter().map(to_node));
            cust_end.push(edges.len() as u32);
            edges.extend(adj.peers.iter().map(to_node));
            start.push(edges.len() as u32);
        }
        let csr = CsrAdjacency {
            start,
            prov_end,
            cust_end,
            edges,
        };

        Topology {
            cities: self.cities,
            asns: self.asns,
            asn_index: self.asn_index,
            pops: self.pops,
            facilities: self.facilities,
            ixps: self.ixps,
            adjacency: self.adjacency,
            node_index,
            csr,
            asns_by_type,
            pop_cities,
            facilities_by_city,
        }
    }
}

// Read-only snapshot accessors used by the generator module (fields are
// private to protect invariants; these expose copies, not handles).
impl TopologyBuilder {
    pub(crate) fn snapshot_impl(&self) -> Vec<(Asn, AsType, Vec<CityId>)> {
        self.asns
            .iter()
            .map(|info| {
                let cities = info
                    .pops
                    .iter()
                    .map(|&p| self.pops[p.0 as usize].city)
                    .collect();
                (info.asn, info.as_type, cities)
            })
            .collect()
    }

    pub(crate) fn facility_city_impl(&self, id: FacilityId) -> CityId {
        self.facilities[id.0 as usize].city
    }

    pub(crate) fn facility_members_impl(&self, id: FacilityId) -> Vec<Asn> {
        self.facilities[id.0 as usize].members.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shortcuts_geo::CountryCode;

    fn test_as(asn: u32, t: AsType, cc: &str) -> AsInfo {
        AsInfo {
            asn: Asn(asn),
            as_type: t,
            home_country: CountryCode::new(cc).unwrap(),
            countries: vec![],
            pops: vec![],
            prefixes: vec![],
            user_share: 0.0,
            offers_cloud: false,
        }
    }

    fn city(b: &TopologyBuilder, name: &str) -> CityId {
        b.cities().by_name(name).unwrap().id
    }

    #[test]
    fn builder_assembles_graph() {
        let mut b = Topology::builder();
        b.add_as(test_as(1, AsType::Tier1, "US"));
        b.add_as(test_as(2, AsType::Eyeball, "GB"));
        let lon = city(&b, "London");
        let nyc = city(&b, "NewYork");
        b.add_pop(Asn(1), nyc);
        b.add_pop(Asn(1), lon);
        b.add_pop(Asn(1), nyc);
        b.add_pop(Asn(2), lon);
        b.add_transit(Asn(2), Asn(1));
        let t = b.build();

        assert_eq!(t.as_count(), 2);
        assert_eq!(t.link_count(), 1);
        assert!(t.are_neighbors(Asn(1), Asn(2)));
        assert_eq!(t.adjacency(Asn(2)).providers, vec![Asn(1)]);
        assert_eq!(t.adjacency(Asn(1)).customers, vec![Asn(2)]);
        // PoP cities come back ascending and deduped whatever the
        // insertion order.
        assert!(lon < nyc);
        assert_eq!(t.pop_cities(Asn(1)), [lon, nyc]);
        assert_eq!(t.pop_cities(Asn(2)), [lon]);
        // AS country list got updated from PoPs.
        let info = t.expect_as(Asn(1));
        assert_eq!(info.countries.len(), 2);
    }

    #[test]
    fn duplicate_links_are_ignored() {
        let mut b = Topology::builder();
        b.add_as(test_as(1, AsType::Tier1, "US"));
        b.add_as(test_as(2, AsType::Tier2, "DE"));
        b.add_transit(Asn(2), Asn(1));
        b.add_transit(Asn(2), Asn(1));
        b.add_peering(Asn(1), Asn(2)); // already transit -> ignored
        b.add_peering(Asn(1), Asn(1)); // self -> ignored
        let t = b.build();
        assert_eq!(t.link_count(), 1);
        assert!(t.adjacency(Asn(1)).peers.is_empty());
    }

    #[test]
    fn peering_is_symmetric() {
        let mut b = Topology::builder();
        b.add_as(test_as(1, AsType::Content, "US"));
        b.add_as(test_as(2, AsType::Content, "DE"));
        b.add_peering(Asn(1), Asn(2));
        let t = b.build();
        assert_eq!(t.adjacency(Asn(1)).peers, vec![Asn(2)]);
        assert_eq!(t.adjacency(Asn(2)).peers, vec![Asn(1)]);
    }

    #[test]
    fn facility_and_ixp_registration() {
        let mut b = Topology::builder();
        b.add_as(test_as(1, AsType::Content, "NL"));
        let ams = city(&b, "Amsterdam");
        let f = b.add_facility("Colo-Amsterdam-0".into(), ams, true);
        b.add_facility_member(f, Asn(1));
        b.add_facility_member(f, Asn(1)); // idempotent
        let ix = b.add_ixp("IX-Amsterdam-0".into(), ams, vec![f]);
        b.add_ixp_member(ix, Asn(1));
        let t = b.build();
        assert_eq!(t.facility(f).member_count(), 1);
        assert_eq!(t.facility(f).ixps, vec![ix]);
        assert_eq!(t.ixp(ix).member_count(), 1);
        assert_eq!(t.facilities_in_city(ams), &[f]);
    }

    #[test]
    fn csr_mirrors_adjacency_and_node_index_roundtrips() {
        let mut b = Topology::builder();
        b.add_as(test_as(10, AsType::Tier1, "US"));
        b.add_as(test_as(20, AsType::Tier2, "DE"));
        b.add_as(test_as(30, AsType::Eyeball, "FR"));
        b.add_as(test_as(40, AsType::Eyeball, "GB"));
        b.add_transit(Asn(20), Asn(10));
        b.add_transit(Asn(30), Asn(20));
        b.add_transit(Asn(40), Asn(20));
        b.add_peering(Asn(30), Asn(40));
        let t = b.build();

        let idx = t.node_index();
        assert_eq!(idx.len(), 4);
        for (i, info) in t.ases().iter().enumerate() {
            let node = idx.node(info.asn).expect("every AS indexed");
            assert_eq!(node, NodeId(i as u32), "insertion order");
            assert_eq!(idx.asn(node), info.asn);
        }
        assert!(idx.node(Asn(999)).is_none());

        // Every class range of every node mirrors the Adjacency vecs,
        // in the same order.
        let csr = t.csr();
        assert_eq!(csr.node_count(), 4);
        assert_eq!(csr.edge_count(), 2 * t.link_count());
        for info in t.ases() {
            let node = idx.node(info.asn).unwrap();
            let adj = t.adjacency(info.asn);
            let to_asns = |nodes: &[NodeId]| nodes.iter().map(|&n| idx.asn(n)).collect::<Vec<_>>();
            assert_eq!(to_asns(csr.providers(node)), adj.providers);
            assert_eq!(to_asns(csr.customers(node)), adj.customers);
            assert_eq!(to_asns(csr.peers(node)), adj.peers);
        }
    }

    #[test]
    fn per_type_asn_lists_are_cached_in_insertion_order() {
        let mut b = Topology::builder();
        b.add_as(test_as(3, AsType::Eyeball, "US"));
        b.add_as(test_as(1, AsType::Tier1, "US"));
        b.add_as(test_as(2, AsType::Eyeball, "DE"));
        let t = b.build();
        assert_eq!(t.eyeball_asns(), &[Asn(3), Asn(2)]);
        assert_eq!(t.asns_of_type(AsType::Tier1), &[Asn(1)]);
        assert!(t.asns_of_type(AsType::Research).is_empty());
    }

    #[test]
    fn unknown_asn_lookups_are_safe() {
        let t = Topology::builder().build();
        assert!(t.as_info(Asn(99)).is_none());
        assert!(t.adjacency(Asn(99)).providers.is_empty());
        assert!(t.pop_cities(Asn(99)).is_empty());
    }
}
