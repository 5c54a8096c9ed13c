//! Hosts: pingable IP endpoints with a location and an owning AS.
//!
//! Everything the campaign pings — RIPE Atlas probes, PlanetLab nodes,
//! colo router interfaces — is a [`Host`]. The registry allocates each
//! host an address from its AS's prefix space and resolves IPs back to
//! hosts, which is what the ping engine operates on.

use crate::fasthash::FastMap;
use shortcuts_geo::{CityId, GeoPoint};
use shortcuts_topology::{Asn, NodeId, Topology};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Dense host identifier (index into the registry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub u32);

/// Dense identifier of a *site*: one `(AS, city)` combination at least
/// one host sits at. Everything deterministic about a ping except the
/// two hosts' last-mile `access_ms` — routes, hand-off kilometers,
/// diurnal midpoint — depends only on the two sites, so the ping
/// engine caches per site pair and every host of a site shares it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub u32);

/// What kind of equipment the host is; purely descriptive, but useful
/// in reports and assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostKind {
    /// An end-host measurement probe (RIPE Atlas style).
    Probe,
    /// A dedicated measurement server (PlanetLab style).
    Server,
    /// A router/server interface inside a colocation facility.
    ColoInterface,
    /// A Looking Glass vantage point.
    LookingGlass,
}

/// A pingable endpoint.
#[derive(Debug, Clone)]
pub struct Host {
    /// Registry id.
    pub id: HostId,
    /// The host's IPv4 address (unique within the registry).
    pub ip: Ipv4Addr,
    /// AS the address belongs to.
    pub asn: Asn,
    /// Dense node id of that AS in the topology the host was
    /// registered against. Carrying it here lets the ping engine hand
    /// routing-table lookups a [`NodeId`] directly instead of hashing
    /// the ASN on every cold pair.
    pub node: NodeId,
    /// City the host is physically in.
    pub city: CityId,
    /// The host's `(node, city)` site, shared with every other host
    /// registered in the same AS and city.
    pub site: SiteId,
    /// Physical location (city center).
    pub location: GeoPoint,
    /// Equipment kind.
    pub kind: HostKind,
    /// Last-mile access delay added to every RTT involving this host
    /// (round trip, ms). Home-connection probes carry several ms of
    /// DSL/cable access latency; datacenter interfaces carry near zero.
    /// Relaying *through* a host pays this twice (once per overlay leg),
    /// which is precisely why end-host relays underperform in the paper.
    pub access_ms: f64,
}

/// Error from host registration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostError {
    /// The AS is not in the topology.
    UnknownAs(Asn),
    /// The AS has no PoP (no place to put a host).
    NoPops(Asn),
    /// The requested city has no PoP of this AS.
    NoPopInCity(Asn, CityId),
    /// The AS's prefixes are exhausted (registry bug at sim scale).
    AddressSpaceExhausted(Asn),
}

impl std::fmt::Display for HostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HostError::UnknownAs(a) => write!(f, "unknown {a}"),
            HostError::NoPops(a) => write!(f, "{a} has no PoPs"),
            HostError::NoPopInCity(a, c) => write!(f, "{a} has no PoP in city {c:?}"),
            HostError::AddressSpaceExhausted(a) => write!(f, "{a} address space exhausted"),
        }
    }
}

impl std::error::Error for HostError {}

/// Registry of all hosts in the simulation.
#[derive(Debug, Default)]
pub struct HostRegistry {
    hosts: Vec<Host>,
    by_ip: HashMap<Ipv4Addr, HostId>,
    /// Site of each `(AS, city)` seen so far, in first-seen order.
    sites: FastMap<(NodeId, CityId), SiteId>,
    /// Next free host index per AS (indexes into the AS's prefixes).
    next_addr: HashMap<Asn, u64>,
}

impl HostRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered hosts.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// Number of distinct `(AS, city)` sites the hosts occupy.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Looks up a host by id.
    pub fn get(&self, id: HostId) -> &Host {
        &self.hosts[id.0 as usize]
    }

    /// Resolves an IP to its host.
    pub fn by_ip(&self, ip: Ipv4Addr) -> Option<&Host> {
        self.by_ip.get(&ip).map(|&id| self.get(id))
    }

    /// Iterates over all hosts.
    pub fn iter(&self) -> impl Iterator<Item = &Host> {
        self.hosts.iter()
    }

    /// Registers a host for `asn` in a specific city (must be a PoP city
    /// of the AS) or, if `city` is `None`, at the AS's first PoP.
    ///
    /// `kind` defaults to [`HostKind::Probe`]; use
    /// [`HostRegistry::add_host`] for full control.
    pub fn add_host_in_as(
        &mut self,
        topo: &Topology,
        asn: Asn,
        city: Option<CityId>,
    ) -> Result<HostId, HostError> {
        self.add_host(topo, asn, city, HostKind::Probe)
    }

    /// Registers a host with an explicit kind. The address is carved out
    /// of the AS's prefixes; skipping `.0` network addresses keeps the
    /// addresses plausible.
    pub fn add_host(
        &mut self,
        topo: &Topology,
        asn: Asn,
        city: Option<CityId>,
        kind: HostKind,
    ) -> Result<HostId, HostError> {
        self.add_host_with_access(topo, asn, city, kind, 0.0)
    }

    /// Registers a host with an explicit last-mile access delay
    /// (round-trip ms added to every ping touching this host).
    pub fn add_host_with_access(
        &mut self,
        topo: &Topology,
        asn: Asn,
        city: Option<CityId>,
        kind: HostKind,
        access_ms: f64,
    ) -> Result<HostId, HostError> {
        let info = topo.as_info(asn).ok_or(HostError::UnknownAs(asn))?;
        let city = match city {
            Some(c) => {
                if !topo.pop_cities(asn).contains(&c) {
                    return Err(HostError::NoPopInCity(asn, c));
                }
                c
            }
            None => {
                let first = info.pops.first().ok_or(HostError::NoPops(asn))?;
                topo.pop(*first).city
            }
        };
        // Allocate the next address across the AS's prefixes.
        let counter = self.next_addr.entry(asn).or_insert(1); // skip .0
        let mut offset = *counter;
        let mut ip = None;
        for p in &info.prefixes {
            if offset < p.size() {
                ip = p.nth(offset);
                break;
            }
            offset -= p.size();
        }
        let ip = ip.ok_or(HostError::AddressSpaceExhausted(asn))?;
        *counter += 1;

        let id = HostId(self.hosts.len() as u32);
        let location = topo.cities.get(city).location;
        let node = topo
            .node_index()
            .node(asn)
            .expect("validated AS has a dense node id");
        let next_site = SiteId(self.sites.len() as u32);
        let site = *self.sites.entry((node, city)).or_insert(next_site);
        self.hosts.push(Host {
            id,
            ip,
            asn,
            node,
            city,
            site,
            location,
            kind,
            access_ms,
        });
        self.by_ip.insert(ip, id);
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shortcuts_topology::TopologyConfig;

    fn small_topo() -> Topology {
        Topology::generate(&TopologyConfig::small(), 21)
    }

    #[test]
    fn add_host_allocates_in_as_prefix() {
        let topo = small_topo();
        let mut reg = HostRegistry::new();
        let asn = topo.eyeball_asns()[0];
        let id = reg.add_host_in_as(&topo, asn, None).unwrap();
        let host = reg.get(id);
        assert_eq!(host.asn, asn);
        assert_eq!(Some(host.node), topo.node_index().node(asn));
        let info = topo.expect_as(asn);
        assert!(
            info.prefixes.iter().any(|p| p.contains(host.ip)),
            "host IP {} outside AS prefixes",
            host.ip
        );
        assert_eq!(reg.by_ip(host.ip).unwrap().id, id);
    }

    #[test]
    fn hosts_get_distinct_ips() {
        let topo = small_topo();
        let mut reg = HostRegistry::new();
        let asn = topo.eyeball_asns()[0];
        let mut ips = std::collections::HashSet::new();
        for _ in 0..50 {
            let id = reg.add_host_in_as(&topo, asn, None).unwrap();
            assert!(ips.insert(reg.get(id).ip));
        }
        assert_eq!(reg.len(), 50);
    }

    #[test]
    fn rejects_unknown_as_and_bad_city() {
        let topo = small_topo();
        let mut reg = HostRegistry::new();
        assert_eq!(
            reg.add_host_in_as(&topo, Asn(999_999), None),
            Err(HostError::UnknownAs(Asn(999_999)))
        );
        let asn = topo.eyeball_asns()[0];
        // Find a city the AS is definitely not in.
        let bad_city = topo
            .cities
            .iter()
            .map(|c| c.id)
            .find(|c| !topo.pop_cities(asn).contains(c))
            .expect("some city without this AS");
        assert_eq!(
            reg.add_host_in_as(&topo, asn, Some(bad_city)),
            Err(HostError::NoPopInCity(asn, bad_city))
        );
    }

    #[test]
    fn host_in_specific_city() {
        let topo = small_topo();
        let mut reg = HostRegistry::new();
        let asn = topo.eyeball_asns()[0];
        let city = topo.pop_cities(asn)[0];
        let id = reg
            .add_host(&topo, asn, Some(city), HostKind::ColoInterface)
            .unwrap();
        let h = reg.get(id);
        assert_eq!(h.city, city);
        assert_eq!(h.kind, HostKind::ColoInterface);
        assert_eq!(h.location.lat(), topo.cities.get(city).location.lat());
    }

    #[test]
    fn hosts_of_one_as_and_city_share_a_site() {
        let topo = small_topo();
        let mut reg = HostRegistry::new();
        let eyes = topo.eyeball_asns();
        let a = reg.add_host_in_as(&topo, eyes[0], None).unwrap();
        let b = reg.add_host_in_as(&topo, eyes[0], None).unwrap();
        let c = reg.add_host_in_as(&topo, eyes[1], None).unwrap();
        assert_eq!(reg.get(a).site, reg.get(b).site);
        assert_ne!(reg.get(a).site, reg.get(c).site);
        // Same AS, another city: another site.
        if let Some(&city) = topo
            .pop_cities(eyes[0])
            .iter()
            .find(|&&c| c != reg.get(a).city)
        {
            let d = reg.add_host_in_as(&topo, eyes[0], Some(city)).unwrap();
            assert_ne!(reg.get(a).site, reg.get(d).site);
        }
        // Site ids are dense.
        assert!(reg.iter().all(|h| (h.site.0 as usize) < reg.site_count()));
    }

    #[test]
    fn ip_skips_network_address() {
        let topo = small_topo();
        let mut reg = HostRegistry::new();
        let asn = topo.eyeball_asns()[0];
        let id = reg.add_host_in_as(&topo, asn, None).unwrap();
        let info = topo.expect_as(asn);
        assert_ne!(reg.get(id).ip, info.prefixes[0].base());
    }
}
