//! Table 1 — the facilities hosting the top COR relays, with PeeringDB
//! enrichment.
//!
//! The paper ranks the top-20 COR relays by frequency of presence in
//! improved paths, groups them by facility (only 10 facilities contain
//! all 20) and reports, per facility: the percentage of improved cases
//! it appears in, city/country, number of colocated networks, number of
//! IXPs, cloud services, and whether it is in PeeringDB's global top-10
//! by colocated networks.

use crate::analysis::top_relays::TopRelayAnalysis;
use crate::relays::RelayType;
use crate::workflow::CampaignResults;
use crate::world::World;
use shortcuts_topology::FacilityId;
use std::collections::{HashMap, HashSet};

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct FacilityRow {
    /// The facility.
    pub facility: FacilityId,
    /// Facility name.
    pub name: String,
    /// Percentage of COR-improved cases in which one of this facility's
    /// top relays appears (the paper's "% of Improved Cases").
    pub improved_pct: f64,
    /// City name.
    pub city: String,
    /// Country code.
    pub country: String,
    /// Number of colocated networks (PeeringDB).
    pub net_count: usize,
    /// Number of IXPs present (PeeringDB).
    pub ixp_count: usize,
    /// Cloud services available on site.
    pub offers_cloud: bool,
    /// Facility in PeeringDB's global top-10 by colocated networks.
    pub pdb_top10: bool,
}

/// The Table 1 analysis.
#[derive(Debug, Clone)]
pub struct FacilityTable {
    /// Rows sorted by `improved_pct` descending.
    pub rows: Vec<FacilityRow>,
    /// How many top relays were considered (paper: 20).
    pub top_relays_considered: usize,
}

impl FacilityTable {
    /// Builds Table 1 from the campaign's results: take the top
    /// `top_relays` COR relays, group by facility, enrich from
    /// PeeringDB.
    pub fn compute(world: &World, results: &CampaignResults, top_relays: usize) -> Self {
        let ranking = TopRelayAnalysis::compute(results, RelayType::Cor, top_relays);
        let top_hosts = ranking.top_hosts(top_relays);
        let top_set: HashSet<_> = top_hosts.iter().copied().collect();

        // Facility of each top relay.
        let mut relay_facility: HashMap<_, FacilityId> = HashMap::new();
        for &host in &top_hosts {
            if let Some(meta) = results.relay_meta.get(&host) {
                if let Some(f) = meta.facility {
                    relay_facility.insert(host, f);
                }
            }
        }

        // Count, per facility, the COR-improved cases in which any of
        // its top relays improves.
        let mut improved_case_total = 0usize;
        let mut per_facility_cases: HashMap<FacilityId, usize> = HashMap::new();
        for c in &results.cases {
            let improving = c.improving(RelayType::Cor);
            if improving.is_empty() {
                continue;
            }
            improved_case_total += 1;
            let mut facilities_here: HashSet<FacilityId> = HashSet::new();
            for &(host, _) in improving {
                if top_set.contains(&host) {
                    if let Some(&f) = relay_facility.get(&host) {
                        facilities_here.insert(f);
                    }
                }
            }
            for f in facilities_here {
                *per_facility_cases.entry(f).or_default() += 1;
            }
        }

        let mut rows: Vec<FacilityRow> = per_facility_cases
            .into_iter()
            .map(|(fid, count)| {
                let pdb = world.peeringdb.facility(fid);
                let topo_f = world.topo.facility(fid);
                let city = world.topo.cities.get(topo_f.city);
                FacilityRow {
                    facility: fid,
                    name: topo_f.name.clone(),
                    improved_pct: 100.0 * count as f64 / improved_case_total.max(1) as f64,
                    city: city.name.to_string(),
                    country: city.country.to_string(),
                    net_count: pdb.map_or(0, |p| p.net_count),
                    ixp_count: pdb.map_or(0, |p| p.ixp_count),
                    offers_cloud: pdb.is_some_and(|p| p.offers_cloud),
                    pdb_top10: world.peeringdb.is_top10(fid),
                }
            })
            .collect();
        rows.sort_by(|a, b| {
            b.improved_pct
                .partial_cmp(&a.improved_pct)
                .expect("finite")
                .then(a.facility.0.cmp(&b.facility.0))
        });

        FacilityTable {
            rows,
            top_relays_considered: top_relays,
        }
    }

    /// Number of distinct facilities hosting the top relays (paper: 10
    /// facilities for the top 20 relays).
    pub fn facility_count(&self) -> usize {
        self.rows.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::{Campaign, CampaignConfig};
    use crate::world::{World, WorldConfig};

    fn run() -> (World, CampaignResults) {
        let world = World::build(&WorldConfig::small(), 31);
        let mut cfg = CampaignConfig::small();
        cfg.rounds = 2;
        let results = Campaign::new(&world, cfg).run();
        (world, results)
    }

    #[test]
    fn table_has_enriched_rows() {
        let (world, results) = run();
        let table = FacilityTable::compute(&world, &results, 20);
        assert!(!table.rows.is_empty(), "no facilities in Table 1");
        assert!(table.facility_count() <= 20);
        for row in &table.rows {
            assert!(row.improved_pct > 0.0 && row.improved_pct <= 100.0);
            assert!(row.net_count > 0, "facility without members in Table 1");
            assert!(!row.city.is_empty());
        }
    }

    #[test]
    fn rows_sorted_by_improvement() {
        let (world, results) = run();
        let table = FacilityTable::compute(&world, &results, 20);
        for w in table.rows.windows(2) {
            assert!(w[0].improved_pct >= w[1].improved_pct);
        }
    }

    #[test]
    fn fewer_facilities_than_relays() {
        let (world, results) = run();
        let table = FacilityTable::compute(&world, &results, 20);
        // The paper's observation: top-20 relays concentrate in ~10
        // facilities. At small scale, just require concentration.
        assert!(table.facility_count() <= table.top_relays_considered);
    }
}
