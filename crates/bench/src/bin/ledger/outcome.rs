//! What one run hands back: metric values, the correctness gates it
//! checked, and the notes it prints above the result line.

use crate::catalog::{MetricSpec, PER_LAYER, RUN_SECONDS};
use crate::json::Json;
use shortcuts_netsim::EngineStats;
use std::collections::BTreeMap;

/// Correctness gates and completed steps of one run. `failed_share` is
/// `failed / attempted` over both.
#[derive(Default)]
pub struct Gates {
    pub attempted: u64,
    pub failed: u64,
    /// Printed above the result line: gate verdicts and digests.
    pub notes: Vec<String>,
}

impl Gates {
    /// One correctness gate.
    pub fn check(&mut self, name: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.notes
            .push(format!("gate {name} {}", if ok { "ok" } else { "FAILED" }));
    }

    /// `expected` units of work (streamed rounds, sessions) of which
    /// `completed` finished.
    pub fn steps(&mut self, what: &str, expected: u64, completed: u64) {
        self.attempted += expected;
        self.failed += expected.saturating_sub(completed);
        self.notes
            .push(format!("steps {what} {completed}/{expected}"));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Metric values by catalog name.
pub type Metrics = BTreeMap<&'static str, f64>;

pub struct Outcome {
    pub metrics: Metrics,
    pub gates: Gates,
}

impl Outcome {
    /// The run's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, the latter holding exactly the metrics of `specs`.
    ///
    /// # Panics
    ///
    /// If the run produced a different metric set than the catalog
    /// names — a bug in the ledger, not a measurement.
    pub fn result_line(&self, specs: &[MetricSpec]) -> String {
        let unknown: Vec<_> = self
            .metrics
            .keys()
            .filter(|k| !specs.iter().any(|m| m.name == **k))
            .collect();
        assert!(
            unknown.is_empty(),
            "metrics not in the catalog: {unknown:?}"
        );
        let metrics = specs.iter().map(|m| {
            let value = *self
                .metrics
                .get(m.name)
                .unwrap_or_else(|| panic!("run did not measure {}", m.name));
            (
                m.name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.gates.failed == 0)),
            ("attempted", Json::Num(self.gates.attempted as f64)),
            ("failed", Json::Num(self.gates.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .compact()
    }
}

/// Sets every per-layer metric `applies` picks and the run did not
/// measure to 0: the catalog's "does not apply to this workload".
pub fn zero_fill(metrics: &mut Metrics, applies: impl Fn(&str) -> bool) {
    for spec in PER_LAYER.iter().filter(|spec| applies(spec.name)) {
        metrics.entry(spec.name).or_insert(0.0);
    }
}

/// The engine's own counters (`engine_stats()`, what `STATS` prints per
/// pooled stack) under their catalog names.
pub fn engine_counter_metrics(m: &mut Metrics, st: &EngineStats) {
    let counters = [
        (
            "topology.routing.tables_built",
            st.router_tables_resident + st.router_evictions,
        ),
        ("netsim.pair_cache.hits", st.pair_cache_hits),
        ("netsim.pair_cache.misses", st.pair_cache_misses),
        ("netsim.pair_cache.entries", st.pair_cache_entries),
        ("netsim.pair_cache.bytes", st.pair_resident_bytes),
        ("netsim.pair_cache.evictions", st.pair_evictions),
        ("netsim.pair_cache.revalidated", st.pair_revalidated),
        ("netsim.pings_sent", st.pings_sent),
        ("topology.routing.tables_bytes", st.router_resident_bytes),
        ("topology.routing.table_evictions", st.router_evictions),
        ("topology.routing.table_recomputes", st.router_recomputes),
        ("topology.repair.tables_repaired", st.tables_repaired),
        ("topology.repair.entries_rescanned", st.entries_rescanned),
        ("topology.repair.full_rebuilds", st.full_rebuilds),
        ("topology.intern.paths_interned", st.paths_interned),
        ("topology.intern.dedup_hits", st.path_dedup_hits),
    ];
    for (name, count) in counters {
        m.insert(name, count as f64);
    }
    m.insert("netsim.pair_cache.hit_rate", st.pair_cache_hit_rate());
}

/// A workload size at `seconds` of measuring, from its size at the
/// reference [`RUN_SECONDS`]: linear, at least 1.
pub fn scaled(reference: u32, seconds: u64) -> u32 {
    let n = (u64::from(reference) * seconds + RUN_SECONDS / 2) / RUN_SECONDS;
    u32::try_from(n).unwrap_or(u32::MAX).max(1)
}

/// FNV-1a over the bytes, for "are these two outputs the same bytes":
/// printed with every run, pinned nowhere.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Better;

    #[test]
    fn sizes_scale_with_the_measuring_time() {
        assert_eq!(scaled(10, RUN_SECONDS), 10);
        assert_eq!(scaled(10, 2 * RUN_SECONDS), 20);
        assert_eq!(scaled(10, 1), 1);
        assert_eq!(scaled(150, RUN_SECONDS / 3), 50);
    }

    #[test]
    fn gates_and_steps_feed_the_failed_share() {
        let mut g = Gates::default();
        g.steps("sessions", 40, 38);
        g.check("digest", true);
        g.check("zero_evictions", false);
        assert_eq!((g.attempted, g.failed), (42, 3));
        assert!((g.failed_share() - 3.0 / 42.0).abs() < 1e-12);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let specs = [MetricSpec {
            name: "wall_s",
            unit: "s",
            better: Better::Lower,
            bound: Some(0.1),
            what: "",
        }];
        let mut outcome = Outcome {
            metrics: Metrics::new(),
            gates: Gates::default(),
        };
        outcome.metrics.insert("wall_s", 1.25);
        outcome.gates.steps("rounds", 3, 3);
        assert_eq!(
            outcome.result_line(&specs),
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"wall_s":{"value":1.25,"unit":"s"}}}"#
        );
    }

    #[test]
    fn digest_tells_outputs_apart() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(digest(b"round,src"), digest(b"round,dst"));
    }
}
