//! CSV export of campaign results and analyses.
//!
//! The paper's artifacts are tables and figure series; downstream users
//! (plotting scripts, spreadsheets) want them as plain CSV. Every
//! emitter returns a `String` so callers decide where it goes; fields
//! are RFC-4180-quoted only when needed.

use crate::analysis::facilities::FacilityTable;
use crate::analysis::improvement::ImprovementAnalysis;
use crate::analysis::threshold::ThresholdCurve;
use crate::analysis::top_relays::TopRelayAnalysis;
use crate::colo::FilterFunnel;
use crate::relays::RelayType;
use crate::workflow::CampaignResults;
use shortcuts_datasets::CoveragePoint;
use shortcuts_geo::CityDb;
use std::fmt::Write;

/// Appends one CSV field, quoted if it contains a delimiter, quote or
/// newline.
fn push_field(out: &mut String, s: &str) {
    if s.contains([',', '"', '\n']) {
        out.push('"');
        out.push_str(&s.replace('"', "\"\""));
        out.push('"');
    } else {
        out.push_str(s);
    }
}

/// Per-case dump: one row per (round, pair) with direct RTT and the
/// best stitched RTT per relay type. This is the raw material for every
/// figure.
///
/// Rows are formatted straight into the output: this is megabytes per
/// campaign and the service renders it per finished batch, so there is
/// no per-field `String`. Numbers never need quoting; the two country
/// codes go through `push_field`.
pub fn cases_csv(results: &CampaignResults) -> String {
    const HEADER: &str = "round,src_host,dst_host,src_country,dst_country,intercontinental,\
                          direct_ms,best_cor_ms,best_plr_ms,best_rar_other_ms,best_rar_eye_ms\n";
    // A typical row is 50-60 bytes: reserve once instead of growing a
    // megabyte buffer by doubling (and copying) its way up.
    let mut out = String::with_capacity(HEADER.len() + 64 * results.cases.len());
    out.push_str(HEADER);
    for c in &results.cases {
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{},{},{},", c.round, c.src.0, c.dst.0);
        push_field(&mut out, c.src_country.as_str());
        out.push(',');
        push_field(&mut out, c.dst_country.as_str());
        let _ = write!(out, ",{},{:.3}", c.intercontinental, c.direct_ms);
        for t in RelayType::ALL {
            out.push(',');
            if let Some((_, rtt)) = c.outcome(t).best() {
                let _ = write!(out, "{rtt:.3}");
            }
        }
        out.push('\n');
    }
    out
}

/// Fig.-2 summary: one row per relay type.
pub fn improvement_csv(analysis: &ImprovementAnalysis) -> String {
    let mut out = String::from(
        "type,improved_fraction,median_improvement_ms,over_100ms_fraction,median_improving_relays\n",
    );
    for t in RelayType::ALL {
        let ti = analysis.for_type(t);
        push_field(&mut out, t.label());
        let _ = writeln!(
            out,
            ",{:.4},{:.3},{:.4},{:.1}",
            ti.improved_fraction,
            ti.median_improvement_ms,
            ti.over_100ms_fraction,
            ti.median_improving_relays
        );
    }
    out
}

/// Fig.-3 series: coverage per top-k, one column per type.
pub fn top_relays_csv(analyses: &[TopRelayAnalysis]) -> String {
    let max_k = analyses.iter().map(|a| a.coverage.len()).max().unwrap_or(0);
    let mut out = String::from("k");
    for a in analyses {
        out.push(',');
        out.push_str(a.rtype.label());
    }
    out.push('\n');
    for k in 1..=max_k {
        out.push_str(&k.to_string());
        for a in analyses {
            out.push(',');
            out.push_str(&format!("{:.4}", a.coverage_at(k)));
        }
        out.push('\n');
    }
    out
}

/// Fig.-4 series: one column per curve.
pub fn threshold_csv(curves: &[ThresholdCurve]) -> String {
    let mut out = String::from("threshold_ms");
    for c in curves {
        let suffix = match c.top_k {
            Some(k) => format!("top{k}"),
            None => "all".to_string(),
        };
        out.push(',');
        out.push_str(&format!("{}_{}", c.rtype.label(), suffix));
    }
    out.push('\n');
    if let Some(first) = curves.first() {
        for (i, &(x, _)) in first.points.iter().enumerate() {
            out.push_str(&format!("{x:.0}"));
            for c in curves {
                out.push(',');
                out.push_str(&format!("{:.4}", c.points[i].1));
            }
            out.push('\n');
        }
    }
    out
}

/// §2.2 funnel as CSV.
pub fn funnel_csv(funnel: &FilterFunnel) -> String {
    let mut out = String::from("stage,kept\n");
    for (name, kept) in [
        ("raw", funnel.initial),
        ("single_facility", funnel.single_facility),
        ("pingable", funnel.pingable),
        ("ownership", funnel.ownership),
        ("presence", funnel.presence),
        ("geolocated", funnel.geolocated),
    ] {
        out.push_str(&format!("{name},{kept}\n"));
    }
    out
}

/// The five files `colo-shortcuts campaign` writes, named, in the
/// order it writes them: the per-case dump, then Figs. 2-4 and the
/// funnel. The paper report writes the same five.
pub fn campaign_csvs(results: &CampaignResults) -> [(&'static str, String); 5] {
    let improvement = ImprovementAnalysis::compute(results);
    let tops = RelayType::ALL.map(|t| TopRelayAnalysis::compute(results, t, 200));
    let xs: Vec<f64> = (0..=20).map(|i| f64::from(i) * 5.0).collect();
    let curves: Vec<ThresholdCurve> = RelayType::ALL
        .iter()
        .flat_map(|&t| [Some(10), None].map(|k| ThresholdCurve::compute(results, t, k, &xs)))
        .collect();
    [
        ("cases.csv", cases_csv(results)),
        ("improvement.csv", improvement_csv(&improvement)),
        ("top_relays.csv", top_relays_csv(&tops)),
        ("threshold.csv", threshold_csv(&curves)),
        ("funnel.csv", funnel_csv(&results.colo_pool.funnel)),
    ]
}

/// Fig.-1 series: ASes and countries covered per cutoff.
pub fn coverage_csv(curve: &[CoveragePoint]) -> String {
    let mut out = String::from("cutoff_pct,ases,countries\n");
    for p in curve {
        let _ = writeln!(out, "{:.0},{},{}", p.cutoff_pct, p.n_ases, p.n_countries);
    }
    out
}

/// Fig.-2 series: the CDF of improvements at `xs` ms, one column per
/// type.
pub fn improvement_cdf_csv(analysis: &ImprovementAnalysis, xs: &[f64]) -> String {
    let mut out = String::from("x_ms,COR,PLR,RAR_other,RAR_eye\n");
    let cdfs = RelayType::ALL.map(|t| analysis.cdf(t, xs));
    for (i, x) in xs.iter().enumerate() {
        let _ = write!(out, "{x:.0}");
        for cdf in &cdfs {
            let _ = write!(out, ",{:.4}", cdf[i].1);
        }
        out.push('\n');
    }
    out
}

/// Table 1: one row per facility of the top COR relays; `hub` says
/// whether its city is a hub metro.
pub fn facilities_csv(table: &FacilityTable, cities: &CityDb) -> String {
    let mut out =
        String::from("rank,facility,improved_pct,city,country,nets,ixps,cloud,pdb_top10,hub\n");
    for (i, row) in table.rows.iter().enumerate() {
        let _ = write!(out, "{},", i + 1);
        push_field(&mut out, &row.name);
        let _ = write!(out, ",{:.4},", row.improved_pct);
        push_field(&mut out, &row.city);
        out.push(',');
        push_field(&mut out, &row.country);
        let hub = cities.by_name(&row.city).is_some_and(|c| c.is_hub);
        let _ = writeln!(
            out,
            ",{},{},{},{},{hub}",
            row.net_count, row.ixp_count, row.offers_cloud, row.pdb_top10
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::improvement::tests::synthetic_results;

    #[test]
    fn csv_field_quoting() {
        let field = |s: &str| {
            let mut out = String::from("x,");
            push_field(&mut out, s);
            out
        };
        assert_eq!(field("plain"), "x,plain");
        assert_eq!(field(""), "x,");
        assert_eq!(field("a,b"), "x,\"a,b\"");
        assert_eq!(field("say \"hi\""), "x,\"say \"\"hi\"\"\"");
        assert_eq!(field("two\nlines"), "x,\"two\nlines\"");
    }

    #[test]
    fn cases_csv_has_header_and_rows() {
        let r = synthetic_results();
        let csv = cases_csv(&r);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + r.cases.len());
        assert!(lines[0].starts_with("round,src_host"));
        // Row 1: direct 100, best COR 80.
        assert!(lines[1].contains("100.000"));
        assert!(lines[1].contains("80.000"));
    }

    #[test]
    fn improvement_csv_is_complete() {
        let r = synthetic_results();
        let a = ImprovementAnalysis::compute(&r);
        let csv = improvement_csv(&a);
        assert_eq!(csv.lines().count(), 5);
        assert!(csv.contains("COR,0.5000"));
    }

    #[test]
    fn series_csvs_align() {
        let r = synthetic_results();
        let analyses: Vec<TopRelayAnalysis> = RelayType::ALL
            .iter()
            .map(|&t| TopRelayAnalysis::compute(&r, t, 10))
            .collect();
        let csv = top_relays_csv(&analyses);
        assert!(csv.starts_with("k,COR,PLR,RAR_other,RAR_eye"));

        let xs = [0.0, 10.0, 20.0];
        let curves: Vec<ThresholdCurve> = RelayType::ALL
            .iter()
            .map(|&t| ThresholdCurve::compute(&r, t, None, &xs))
            .collect();
        let csv = threshold_csv(&curves);
        assert_eq!(csv.lines().count(), 1 + xs.len());
    }

    #[test]
    fn funnel_csv_rows() {
        let r = synthetic_results();
        let csv = funnel_csv(&r.colo_pool.funnel);
        assert_eq!(csv.lines().count(), 7);
        assert!(csv.starts_with("stage,kept"));
    }
}
