//! The paper report on a small world: it runs exactly one campaign, the
//! paper's, its five campaign CSVs are the bytes `campaign` writes, and
//! `summary.csv` carries every published value exactly once, beside
//! the measured one.

use colo_shortcuts::core::analysis::targets::{target, TARGETS};
use colo_shortcuts::core::paper;
use colo_shortcuts::core::report;
use colo_shortcuts::core::workflow::{Campaign, CampaignConfig};
use colo_shortcuts::core::world::{World, WorldConfig};
use std::collections::HashMap;

#[test]
fn report_shares_campaign_bytes_and_carries_every_target() {
    let world = World::build(&WorldConfig::small(), 2017);
    let mut cfg = CampaignConfig::small();
    cfg.rounds = 2;
    cfg.seed = 2017;
    let mut rounds = Vec::new();
    let files: HashMap<&str, String> = paper::run(&world, &cfg, |s| rounds.push(s.clone()))
        .into_iter()
        .collect();

    // One campaign: the paper's own rounds, each once, in order.
    let mut paper_rounds = Vec::new();
    let results = Campaign::new(&world, cfg).run_streaming(|s| paper_rounds.push(s.clone()));
    assert_eq!(paper_rounds.len(), 2);
    assert_eq!(rounds, paper_rounds);
    for (name, csv) in report::campaign_csvs(&results) {
        assert!(files[name] == csv, "{name} differs from the campaign's");
    }
    for name in ["coverage.csv", "improvement_cdf.csv", "facilities.csv"] {
        assert!(files[name].lines().count() > 1, "{name} has no rows");
    }

    let summary = &files["summary.csv"];
    let mut lines = summary.lines();
    assert_eq!(lines.next(), Some("quantity,measured,paper"));
    let mut seen: HashMap<&str, usize> = HashMap::new();
    for line in lines {
        let cells: Vec<&str> = line.split(',').collect();
        let [quantity, measured, paper] = cells[..] else {
            panic!("not three cells: {line}");
        };
        *seen.entry(quantity).or_default() += 1;
        assert!(measured.parse::<f64>().is_ok(), "{line}");
        if !paper.is_empty() {
            let t =
                target(quantity).unwrap_or_else(|| panic!("paper cell without a target: {line}"));
            assert_eq!(paper.parse::<f64>().ok(), Some(t.paper), "{line}");
        }
    }
    for t in TARGETS {
        assert_eq!(
            seen.get(t.key),
            Some(&1),
            "{} rows for {}",
            seen.get(t.key).unwrap_or(&0),
            t.key
        );
    }
}
