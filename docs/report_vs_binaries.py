#!/usr/bin/env python3
"""Checks `colo-shortcuts report` against the print-only paper binaries it replaced.

Before `report`, twelve binaries under `crates/bench/src/bin/` printed the
paper's results as text. `report` carries the output of eight of them:
`fig1`-`fig4`, `table1`, `funnel_colo_filters`, `section3_scalars` and
`ablation_placement`. The other four (`extension_two_relay` and the
feasibility, median and routing ablations) left the report; README's table
names the tests that carry their checks. This script reads the eight binaries'
stdout, one `<binary>.txt` per binary in BIN_DIR, and the files `report` wrote
into REPORT_DIR, and checks:

- every number the binaries print (header lines excluded) is in a report file,
  with the same value at the printed precision;
- every published value they print (`paper: ...`) is the `paper` cell of a
  `summary.csv` row, i.e. a `TARGETS` row. The funnel's paper pass rates are
  ratios of two such rows and are checked as ratios.

Numbers that are part of a label (the `10%` cutoff, `320 ms`, `/10`, the
thresholds and top-k of a series' first column) are matched through the row
they select, not counted; so is the raw funnel stage's 100 % pass rate.

Usage, with the binaries built from a checkout that still has them:

    for b in fig1_eyeball_coverage ... ablation_placement; do
        SHORTCUTS_ROUNDS=6 SHORTCUTS_SEED=2017 ./target/release/$b > BIN_DIR/$b.txt
    done
    colo-shortcuts report --rounds 6 --seed 2017 --out REPORT_DIR
    python3 docs/report_vs_binaries.py BIN_DIR REPORT_DIR

Exit status 1 if a number is missing or different.
"""

import csv
import re
import sys
from pathlib import Path

TYPES = ["COR", "PLR", "RAR_other", "RAR_eye"]
NUM = r"[-+]?\d+(?:\.\d+)?"


class Check:
    def __init__(self, report_dir):
        self.dir = Path(report_dir)
        rows = list(csv.DictReader(open(self.dir / "summary.csv")))
        self.summary = {r["quantity"]: r for r in rows}
        self.checked = self.missing = self.different = 0
        self.papers = 0

    def csv(self, name):
        return list(csv.DictReader(open(self.dir / name)))

    def num(self, printed, cell, scale=1.0, what=""):
        """`printed` (a string off the binary's stdout) against a report cell."""
        self.checked += 1
        if cell is None or cell == "":
            self.missing += 1
            print(f"MISSING {what}: printed {printed}")
            return
        # The printed value is rounded to its decimals; a report cell is
        # exact when it is an integer, else rounded to its decimals.
        decimals = len(printed.split(".")[1]) if "." in printed else 0
        cell_error = 0.5 * 10**-len(cell.split(".")[1]) if "." in cell else 0.0
        slack = 0.5 * 10**-decimals + cell_error * scale + 1e-9
        if abs(float(printed) - float(cell) * scale) > slack:
            self.different += 1
            print(f"DIFFERENT {what}: printed {printed}, report {cell} (x{scale})")

    def text(self, printed, cell, what=""):
        self.checked += 1
        if cell != printed:
            self.different += 1
            print(f"DIFFERENT {what}: printed {printed!r}, report {cell!r}")

    def s(self, printed, key, scale=1.0):
        row = self.summary.get(key)
        self.num(printed, row and row["measured"], scale, key)

    def paper(self, printed, key):
        """A published value: the summary row's `paper` cell."""
        self.papers += 1
        row = self.summary.get(key)
        self.num(printed, row and row["paper"], 1.0, f"paper {key}")


def get(table, row, col):
    """A cell of a CSV keyed by its first column, or None."""
    return table.get(row, {}).get(col)


def lines(bin_dir, name):
    # Header: the `== title ==` line and the `world: ...` line.
    return [l for l in open(Path(bin_dir) / f"{name}.txt").read().splitlines()
            if l and not l.startswith("==") and not l.startswith("world:")]


def match(pattern, line):
    m = re.fullmatch(pattern, line.strip())
    assert m, f"unparsed line: {line!r}"
    return m.groups()


def fig1(c, ls):
    cov = {r["cutoff_pct"]: r for r in c.csv("coverage.csv")}
    for l in ls:
        if m := re.fullmatch(rf"\s*(\d+)\s+(\d+)\s+(\d+)", l):
            cut, ases, countries = m.groups()
            c.num(ases, get(cov, cut, "ases"), what=f"coverage {cut}")
            c.num(countries, get(cov, cut, "countries"), what=f"coverage {cut}")
        elif l.startswith("at 10% cutoff"):
            a, co, t, pa, pc, pt = match(
                rf"at 10% cutoff: (\d+) ASes across (\d+)/(\d+) countries "
                rf"\(paper: (\d+) ASes, (\d+)/(\d+) countries\)", l)
            c.s(a, "eyeball_ases_at_10pct")
            c.s(co, "eyeball_countries_at_10pct")
            c.s(t, "countries_total")
            c.paper(pa, "eyeball_ases_at_10pct")
            c.paper(pc, "eyeball_countries_at_10pct")
            c.paper(pt, "countries_total")
        elif l.startswith("verified"):
            v, n = match(r"verified as eyeballs: (\d+)/(\d+) candidate tuples", l)
            c.s(v, "eyeballs_verified")
            c.s(n, "eyeball_candidates")
        elif l.startswith("at "):
            cut, n, multi = match(
                r"at (\d+)%: (\d+) covered countries, (\d+) with more than one AS", l)
            c.num(n, get(cov, cut, "countries"), what=f"coverage {cut}")
            c.s(multi, f"multi_as_countries_at_{cut}pct")
        else:
            assert "cutoff(%)" in l, l


def fig2(c, ls):
    imp = {r["type"]: r for r in c.csv("improvement.csv")}
    cdf = {r["x_ms"]: r for r in c.csv("improvement_cdf.csv")}
    for l in ls:
        if l.startswith("campaign:"):
            g = match(rf"campaign: (\d+) cases, ({NUM}) M pings, avg (\d+) endpoints/round, "
                      rf"avg relays/round COR=(\d+) PLR=(\d+) RAR_other=(\d+) RAR_eye=(\d+)", l)
            c.s(g[0], "campaign_cases")
            c.s(g[1], "campaign_pings")
            c.s(g[2], "endpoints_per_round")
            for t, v in zip(TYPES, g[3:]):
                c.s(v, f"relays_per_round_{t}")
        elif l.startswith("(paper: ~90K"):
            g = match(rf"\(paper: ~(\d+)K direct pairs, ({NUM}) M pings, (\d+) endpoints, "
                      rf"(\d+) COR / (\d+) PLR / (\d+) RAR_other / (\d+) RAR_eye\)", l)
            c.paper(str(int(g[0]) * 1000), "campaign_cases")
            c.paper(g[1], "campaign_pings")
            c.paper(g[2], "endpoints_per_round")
            for t, v in zip(TYPES, g[3:]):
                c.paper(v, f"relays_per_round_{t}")
        elif m := re.fullmatch(rf"(\S+)\s+({NUM})%\s+({NUM})%\s+({NUM})\s+({NUM})%\s+({NUM})", l):
            t, pct, paper, med, over, relays = m.groups()
            c.s(pct, f"improved_pct_{t}")
            c.paper(paper, f"improved_pct_{t}")
            c.num(med, get(imp, t, "median_improvement_ms"), what=f"median {t}")
            c.num(over, get(imp, t, "over_100ms_fraction"), 100.0, f"over100 {t}")
            c.num(relays, get(imp, t, "median_improving_relays"), what=f"relays {t}")
        elif m := re.fullmatch(rf"\s*(\d+)((?:\s+{NUM}){{4}})", l):
            x = m.group(1)
            for t, v in zip(TYPES, m.group(2).split()):
                c.num(v, get(cdf, x, t), what=f"cdf {t} {x}")
        elif m := re.fullmatch(rf"\s+(\S+)\s+[#.]+\s+({NUM})%", l):
            c.s(m.group(2), f"improved_pct_{m.group(1)}")
        elif l.startswith("any type"):
            v, p = match(rf"any type improves: ({NUM})% of total cases \(paper: (\d+)%\)", l)
            c.s(v, "improved_pct_any")
            c.paper(p, "improved_pct_any")
        else:
            assert l.startswith(("type", "CDF", "   x(ms)", "improved share")), l


def fig3(c, ls):
    tops = {r["k"]: r for r in c.csv("top_relays.csv")}
    for l in ls:
        if m := re.fullmatch(rf"\s*(\d+|all)((?:\s+{NUM}){{4}})", l):
            k = m.group(1)
            for t, v in zip(TYPES, m.group(2).split()):
                if k == "all":
                    c.s(v, f"final_coverage_pct_{t}", 0.01)
                else:
                    c.num(v, get(tops, k, t), what=f"top {t} {k}")
        elif l.startswith("top-10 COR"):
            f, pct, share, pf, pp, ps = match(
                rf"top-10 COR relays live in (\d+) facilities and improve ({NUM})% of total "
                rf"cases \(({NUM})% of COR's final coverage\) — paper: (\d+) facilities, "
                rf"(\d+)% of total, ~(\d+)% of improved", l)
            c.s(f, "top10_cor_facilities")
            c.s(pct, "top10_cor_improved_pct")
            c.s(share, "top10_cor_share_pct")
            c.paper(pf, "top10_cor_facilities")
            c.paper(pp, "top10_cor_improved_pct")
            c.paper(ps, "top10_cor_share_pct")
        elif "needs" in l:
            t, k, frac = match(r"(\S+)\s+needs\s+(\d+) relays for (\d+)% of its final coverage", l)
            c.s(k, f"relays_for_{frac}pct_of_final_{t}")
        else:
            assert "#relays" in l, l


def fig4(c, ls):
    th = {r["threshold_ms"]: r for r in c.csv("threshold.csv")}
    cols = [f"{t}_{s}" for t in TYPES for s in ("top10", "all")]
    for l in ls:
        if m := re.fullmatch(rf"\s*(\d+)((?:\s+{NUM}){{8}})", l):
            x = m.group(1)
            for col, v in zip(cols, m.group(2).split()):
                c.num(v, get(th, x, col), what=f"threshold {col} {x}")
        elif l.startswith("top-10 COR"):
            v, p = match(rf"top-10 COR: ({NUM})% of all pairs gain more than 20 ms "
                         rf"\(paper: ~(\d+)%\)", l)
            c.s(v, "top10_cor_over_20ms_pct")
            c.paper(p, "top10_cor_over_20ms_pct")
        elif "gap" in l:
            t, v = match(rf"(\S+)\s+top-10 vs all gap at 0 ms: ({NUM}) percentage points", l)
            c.s(v, f"top10_vs_all_gap_pp_{t}")
        else:
            assert "x(ms)" in l, l


def table1(c, ls):
    rows = {r["rank"]: r for r in c.csv("facilities.csv")}
    for l in ls:
        if m := re.fullmatch(rf"(\d+)\s+(\S+)\s+(\d+)% (\S+) \((\w+)\)\s+(\d+)\s+(\d+)\s+(yes|no)\s+(yes|no)", l):
            rank, name, pct, city, cc, nets, ixps, cloud, pdb = m.groups()
            r = rows.get(rank, {})
            c.text(name, r.get("facility"), f"facility {rank}")
            c.num(pct, r.get("improved_pct"), what=f"improved {rank}")
            c.text(city, r.get("city"), f"city {rank}")
            c.text(cc, r.get("country"), f"country {rank}")
            c.num(nets, r.get("nets"), what=f"nets {rank}")
            c.num(ixps, r.get("ixps"), what=f"ixps {rank}")
            c.text(cloud == "yes", r.get("cloud") == "true", f"cloud {rank}")
            c.text(pdb == "yes", r.get("pdb_top10") == "true", f"pdb {rank}")
        elif l.startswith("top-20"):
            v, p = match(r"top-20 COR relays concentrate in (\d+) facilities \(paper: (\d+)\)", l)
            c.s(v, "top20_cor_facilities")
            c.paper(p, "top20_cor_facilities")
        elif l.startswith("of the first 10"):
            g = match(r"of the first 10 rows: (\d+) in PeeringDB's global top-10 \(paper: (\d+)\), "
                      r"(\d+)/10 with cloud services \(paper: (\d+)/10\), min #nets (\d+) "
                      r"\(paper: (\d+)\)", l)
            for (v, p), key in zip([g[0:2], g[2:4], g[4:6]],
                                   ["table1_pdb_top10_rows", "table1_cloud_rows", "table1_min_nets"]):
                c.s(v, key)
                c.paper(p, key)
        elif "hub metros" in l:
            (v,) = match(r"(\d+)/10 rows are in major hub metros \(paper: all, mainly Western "
                         r"Europe / North America\)", l)
            c.s(v, "table1_hub_rows")
            c.paper("10", "table1_hub_rows")
        else:
            assert l.startswith("#"), l


def funnel(c, ls):
    kept = {r["stage"]: r["kept"] for r in c.csv("funnel.csv")}
    keys = ["raw", "single_facility", "pingable", "ownership", "presence", "geolocated"]
    stages = [l for l in ls if re.search(r"\d+%\s+\d+%$", l)]
    assert len(stages) == 6, stages
    for i, (key, l) in enumerate(zip(keys, stages)):
        n, rate, paper_rate = re.search(r"(\d+)\s+(\d+)%\s+(\d+)%$", l).groups()
        c.num(n, kept.get(key), what=f"funnel.csv {key}")
        c.s(n, f"funnel_{key}")
        if i == 0:
            # The raw stage keeps everything by definition.
            assert rate == paper_rate == "100", l
            continue
        c.s(rate, f"funnel_{key}_kept_pct")
        # The paper rate is the ratio of two published stage counts.
        c.papers += 1
        c.checked += 1
        prev = c.summary[f"funnel_{keys[i - 1]}"]["paper"]
        ratio = 100.0 * float(c.summary[f"funnel_{key}"]["paper"]) / float(prev)
        if abs(ratio - float(paper_rate)) > 0.5 + 1e-9:
            c.different += 1
            print(f"DIFFERENT paper rate {key}: printed {paper_rate}, targets give {ratio}")
    for l in ls:
        if l.startswith("surviving pool"):
            g = match(r"surviving pool: (\d+) IPs at (\d+) facilities in (\d+) cities "
                      r"\(paper: (\d+) IPs, (\d+) facilities, (\d+) cities\)", l)
            for (v, p), key in zip([g[0::3], g[1::3], g[2::3]],
                                   ["funnel_geolocated", "colo_facilities", "colo_cities"]):
                c.s(v, key)
                c.paper(p, key)


def section3(c, ls):
    for l in ls:
        if m := re.fullmatch(r"(COR|PLR|RAR_other|RAR_eye)\s+(\d+)% \(\s*(\d+)\)\s+(\d+)% \(\s*(\d+)\)", l):
            t, dp, dn, sp, sn = m.groups()
            c.s(dp, f"country_diff_improved_pct_{t}")
            c.s(dn, f"country_diff_cases_{t}")
            c.s(sp, f"country_same_improved_pct_{t}")
            c.s(sn, f"country_same_cases_{t}")
        elif l.startswith("(paper, COR"):
            d, s = match(r"\(paper, COR: (\d+)% vs (\d+)%\)", l)
            c.paper(d, "country_diff_improved_pct_COR")
            c.paper(s, "country_same_improved_pct_COR")
        elif l.startswith("intercontinental"):
            v, p = match(r"intercontinental RAE pairs: (\d+)% \(paper: (\d+)%\)", l)
            c.s(v, "intercontinental_pct")
            c.paper(p, "intercontinental_pct")
        elif l.startswith("direct paths over"):
            v, p, w, q = match(rf"direct paths over 320 ms: ({NUM})% \(paper: (\d+)%\); with COR "
                               rf"relays: ({NUM})% \(paper: (\d+)%\)", l)
            c.s(v, "direct_over_320ms_pct")
            c.paper(p, "direct_over_320ms_pct")
            c.s(w, "cor_over_320ms_pct")
            c.paper(q, "cor_over_320ms_pct")
        elif l.startswith("pairs with CV"):
            v, p, w, q = match(r"pairs with CV < 10%: (\d+)% \(paper: (\d+)%\); max CV: (\d+)% "
                               r"\(paper: <=(\d+)%\)", l)
            c.s(v, "cv_below_10pct_pct")
            c.paper(p, "cv_below_10pct_pct")
            c.s(w, "max_cv_pct")
            c.paper(q, "max_cv_pct")
        elif "per-round" in l:
            t, lo, hi = match(rf"(\S+)\s+per-round improved fraction: min ({NUM}) max ({NUM})", l)
            c.s(lo, f"round_min_improved_{t}")
            c.s(hi, f"round_max_improved_{t}")
        elif l.startswith("(paper: COR >"):
            a, b, d = match(rf"\(paper: COR >({NUM}) in every round, RAR_other >({NUM}), "
                            rf"others <({NUM})\)", l)
            c.paper(a, "round_min_improved_COR")
            c.paper(b, "round_min_improved_RAR_other")
            c.paper(d, "round_max_improved_PLR")
            c.paper(d, "round_max_improved_RAR_eye")
        elif "bidirectional" in l:
            n, w, p, d, q = match(rf"(\d+) bidirectional pairs; (\d+)% within 5% \(paper: ~(\d+)%\); "
                                  rf"mean signed diff ({NUM})% \(paper: ~(\d+)%\)", l)
            c.s(n, "symmetry_samples")
            c.s(w, "symmetric_within_5pct_pct")
            c.paper(p, "symmetric_within_5pct_pct")
            c.s(d, "symmetry_mean_diff_pct")
            c.paper(q, "symmetry_mean_diff_pct")
        else:
            assert l.startswith(("--", "type")), l


def ablation_placement(c, ls):
    for l in ls:
        if m := re.fullmatch(rf"(.*?):\s+(\d+)\s+improve\s+({NUM})% of total cases", l):
            name = {"COR relays at hub facilities": "hub",
                    "COR relays at regional facilities": "regional",
                    "all COR relays": "all"}[m.group(1)]
            c.s(m.group(2), f"placement_{name}_relays")
            c.s(m.group(3), f"placement_{name}_improved_pct")
        elif l.startswith("improvements contributed"):
            h, r = match(r"improvements contributed per relay: hub (\d+), regional (\d+)", l)
            c.s(h, "placement_hub_improvements_per_relay")
            c.s(r, "placement_regional_improvements_per_relay")
        else:
            assert l.startswith(("Expected", "relays —")), l


BINARIES = {
    "fig1_eyeball_coverage": fig1, "fig2_improvement_cdf": fig2, "fig3_top_relays": fig3,
    "fig4_threshold_curves": fig4, "table1_top_facilities": table1,
    "funnel_colo_filters": funnel, "section3_scalars": section3,
    "ablation_placement": ablation_placement,
}


def main():
    bin_dir, report_dir = sys.argv[1:3]
    c = Check(report_dir)
    for name, check in BINARIES.items():
        check(c, lines(bin_dir, name))
    print(f"{c.checked} values checked ({c.papers} published): "
          f"{c.missing} missing / {c.different} different")
    sys.exit(1 if c.missing or c.different else 0)


if __name__ == "__main__":
    main()
