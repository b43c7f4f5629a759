#!/usr/bin/env python3
"""Bench-trend pipeline: history, regression gate, and markdown rendering.

Extends tools/check_bench_baseline.py (imported, not duplicated): that
script gates *deterministic* counters against BENCH_BASELINE.json; this
one tracks the *timing* side across runs.

Three modes plus a self-test:

  bench_trend.py append --history BENCH_HISTORY.jsonl --label LABEL FILE...
      FILEs are `bench_* --json` dumps. Appends one JSONL record per file:
      the per-benchmark real_time table plus the run's timing-histogram
      percentiles (telemetry keys with a .ns/.us/.ms suffix). The bench
      binary name is derived from the file stem (bench_psna_explore.json
      -> bench_psna_explore) unless --bench overrides it.

  bench_trend.py check --history BENCH_HISTORY.jsonl [--max-regress 0.15]
      For every bench binary with at least two records, compares the
      latest run against the previous one: per-benchmark real_time ratios
      are collected and the p95 ratio (robust against a single noisy
      outlier) must not exceed 1 + max-regress. Exit 1 on regression.

  bench_trend.py render --history BENCH_HISTORY.jsonl --experiments FILE
      Rewrites the block between <!-- BENCH_TREND_BEGIN --> and
      <!-- BENCH_TREND_END --> in FILE with a per-binary trend table
      (runs, latest label, geomean real_time, delta vs previous run).

  bench_trend.py --self-test
      Synthesizes a history with an injected +30% p95 regression and
      asserts `check` fails on it (and passes on a +5% drift), then
      round-trips `render`. Registered as a ctest, so the gate's teeth
      are themselves regression-tested.
"""

import argparse
import json
import math
import os
import re
import sys
import tempfile
from datetime import datetime, timezone

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from check_bench_baseline import fail  # noqa: E402  (shared failure style)

TIMING_SUFFIX = re.compile(r"\.(ns|us|ms)$")
BEGIN_MARK = "<!-- BENCH_TREND_BEGIN -->"
END_MARK = "<!-- BENCH_TREND_END -->"


def load_history(path):
    records = []
    if not os.path.exists(path):
        return records
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as e:
                fail(f"{path}:{lineno}: bad history line: {e}")
    return records


def bench_name_from_path(path):
    stem = os.path.splitext(os.path.basename(path))[0]
    return stem


def timing_percentiles(report):
    """p50/p90/p99 of every timing histogram in a report object."""
    out = {}
    for key, hist in (report.get("histograms") or {}).items():
        if not TIMING_SUFFIX.search(key):
            continue
        out[key] = {
            p: hist[p] for p in ("p50", "p90", "p99") if p in hist
        }
    return out


def record_from_bench_json(path, label, bench):
    data = json.load(open(path))
    benchmarks = data.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        fail(f"{path}: no 'benchmarks' array — not a bench_* --json dump?")
    times = {}
    for b in benchmarks:
        if "name" not in b or "real_time" not in b:
            fail(f"{path}: benchmark entry without name/real_time")
        times[b["name"]] = {
            "real_time": b["real_time"],
            "time_unit": b.get("time_unit", "ns"),
        }
    record = {
        "ts": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "label": label,
        "bench": bench or bench_name_from_path(path),
        "benchmarks": times,
    }
    hists = timing_percentiles(data.get("telemetry") or {})
    if hists:
        record["timing_hists"] = hists
    return record


def do_append(args):
    with open(args.history, "a") as out:
        for path in args.files:
            rec = record_from_bench_json(path, args.label, args.bench)
            out.write(json.dumps(rec, sort_keys=True) + "\n")
            print(
                f"bench_trend: appended {rec['bench']} "
                f"({len(rec['benchmarks'])} benchmarks) from {path}"
            )


def p95(values):
    """95th percentile by rank (nearest-rank on the sorted list)."""
    ordered = sorted(values)
    rank = max(0, math.ceil(0.95 * len(ordered)) - 1)
    return ordered[rank]


def by_bench(records):
    groups = {}
    for rec in records:
        groups.setdefault(rec.get("bench", "?"), []).append(rec)
    return groups


def compare_runs(prev, last):
    """Per-benchmark real_time ratios for names present in both runs."""
    ratios = {}
    prev_times = prev.get("benchmarks", {})
    for name, cur in last.get("benchmarks", {}).items():
        old = prev_times.get(name)
        if not old or not old.get("real_time"):
            continue
        ratios[name] = cur["real_time"] / old["real_time"]
    return ratios


def do_check(args):
    records = load_history(args.history)
    if not records:
        print("bench_trend: OK: empty history, nothing to gate")
        return
    failures = []
    for bench, runs in sorted(by_bench(records).items()):
        if len(runs) < 2:
            print(f"bench_trend: {bench}: only one run, skipping")
            continue
        prev, last = runs[-2], runs[-1]
        ratios = compare_runs(prev, last)
        if not ratios:
            print(f"bench_trend: {bench}: no common benchmarks, skipping")
            continue
        worst = p95(ratios.values())
        limit = 1.0 + args.max_regress
        verdict = "FAIL" if worst > limit else "ok"
        print(
            f"bench_trend: {bench}: p95 real_time ratio "
            f"{worst:.3f} (limit {limit:.2f}, {len(ratios)} benchmarks, "
            f"{prev.get('label')} -> {last.get('label')}) {verdict}"
        )
        if worst > limit:
            slowest = sorted(
                ratios.items(), key=lambda kv: kv[1], reverse=True
            )[:5]
            for name, ratio in slowest:
                print(f"bench_trend:   {ratio:6.3f}x  {name}")
            failures.append(bench)
    if failures:
        fail(
            f"p95 real_time regression over {args.max_regress:.0%} in: "
            + ", ".join(failures)
        )
    print("bench_trend: OK")


def geomean_ns(run):
    times = [
        b["real_time"]
        for b in run.get("benchmarks", {}).values()
        if b.get("real_time", 0) > 0
    ]
    if not times:
        return 0.0
    return math.exp(sum(math.log(t) for t in times) / len(times))


def render_table(records):
    lines = [
        "| bench | runs | latest | geomean real_time | vs prev (p95) |",
        "|-------|------|--------|-------------------|---------------|",
    ]
    for bench, runs in sorted(by_bench(records).items()):
        last = runs[-1]
        geo = geomean_ns(last)
        if len(runs) >= 2:
            ratios = compare_runs(runs[-2], last)
            delta = f"{(p95(ratios.values()) - 1.0) * 100:+.1f}%" if ratios \
                else "n/a"
        else:
            delta = "—"
        lines.append(
            f"| {bench} | {len(runs)} | {last.get('label', '?')} "
            f"| {geo:,.0f} ns | {delta} |"
        )
    return "\n".join(lines)


def do_render(args):
    records = load_history(args.history)
    text = open(args.experiments).read()
    begin = text.find(BEGIN_MARK)
    end = text.find(END_MARK)
    if begin < 0 or end < 0 or end < begin:
        fail(f"{args.experiments}: missing {BEGIN_MARK} / {END_MARK} markers")
    table = render_table(records) if records else "_no bench history yet_"
    new = (
        text[: begin + len(BEGIN_MARK)]
        + "\n"
        + table
        + "\n"
        + text[end:]
    )
    with open(args.experiments, "w") as out:
        out.write(new)
    print(
        f"bench_trend: rendered {len(records)} history records into "
        f"{args.experiments}"
    )


def synth_bench_json(path, scale):
    data = {
        "benchmarks": [
            {
                "name": f"suite/case{i}",
                "real_time": 1000.0 * (i + 1) * scale,
                "cpu_time": 900.0 * (i + 1) * scale,
                "time_unit": "ns",
                "iterations": 100,
            }
            for i in range(8)
        ],
        "telemetry": {
            "counters": {},
            "gauges": {},
            "histograms": {
                "psna.step.us": {
                    "count": 10,
                    "p50": 5.0 * scale,
                    "p90": 9.0 * scale,
                    "p99": 12.0 * scale,
                }
            },
        },
    }
    json.dump(data, open(path, "w"))


def run_mode(argv):
    """Runs main() with argv, returning the exit code instead of raising."""
    try:
        main(argv)
        return 0
    except SystemExit as e:
        return int(e.code or 0)


def self_test():
    with tempfile.TemporaryDirectory(prefix="bench_trend_") as tmp:
        hist = os.path.join(tmp, "BENCH_HISTORY.jsonl")
        base = os.path.join(tmp, "bench_synth.json")
        regress = os.path.join(tmp, "bench_regress.json")
        drift = os.path.join(tmp, "bench_drift.json")
        synth_bench_json(base, 1.0)
        synth_bench_json(regress, 1.30)  # injected >15% p95 regression
        synth_bench_json(drift, 1.05)

        assert run_mode(
            ["append", "--history", hist, "--label", "base",
             "--bench", "bench_synth", base]) == 0
        # One run: nothing to compare yet.
        assert run_mode(["check", "--history", hist]) == 0

        # The injected +30% run must trip the 15% gate.
        assert run_mode(
            ["append", "--history", hist, "--label", "bad",
             "--bench", "bench_synth", regress]) == 0
        assert run_mode(["check", "--history", hist]) != 0, (
            "check accepted an injected +30% p95 regression"
        )

        # A drift back down vs the regressed run must pass (1.05/1.30 < 1).
        assert run_mode(
            ["append", "--history", hist, "--label", "ok",
             "--bench", "bench_synth", drift]) == 0
        assert run_mode(["check", "--history", hist]) == 0

        # ...and a loosened gate accepts even the bad pair.
        hist2 = os.path.join(tmp, "H2.jsonl")
        for label, path in (("base", base), ("bad", regress)):
            run_mode(["append", "--history", hist2, "--label", label,
                      "--bench", "bench_synth", path])
        assert run_mode(
            ["check", "--history", hist2, "--max-regress", "0.50"]) == 0

        # Render round-trip: the markers survive and the table lands.
        exp = os.path.join(tmp, "EXPERIMENTS.md")
        with open(exp, "w") as out:
            out.write(f"# Trends\n\n{BEGIN_MARK}\n{END_MARK}\n\ntail\n")
        assert run_mode(["render", "--history", hist,
                         "--experiments", exp]) == 0
        text = open(exp).read()
        assert BEGIN_MARK in text and END_MARK in text
        assert "bench_synth" in text and "tail" in text
        # Idempotent: a second render replaces, not duplicates.
        assert run_mode(["render", "--history", hist,
                         "--experiments", exp]) == 0
        assert open(exp).read().count("| bench |") == 1

    print("bench_trend: self-test OK")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--self-test", action="store_true",
                    help="exercise the gate against synthetic regressions")
    sub = ap.add_subparsers(dest="mode")

    ap_append = sub.add_parser("append", help="append bench --json runs")
    ap_append.add_argument("--history", required=True)
    ap_append.add_argument("--label", required=True,
                           help="run label (e.g. git SHA)")
    ap_append.add_argument("--bench",
                           help="bench binary name (default: file stem)")
    ap_append.add_argument("files", nargs="+")

    ap_check = sub.add_parser("check", help="gate latest run vs previous")
    ap_check.add_argument("--history", required=True)
    ap_check.add_argument("--max-regress", type=float, default=0.15,
                          help="allowed p95 real_time growth (default 0.15)")

    ap_render = sub.add_parser("render", help="write the trend table")
    ap_render.add_argument("--history", required=True)
    ap_render.add_argument("--experiments", required=True)

    args = ap.parse_args(argv)
    if args.self_test:
        self_test()
    elif args.mode == "append":
        do_append(args)
    elif args.mode == "check":
        do_check(args)
    elif args.mode == "render":
        do_render(args)
    else:
        ap.error("need a mode (append/check/render) or --self-test")


if __name__ == "__main__":
    main()
