#!/usr/bin/env python3
"""Validates Prometheus text expositions scraped from a live `spade serve
--metrics` exporter.

Given two scrapes taken in order (SCRAPE1 then SCRAPE2), asserts:

1. both are non-empty and every non-comment line is a well-formed
   `name{labels} value` pair (value parses as a finite float),
2. the expected core series are present (uptime, per-stage histogram
   summaries, runtime and transport counters),
3. every `*_total` / `*_count` counter present in both scrapes is
   monotone non-decreasing from the first to the second, and uptime
   strictly advances.

Usage:
    ci/check_metrics_scrape.py SCRAPE1.txt SCRAPE2.txt
    ci/check_metrics_scrape.py --self-test
"""

import math
import re
import sys

LINE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*(?:\{[^}]*\})?) (\S+)$")

EXPECTED_SERIES = [
    "spade_uptime_seconds",
    "spade_updates_total",
    "spade_stage_queue_wait_ns_count",
    "spade_stage_publish_ns_count",
    'spade_stage_queue_wait_ns{quantile="0.99"}',
    "spade_net_connections_total",
    "spade_net_edges_accepted_total",
    # Wake bytes the runtime's progress reports wrote to parked event
    # loops: registered when the server binds, so present from the start.
    "spade_net_reactor_progress_wakes_total",
    # SLO scheduler series: registered at worker spawn even when no
    # deadline is configured, so a scrape must always carry them.
    "spade_deadline_miss_total",
    "spade_deadline_slack_ns_count",
]


def parse(path):
    """Returns {series_name_with_labels: float_value}; exits on malformed."""
    with open(path) as f:
        text = f.read()
    if not text.strip():
        sys.exit(f"FAIL: {path} is empty — the exporter served nothing")
    series = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line or line.startswith("#"):
            continue
        m = LINE.match(line)
        if not m:
            sys.exit(f"FAIL: {path}:{lineno}: malformed exposition line: {line!r}")
        name, raw = m.groups()
        try:
            value = float(raw)
        except ValueError:
            sys.exit(f"FAIL: {path}:{lineno}: non-numeric value in: {line!r}")
        if not math.isfinite(value):
            sys.exit(f"FAIL: {path}:{lineno}: non-finite value in: {line!r}")
        if name in series:
            sys.exit(f"FAIL: {path}:{lineno}: duplicate series {name}")
        series[name] = value
    return series


def self_test():
    """Re-runs this gate against the committed fixtures: an advancing
    scrape pair must pass and a backwards counter must fail."""
    import os
    import subprocess

    fixtures = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
    script = os.path.abspath(__file__)
    first = os.path.join(fixtures, "scrape_ok_1.txt")
    cases = [
        (True, [first, os.path.join(fixtures, "scrape_ok_2.txt")]),
        (False, [first, os.path.join(fixtures, "scrape_bad_2.txt")]),
    ]
    for expect_ok, argv in cases:
        proc = subprocess.run([sys.executable, script, *argv],
                              capture_output=True, text=True)
        ok = proc.returncode == 0
        if ok != expect_ok:
            print(proc.stdout)
            print(proc.stderr, file=sys.stderr)
            sys.exit(f"FAIL: self-test case {argv} expected "
                     f"{'pass' if expect_ok else 'fail'} but got rc "
                     f"{proc.returncode}")
    print("OK: self-test — advancing scrapes pass, backwards counter fails")
    return 0


def main():
    if "--self-test" in sys.argv[1:]:
        return self_test()
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    first = parse(sys.argv[1])
    second = parse(sys.argv[2])

    missing = [s for s in EXPECTED_SERIES if s not in first or s not in second]
    if missing:
        sys.exit(f"FAIL: expected series missing from the scrapes: {missing}")

    regressions = []
    for name, before in first.items():
        base = name.split("{", 1)[0]
        if not (base.endswith("_total") or base.endswith("_count")):
            continue
        after = second.get(name)
        # A per-connection labeled series may age out of the tracking
        # window between scrapes; only present-in-both pairs gate.
        if after is not None and after < before:
            regressions.append(f"{name}: {before} -> {after}")
    if regressions:
        sys.exit("FAIL: counters moved backwards between scrapes:\n  "
                 + "\n  ".join(regressions))

    if second["spade_uptime_seconds"] <= first["spade_uptime_seconds"]:
        sys.exit("FAIL: uptime did not advance between scrapes")

    counters = sum(1 for n in first if n.split("{", 1)[0].endswith(("_total", "_count")))
    print(f"OK: {len(first)} series well-formed, {counters} counters monotone, "
          f"uptime advanced {first['spade_uptime_seconds']:.3f}s -> "
          f"{second['spade_uptime_seconds']:.3f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
