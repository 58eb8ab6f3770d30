#!/usr/bin/env python3
"""Connection fan-in gate over BENCH_fanin.json trajectories.

Compares a freshly measured fan-in sweep (the reactor front end under
{4, 16, 64, 128} concurrent producers) against the committed baseline
and asserts:

1. coverage — the fresh sweep carries every producer count the baseline
   does, and each count acked exactly `producers * edges_per_producer`
   edges (a shortfall means a producer gave up or the server dropped a
   connection mid-quota);
2. zero lost acked edges — `lost_acked_edges` is 0 at every count. This
   is the wire-level acked == applied invariant and gates absolutely:
   an acknowledged edge that never reached a shard engine is data loss,
   not noise;
3. monotone-ish throughput — aggregate acked throughput may fall as
   producer counts rise (parked frames are real waiting), but no count may
   collapse below `--min-peak-ratio` of the sweep's own peak. A
   fairness bug (one connection wedging a loop, retry livelock) shows
   up here as a cliff at the high counts;
4. 128-producer wall clock — the largest count completes (producers
   through drain) inside `--wall-budget-s`. A stall that the bench's
   own drain deadline converts into lost edges also lands here;
5. baseline throughput — per matching count, fresh throughput must not
   drop more than `--max-drop` below the committed baseline. The
   tolerance is deliberately loose (default 50%): the baseline is
   machine-specific (absolute tx/s on a shared CI runner is not the
   recording host's) and fan-in numbers swing hard across runner
   classes. Regenerate with
   `cargo run --release -p spade-net --example bench_fanin`.

Usage:
    ci/check_fanin.py BASELINE.json FRESH.json
        [--max-drop 0.5] [--min-peak-ratio 0.01] [--wall-budget-s 180]
    ci/check_fanin.py --self-test
"""

import argparse
import json
import sys


def by_producers(trajectory):
    return {s["producers"]: s for s in trajectory["samples"]}


def self_test():
    """Re-runs this gate against the committed fixtures: the good sweep
    must pass and the lossy sweep must fail."""
    import os
    import subprocess

    fixtures = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
    script = os.path.abspath(__file__)
    cases = [
        (True, [os.path.join(fixtures, "fanin_pass.json"),
                os.path.join(fixtures, "fanin_pass.json")]),
        (False, [os.path.join(fixtures, "fanin_pass.json"),
                 os.path.join(fixtures, "fanin_fail.json")]),
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
    print("OK: self-test — good fixture passes, lossy fixture fails")
    return 0


def main():
    if "--self-test" in sys.argv[1:]:
        return self_test()

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_fanin.json")
    parser.add_argument("fresh", help="freshly measured sweep")
    parser.add_argument(
        "--max-drop", type=float, default=0.5,
        help="max tolerated fractional throughput drop vs baseline per "
             "count (default 0.5)")
    parser.add_argument(
        "--min-peak-ratio", type=float, default=0.01,
        help="every count must sustain at least this fraction of the "
             "fresh sweep's own peak throughput (default 0.01)")
    parser.add_argument(
        "--wall-budget-s", type=float, default=180.0,
        help="wall-clock budget for the largest producer count, "
             "producers through drain (default 180s)")
    args = parser.parse_args()

    with open(args.baseline) as f:
        base_traj = json.load(f)
    with open(args.fresh) as f:
        fresh_traj = json.load(f)
    baseline = by_producers(base_traj)
    fresh = by_producers(fresh_traj)

    failures = []

    # 1. Coverage and exact acked counts.
    for count in sorted(baseline):
        if count not in fresh:
            failures.append(f"producer count {count} missing from the fresh sweep")
    per_producer = fresh_traj.get("edges_per_producer", 0)
    for count, s in sorted(fresh.items()):
        want = count * per_producer
        if per_producer and s["edges_acked"] != want:
            failures.append(
                f"{count} producers acked {s['edges_acked']} edges, expected {want}")

    # 2. Zero lost acked edges, every count.
    for count, s in sorted(fresh.items()):
        if s["lost_acked_edges"] != 0:
            failures.append(
                f"{count} producers lost {s['lost_acked_edges']} acknowledged "
                f"edges — acked == applied violated")

    # 3. No throughput collapse relative to the sweep's own peak.
    peak = max((s["throughput_eps"] for s in fresh.values()), default=0.0)
    floor = peak * args.min_peak_ratio
    for count, s in sorted(fresh.items()):
        if s["throughput_eps"] < floor:
            failures.append(
                f"{count} producers sustained {s['throughput_eps']:,.0f} tx/s, "
                f"below {args.min_peak_ratio:.0%} of the sweep peak "
                f"{peak:,.0f} tx/s — fan-in collapsed")

    # 4. Wall-clock budget at the largest count.
    largest = max(fresh) if fresh else 0
    if fresh:
        wall_s = fresh[largest]["wall_clock_ms"] / 1e3
        if wall_s > args.wall_budget_s:
            failures.append(
                f"{largest} producers took {wall_s:.1f}s wall clock, over the "
                f"{args.wall_budget_s:.0f}s budget")

    # 5. Per-count throughput vs the committed baseline.
    rows = []
    for count in sorted(baseline):
        if count not in fresh:
            continue
        base_tps = baseline[count]["throughput_eps"]
        fresh_tps = fresh[count]["throughput_eps"]
        ratio = fresh_tps / base_tps if base_tps > 0 else float("inf")
        verdict = "ok"
        if ratio < 1.0 - args.max_drop:
            verdict = "REGRESSION"
            failures.append(
                f"{count} producers: {fresh_tps:,.0f} tx/s is "
                f"{(1.0 - ratio) * 100:.1f}% below the baseline "
                f"{base_tps:,.0f} tx/s")
        rows.append((count, base_tps, fresh_tps, ratio,
                     fresh[count]["ack_p99_us"] / 1e3,
                     fresh[count]["busy_rate"], verdict))

    print(f"{'producers':>9} {'baseline tx/s':>14} {'fresh tx/s':>12} "
          f"{'ratio':>6} {'ack p99 ms':>11} {'busy':>6}  verdict")
    for count, base_tps, fresh_tps, ratio, p99_ms, busy, verdict in rows:
        print(f"{count:>9} {base_tps:>14,.0f} {fresh_tps:>12,.0f} "
              f"{ratio:>6.2f} {p99_ms:>11.1f} {busy:>5.0%}  {verdict}")

    if failures:
        print("\nFAIL: fan-in gates regressed:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nOK: zero lost acked edges at every count, no count below "
          f"{args.min_peak_ratio:.0%} of peak, {largest}-producer wall clock "
          f"inside {args.wall_budget_s:.0f}s, no count more than "
          f"{args.max_drop:.0%} under baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
