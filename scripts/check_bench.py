#!/usr/bin/env python3
"""Gate compiled-engine throughput against a checked-in baseline.

Usage:
    check_bench.py NEW.json BASELINE.json [--tolerance 0.20]
                   [--filter compiled] [--sibling compiled=interpreted]
                   [--min-speedup 5] [--min-throughput 1e8]

CI runners and developer machines differ wildly in absolute speed, so the
gated quantity is hardware-normalized: for every baseline result whose id
contains the filter substring and that has a sibling in the same run (the
id with the --sibling pair's left name replaced by its right name — by
default `compiled_*` pairs with `interpreted_*`), the *speedup* (gated
per_sec / sibling per_sec, both measured on the same machine in the same
run) is compared between baseline and fresh run. A fresh speedup more than
the tolerance below the baseline speedup fails, as does a gated benchmark
disappearing. Gated rows without a sibling fall back to the absolute
per_sec comparison. A --filter that matches no baseline id at all is a
hard failure: a gate that checks zero rows is broken, not green.

--min-speedup adds an *absolute* floor on top of the baseline-relative
check: every gated row's fresh within-run speedup must reach at least the
given multiple, regardless of what the baseline recorded. This is how a
paper-level acceptance bar ("at least Nx") is enforced rather than merely
not regressed.

--min-throughput adds an absolute floor on the gated rows' fresh
*per_sec* itself (units are whatever the bench recorded — bytes/sec for
the byte-throughput groups). Unlike the speedup metrics this does NOT
cancel out runner hardware, so set it well below what the slowest
expected runner sustains: it exists to catch order-of-magnitude cliffs
(e.g. the bytes->verdict pipeline dropping to the ~50 MB/s of the
char-at-a-time lexing the bulk scanner replaced), not percent-level
drift — the sibling-normalized tolerance check handles that.

Absolute throughputs are printed for context either way; the E15c
acceptance bar (compiled NWA >= 2x interpreted at 1M events), the E17a
bar (batched DFA >= 1.5x sequential at 1M events, checked with
`--filter batched_dfa --sibling batched=sequential`) and the E18a bar
(artifact load >= 5x compile-and-warm, checked with `--filter
load_summary --sibling load=compile --min-speedup 5`) are visible in the
speedup column of the fresh run.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    return {
        r["id"]: r["throughput"]["per_sec"]
        for r in doc.get("results", [])
        if "throughput" in r
    }


def speedup(results, bench_id, pair):
    """gated/sibling ratio within one run, or None if no sibling."""
    name, sibling_name = pair
    sibling = bench_id.replace(name, sibling_name)
    if sibling != bench_id and sibling in results and results[sibling]:
        return results[bench_id] / results[sibling]
    return None


def main(argv=None):
    """Run the gate; returns a process exit code (0 pass, 1 fail, 2 usage).

    `argv` defaults to `sys.argv[1:]`; the unit tests in
    `test_check_bench.py` pass explicit argument lists instead.
    """
    ap = argparse.ArgumentParser()
    ap.add_argument("new")
    ap.add_argument("baseline")
    ap.add_argument("--tolerance", type=float, default=0.20,
                    help="allowed fractional drop (default 0.20)")
    ap.add_argument("--filter", default="compiled",
                    help="gate only ids containing this substring")
    ap.add_argument("--sibling", default="compiled=interpreted",
                    help="NAME=SIBLING id-substring pair defining the "
                         "within-run speedup denominator "
                         "(default compiled=interpreted)")
    ap.add_argument("--min-speedup", type=float, default=None,
                    help="absolute floor: every gated row's fresh "
                         "within-run speedup must reach this multiple")
    ap.add_argument("--min-throughput", type=float, default=None,
                    help="absolute floor on every gated row's fresh "
                         "per_sec (not hardware-normalized; set it low "
                         "enough for the slowest expected runner)")
    args = ap.parse_args(argv)

    pair = args.sibling.split("=", 1)
    if len(pair) != 2 or not pair[0] or not pair[1]:
        ap.error("--sibling must look like NAME=SIBLING")

    new = load(args.new)
    base = load(args.baseline)

    failures = []
    gated_rows = 0
    print(f"{'benchmark':<52} {'metric':>8} {'baseline':>12} {'current':>12} {'ratio':>7}")
    for bench_id, base_per_sec in sorted(base.items()):
        if args.filter not in bench_id:
            continue
        gated_rows += 1
        if bench_id not in new:
            failures.append(f"{bench_id}: missing from the fresh run")
            continue
        base_speedup = speedup(base, bench_id, pair)
        new_speedup = speedup(new, bench_id, pair)
        if base_speedup is not None and new_speedup is not None:
            metric, base_v, new_v = "speedup", base_speedup, new_speedup
        else:
            # No interpreted sibling: absolute throughput is all we have.
            metric, base_v, new_v = "per_sec", base_per_sec, new[bench_id]
        ratio = new_v / base_v if base_v else float("inf")
        flag = ""
        if ratio < 1.0 - args.tolerance:
            failures.append(
                f"{bench_id}: {metric} {new_v:.3g} is "
                f"{(1.0 - ratio) * 100:.0f}% below the baseline {base_v:.3g}"
            )
            flag = "  << REGRESSION"
        if (args.min_speedup is not None and metric == "speedup"
                and new_v < args.min_speedup):
            failures.append(
                f"{bench_id}: speedup {new_v:.3g} is below the absolute "
                f"floor {args.min_speedup:g}"
            )
            flag = "  << BELOW FLOOR"
        if (args.min_throughput is not None
                and new[bench_id] < args.min_throughput):
            failures.append(
                f"{bench_id}: per_sec {new[bench_id]:.3g} is below the "
                f"absolute floor {args.min_throughput:g}"
            )
            flag = "  << BELOW FLOOR"
        print(f"{bench_id:<52} {metric:>8} {base_v:>12.3g} {new_v:>12.3g} "
              f"{ratio:>6.2f}x{flag}")

    # A filter that matches nothing gates nothing: that is a broken gate
    # (typo'd --filter, renamed bench ids), not a green one, so it is a
    # hard failure rather than a vacuous pass.
    if gated_rows == 0:
        failures.append(
            f"--filter {args.filter!r} matched no baseline benchmark id; "
            "the gate checked nothing"
        )

    # Context: all sibling-normalized speedups in the fresh run.
    rows = [(b, s) for b in sorted(new)
            if pair[0] in b and (s := speedup(new, b, pair)) is not None]
    if rows:
        print(f"\n{pair[1]} -> {pair[0]} speedups (fresh run):")
        for bench_id, s in rows:
            print(f"  {bench_id:<50} {s:.2f}x")

    if failures:
        print("\nFAIL: gated performance regressed beyond "
              f"{args.tolerance * 100:.0f}% tolerance:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nOK: no gated benchmark regressed more than "
          f"{args.tolerance * 100:.0f}% vs {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
