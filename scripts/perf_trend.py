#!/usr/bin/env python3
"""Nightly perf-trend diff: fresh full-length BENCH_*.json vs committed.

Compares the benches the repo commits (fig4, fig5, fig8) and writes two
artifacts: a JSON diff and a one-line markdown summary.

What is *informational* vs what *fails the job*:

  * Absolute numbers (throughput, p50, p99) are reported per sample but
    never gated across hosts — the committed files were generated on one
    machine, the nightly runs on another, and an absolute nanosecond is
    not portable.
  * Normalized metrics are gated at the ±25% threshold because they are
    dimensionless and survive a hardware change:
      - overhead factor: baseline / instrumented throughput at the same
        thread count (fig5's headline number, paper §7.1.2);
      - tail ratio: p99 / p50 of instrumented samples, but only where
        threads <= 2*cpus of the *fresh* run (see bench_gate.py and
        docs/performance.md for why oversubscribed points are scheduler
        measurements, not engine measurements);
      - retry rate: match_fast_retries per lock op (the churn signal the
        match_churn health rule alerts on), diffed only when both the
        committed and the fresh sample carry it — older committed reports
        predate the field, and a missing side is not a regression.

Usage:
  perf_trend.py --committed DIR --fresh DIR --out-json F --out-md F
                [--threshold 0.25]
"""

import argparse
import json
import os
import sys

BENCHES = ("fig4", "fig5", "fig8")
# Instrumented labels paired against this baseline label for overhead factors.
BASELINE_LABEL = "baseline"
INSTRUMENTED_LABELS = {"dimmunix", "full", "full+persist"}


def load(dirpath, bench):
    path = os.path.join(dirpath, f"BENCH_{bench}.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def by_key(report):
    """Index samples by (label, threads)."""
    return {(s["label"], s["threads"]): s for s in report.get("samples", [])}


def overhead_factors(report):
    """baseline/instrumented throughput per (label, threads) pair."""
    samples = by_key(report)
    factors = {}
    for (label, threads), s in samples.items():
        if label not in INSTRUMENTED_LABELS:
            continue
        base = samples.get((BASELINE_LABEL, threads))
        if base and s["throughput_ops_s"] > 0:
            factors[(label, threads)] = base["throughput_ops_s"] / s["throughput_ops_s"]
    return factors


def tail_ratios(report, cpus):
    ratios = {}
    for (label, threads), s in by_key(report).items():
        if label not in INSTRUMENTED_LABELS or s.get("p50_ns", 0) <= 0:
            continue
        if cpus > 0 and threads > 2 * cpus:
            continue
        ratios[(label, threads)] = s["p99_ns"] / s["p50_ns"]
    return ratios


def retry_rates(report):
    """retries_per_op of instrumented samples that measured it.

    Absolute-delta semantics downstream: rates are often ~0, where a
    percentage diff is meaningless.
    """
    rates = {}
    for (label, threads), s in by_key(report).items():
        if label not in INSTRUMENTED_LABELS:
            continue
        rate = s.get("retries_per_op")
        if rate is not None and rate >= 0:
            rates[(label, threads)] = rate
    return rates


def pct(old, new):
    return (new - old) / old * 100.0 if old else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--committed", required=True)
    parser.add_argument("--fresh", required=True)
    parser.add_argument("--out-json", required=True)
    parser.add_argument("--out-md", required=True)
    parser.add_argument("--threshold", type=float, default=0.25)
    args = parser.parse_args()

    diff = {"threshold_pct": args.threshold * 100.0, "benches": {}, "breaches": []}
    for bench in BENCHES:
        old = load(args.committed, bench)
        new = load(args.fresh, bench)
        if old is None or new is None:
            diff["benches"][bench] = {"error": "missing report"}
            diff["breaches"].append(f"{bench}: missing report")
            continue

        cpus = int(new.get("config", {}).get("cpus", 0) or 0)
        entry = {
            "absolute": {},   # informational only
            "normalized": {},  # gated at the threshold
        }
        # Absolute numbers, per shared sample — trend context for humans.
        old_samples, new_samples = by_key(old), by_key(new)
        for key in sorted(old_samples.keys() & new_samples.keys()):
            o, n = old_samples[key], new_samples[key]
            entry["absolute"][f"{key[0]}@{key[1]}t"] = {
                "throughput_ops_s": [o["throughput_ops_s"], n["throughput_ops_s"],
                                     round(pct(o["throughput_ops_s"], n["throughput_ops_s"]), 1)],
                "p50_ns": [o["p50_ns"], n["p50_ns"], round(pct(o["p50_ns"], n["p50_ns"]), 1)],
                "p99_ns": [o["p99_ns"], n["p99_ns"], round(pct(o["p99_ns"], n["p99_ns"]), 1)],
            }
        # Normalized metrics — the gated surface.
        for name, fn in (("overhead_factor", overhead_factors),
                         ("tail_ratio", lambda r: tail_ratios(r, cpus))):
            old_m, new_m = fn(old), fn(new)
            for key in sorted(old_m.keys() & new_m.keys()):
                delta = pct(old_m[key], new_m[key])
                label = f"{name}:{key[0]}@{key[1]}t"
                entry["normalized"][label] = {
                    "committed": round(old_m[key], 3),
                    "fresh": round(new_m[key], 3),
                    "delta_pct": round(delta, 1),
                }
                if delta > args.threshold * 100.0:
                    diff["breaches"].append(
                        f"{bench} {label}: {old_m[key]:.2f} -> {new_m[key]:.2f} "
                        f"(+{delta:.0f}%)"
                    )
        # Retry rate is gated on absolute growth (threshold retries/op), not
        # percentage: the healthy value is ~0, where a relative diff divides
        # by noise. Pairs missing on either side are skipped, so committed
        # reports predating the field produce no metric and no breach.
        old_r, new_r = retry_rates(old), retry_rates(new)
        for key in sorted(old_r.keys() & new_r.keys()):
            label = f"retry_rate:{key[0]}@{key[1]}t"
            delta_abs = new_r[key] - old_r[key]
            entry["normalized"][label] = {
                "committed": round(old_r[key], 4),
                "fresh": round(new_r[key], 4),
                "delta_abs": round(delta_abs, 4),
            }
            if delta_abs > args.threshold:
                diff["breaches"].append(
                    f"{bench} {label}: {old_r[key]:.3f} -> {new_r[key]:.3f} "
                    f"(+{delta_abs:.3f}/op)"
                )
        diff["benches"][bench] = entry

    with open(args.out_json, "w") as f:
        json.dump(diff, f, indent=2)

    if diff["breaches"]:
        line = (f"**perf-trend: REGRESSED** — {len(diff['breaches'])} metric(s) past "
                f"±{args.threshold * 100:.0f}%: " + "; ".join(diff["breaches"]))
    else:
        n = sum(len(b.get("normalized", {})) for b in diff["benches"].values()
                if isinstance(b, dict))
        line = (f"perf-trend: OK — {n} normalized metric(s) across "
                f"{len(BENCHES)} benches within ±{args.threshold * 100:.0f}%")
    with open(args.out_md, "w") as f:
        f.write(line + "\n")
    print(line)
    return 1 if diff["breaches"] else 0


if __name__ == "__main__":
    sys.exit(main())
