#!/usr/bin/env python3
"""CI gate for the secp256k1 micro benchmarks.

Reads the JSON written by `bench_micro_crypto --benchmark_format=json`
and the checked-in floors (bench/crypto_perf_thresholds.json), and fails
when ECDSA verify, ECDH or ECDSA sign runs below its floor in operations
per second. With --benchmark_repetitions the median is checked; without,
the single run.

Usage: check_crypto_perf.py <bench.json> <thresholds.json>
"""

import json
import sys

# Threshold key -> google-benchmark function name.
OPS = {
    "verify": "BM_EcdsaVerify",
    "ecdh": "BM_EcdhSharedSecret",
    "sign": "BM_EcdsaSign",
}

TIME_UNIT_NS = {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}


def ops_per_sec(benchmarks, name):
    """CPU-time rate of `name`: its median aggregate if present, else the run."""
    runs = [b for b in benchmarks if b.get("run_name", b["name"]) == name]
    medians = [b for b in runs if b.get("aggregate_name") == "median"]
    plain = [b for b in runs if b.get("run_type", "iteration") == "iteration"]
    chosen = medians or plain
    if not chosen:
        return None
    b = chosen[0]
    ns = b["cpu_time"] * TIME_UNIT_NS[b.get("time_unit", "ns")]
    return 1e9 / ns


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        benchmarks = json.load(f).get("benchmarks", [])
    with open(sys.argv[2]) as f:
        thresholds = json.load(f)

    failures = []
    for op, name in OPS.items():
        rate = ops_per_sec(benchmarks, name)
        if rate is None:
            failures.append(f"no {name} result (bench filtered or did not finish?)")
            continue
        bound = thresholds[f"min_{op}_ops_per_sec"]
        print(f"{op:8s} {rate:>10,.0f} ops/s  (floor {bound:,} ops/s)")
        if rate < bound:
            failures.append(f"{op} {rate:,.0f} ops/s below required {bound:,} ops/s")

    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("OK: secp256k1 verify/ECDH/sign within thresholds")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
