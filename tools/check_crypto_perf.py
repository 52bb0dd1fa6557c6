#!/usr/bin/env python3
"""CI gate for the secp256k1 and SHA-256 micro benchmarks.

Reads the JSON written by `bench_micro_crypto --benchmark_format=json`
and the checked-in floors (bench/crypto_perf_thresholds.json), and fails
when ECDSA verify, ECDH or ECDSA sign runs below its floor in operations
per second, or SHA-256 over 1 KB messages below its floor in MB/s. The
SHA-256 floor follows the `sha_ni` counter the bench reports: the SHA-NI
floor when that path ran, the portable one on a CPU without the SHA
extensions. With --benchmark_repetitions the median is checked; without,
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

# Threshold key -> google-benchmark run name, checked in MB/s.
THROUGHPUT = {
    "sha256_1k": "BM_Sha256/1024",
}

TIME_UNIT_NS = {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}


def chosen_run(benchmarks, name):
    """The median aggregate of `name` if present, else the single run."""
    runs = [b for b in benchmarks if b.get("run_name", b["name"]) == name]
    medians = [b for b in runs if b.get("aggregate_name") == "median"]
    plain = [b for b in runs if b.get("run_type", "iteration") == "iteration"]
    chosen = medians or plain
    return chosen[0] if chosen else None


def ops_per_sec(benchmarks, name):
    """CPU-time operation rate of `name`."""
    b = chosen_run(benchmarks, name)
    if b is None:
        return None
    ns = b["cpu_time"] * TIME_UNIT_NS[b.get("time_unit", "ns")]
    return 1e9 / ns


def mb_per_sec(benchmarks, name):
    """CPU-time byte rate of `name` in MB/s (10^6 bytes)."""
    b = chosen_run(benchmarks, name)
    if b is None or "bytes_per_second" not in b:
        return None
    return b["bytes_per_second"] / 1e6


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

    for key, name in THROUGHPUT.items():
        rate = mb_per_sec(benchmarks, name)
        if rate is None:
            failures.append(f"no {name} result (bench filtered or did not finish?)")
            continue
        path = "sha_ni" if chosen_run(benchmarks, name).get("sha_ni") == 1 else "portable"
        bound = thresholds[f"min_{key}_{path}_mb_per_sec"]
        print(f"{key:8s} {rate:>10,.0f} MB/s   (floor {bound:,} MB/s, {path} path)")
        if rate < bound:
            failures.append(f"{key} {rate:,.0f} MB/s below required {bound:,} MB/s")

    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("OK: secp256k1 verify/ECDH/sign and SHA-256 within thresholds")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
