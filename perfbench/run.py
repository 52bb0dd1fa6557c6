#!/usr/bin/env python3
"""CONFIDE cluster benchmark: committed transactions per second and
submit-to-commit latency of a live 4-node cluster behind its gateway.

    python3 perfbench/run.py --workload steady-mixed --seed 1 --seconds 40 --trace 0

Run from the repository root. One run:

  1. builds the daemons and the harness from source into .bench_build
     (Release; CARGO_TARGET_DIR overrides the directory) and runs the
     harness's unit tests;
  2. generates the workload's transactions from --seed (cached per seed);
  3. set-up, several times: boots 4 `confided` nodes (64 KB blocks,
     --tick-ms=20, a fresh state dir each) and `confide_gateway` on
     ephemeral ports, then commits the two contract deploys; `setup_s`
     is the median;
  4. drives the last cluster for the workload (drive.cc) and checks
     that the outputs are correct;
  5. with --trace 1, also replays the workload in process with every
     layer call timed (trace.cc).

The last stdout line is one JSON object: correct, attempted, failed and
the metrics (end-to-end with --trace 0, per-layer with --trace 1).
Every child process is stopped on every exit path; a run that passes its
hard deadline stops everything and exits non-zero. README.md explains
the workloads and every metric.
"""

import argparse
import json
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.request

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("steady-mixed", "backlog-mixed", "steady-public-read")
NODES = 4
SETUPS = 21         # set-ups per run; setup_s is their median
TICK_S = 0.020      # the nodes' --tick-ms
RUN_DEADLINE_S = 170  # whole run after the build, set-up to teardown
CACHED_SETS = 24    # generated transaction sets kept for reuse
NODE_READY_RE = re.compile(r"confided: node (\d+) ready on port (\d+)")
GATEWAY_READY_RE = re.compile(r"confide_gateway: ready on port (\d+)")

END_TO_END = [
    "commit_tps", "commit_p50_ms", "commit_p90_ms", "cpu_ms_per_tx", "node_rss_mb",
    "setup_s",
]
PER_LAYER_DEPLOYED = [
    "commit_p99_ms", "gateway.read_p50_ms", "gateway.read_p99_ms",
    "gateway.ack_p50_ms", "gateway.ack_p99_ms",
    "gateway.cpu_ms_per_tx",
    "node.leader.cpu_ms_per_tx", "node.replica.cpu_ms_per_tx",
    "bench.gen_lag_p99_ms",
]
PER_LAYER_TRACED = [
    "chain.pool_wait_ms", "chain.preverify_us_per_tx",
    "chain.preverify_call_max_ms", "chain.propose_us_per_block",
    "chain.apply_us_per_tx", "chain.block_txs", "chain.get_receipt_us",
    "net.consensus_us_per_block", "net.frames_per_block", "net.bytes_per_tx",
    "confide.preverify_us_per_conf_tx", "confide.execute_us_per_conf_tx",
    "confide.public_execute_us_per_tx", "tee.transitions_per_conf_tx",
    "tee.boundary_bytes_per_conf_tx", "crypto.ecdsa_verify_per_tx",
    "crypto.ecdh_per_conf_tx", "crypto.sha256_bytes_per_tx",
    "crypto.ecdsa_verify_us", "crypto.ecdh_us", "crypto.gcm_mb_s",
    "crypto.sha256_mb_s", "serialize.tx_decode_us",
    "serialize.block_encode_us_per_tx", "storage.wal_bytes_per_tx",
    "storage.reads_per_tx", "storage.read_amp", "bench.trace_coverage_pct",
    "bench.trace_overhead_pct",
]


class RunError(Exception):
    """The run cannot produce a result (build, set-up or deadline)."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise RunError("hard deadline passed")
        return left


def build(build_dir):
    """Configures (first time) and builds the daemons, harness and tests."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1)),
         "--target", "confided", "confide_gateway", "perfbench_harness",
         "perfbench_test"],
        stdout=sys.stderr, check=True)
    subprocess.run([os.path.join(build_dir, "perfbench_test"), "--gtest_brief=1"],
                   stdout=sys.stderr, check=True, timeout=60)


def generate(harness, cache_dir, workload, seed, seconds, deadline):
    """Builds (or reuses) the run's transaction set; returns its path and
    the set-up deploy requests."""
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, f"{workload}-s{seed}-t{seconds}.txs")
    if not (os.path.exists(path) and os.path.exists(path + ".deploy.json")):
        subprocess.run(
            [harness, "gen", f"--workload={workload}", f"--seed={seed}",
             f"--seconds={seconds}", f"--out={path}"],
            stdout=sys.stderr, check=True, timeout=deadline.left())
    # A set is ~10 MB: keep only the most recently used ones.
    os.utime(path)
    sets = sorted((f for f in os.listdir(cache_dir) if f.endswith(".txs")),
                  key=lambda f: os.path.getmtime(os.path.join(cache_dir, f)))
    for stale in sets[:-CACHED_SETS]:
        for suffix in ("", ".deploy.json"):
            if os.path.exists(os.path.join(cache_dir, stale + suffix)):
                os.remove(os.path.join(cache_dir, stale + suffix))
    with open(path + ".deploy.json") as f:
        return path, json.load(f)


def pick_ports(count):
    """Distinct ephemeral ports: bind :0, read the port, close."""
    socks = [socket.socket() for _ in range(count)]
    try:
        for s in socks:
            s.bind(("127.0.0.1", 0))
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


def await_log_line(path, pattern, proc, what, deadline, timeout_s=30):
    end = min(time.monotonic() + timeout_s, deadline.end)
    while time.monotonic() < end:
        with open(path, errors="replace") as f:
            match = pattern.search(f.read())
        if match:
            return match
        if proc.poll() is not None:
            raise RunError(f"{what} exited early (rc={proc.returncode}), see {path}")
        time.sleep(0.002)
    raise RunError(f"no readiness line from {what}")


def http(url, body=None, timeout=10):
    """(status, body bytes) of one request; HTTP errors are statuses."""
    data = body.encode() if body is not None else None
    req = urllib.request.Request(url, data=data, method="POST" if data else "GET")
    if data:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.read()


class Cluster:
    """4 confided nodes plus the gateway, each logging to a file under
    `workdir`. stop() is safe to call at any point and more than once."""

    def __init__(self, bindir, workdir, seed):
        self.bindir, self.workdir, self.seed = bindir, workdir, seed
        self.procs = []  # (name, Popen, log file)
        self.node_ports = []
        self.gateway_url = None

    def _spawn(self, name, argv):
        log_path = os.path.join(self.workdir, f"{name}.log")
        log_file = open(log_path, "w")
        proc = subprocess.Popen(argv, stdout=log_file, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL)
        self.procs.append((name, proc, log_file))
        return proc, log_path

    def start(self, deadline):
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.node_ports = pick_ports(NODES)
        peers = ",".join(f"127.0.0.1:{p}" for p in self.node_ports)
        waits = []
        for node_id in range(NODES):
            # confided exits when its state dir is missing: create it.
            state_dir = os.path.join(self.workdir, f"state{node_id}")
            os.makedirs(state_dir)
            proc, log_path = self._spawn(f"node{node_id}", [
                os.path.join(self.bindir, "confided"), f"--node-id={node_id}",
                f"--peers={peers}", "--listen-host=127.0.0.1",
                f"--seed={self.seed}", "--block-max-bytes=65536",
                f"--tick-ms={round(TICK_S * 1000)}", f"--state-dir={state_dir}",
                # Failover is out of scope: heartbeats run as deployed, but
                # a CPU-starved replica must not start an election mid-run.
                "--view-timeout-ms=60000",
            ])
            waits.append((log_path, proc, f"node {node_id}"))
        for log_path, proc, what in waits:
            match = await_log_line(log_path, NODE_READY_RE, proc, what, deadline)
            if int(match.group(2)) not in self.node_ports:
                raise RunError(f"{what} listens on an unexpected port")
        gw, gw_log = self._spawn("gateway", [
            os.path.join(self.bindir, "confide_gateway"), f"--nodes={peers}",
            "--listen=127.0.0.1:0"])
        port = int(await_log_line(gw_log, GATEWAY_READY_RE, gw, "gateway",
                                  deadline).group(1))
        self.gateway_url = f"http://127.0.0.1:{port}"
        status, body = http(self.gateway_url + "/healthz")
        if status != 200 or body != b"ok":
            raise RunError("gateway /healthz not ok")

    def deploy(self, deploy, deadline):
        """Submits the two deploys and waits until both have receipts."""
        for body in deploy["bodies"]:
            status, reply = http(self.gateway_url + "/v1/tx",
                                 json.dumps({"tx": body}))
            if status != 202:
                raise RunError(f"deploy refused ({status}): {reply[:200]!r}")
        for tx_hash in deploy["hashes"]:
            while True:
                deadline.left()
                status, _ = http(f"{self.gateway_url}/v1/receipt/{tx_hash}")
                if status == 200:
                    break
                time.sleep(0.002)

    def pids(self):
        return [proc.pid for _, proc, _ in self.procs]

    def stop(self):
        for _, proc, _ in self.procs:
            if proc.poll() is None:
                proc.terminate()
        end = time.monotonic() + 10
        for name, proc, log_file in self.procs:
            try:
                proc.wait(timeout=max(0.1, end - time.monotonic()))
            except subprocess.TimeoutExpired:
                log(f"killing unresponsive {name}")
                proc.kill()
                proc.wait()
            log_file.close()
        self.procs = []
        shutil.rmtree(self.workdir, ignore_errors=True)


def run_harness(argv, deadline):
    """Runs a harness command; returns its JSON result line."""
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                          timeout=deadline.left())
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunError(f"{argv[1]} printed no result (rc={proc.returncode})")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        log(f"build failed: {err}")
        return 1
    bindir = os.path.join(build_dir, "confide", "net")
    harness = os.path.join(build_dir, "perfbench_harness")
    workdir = os.path.join(build_dir, f"run-{os.getpid()}")
    deadline = Deadline(RUN_DEADLINE_S)
    cluster = None
    try:
        txs, deploy = generate(harness, os.path.join(build_dir, "cache"),
                               args.workload, args.seed, args.seconds, deadline)
        setups = []
        pauses = random.Random(args.seed)
        for _ in range(1 if args.trace else SETUPS):
            if cluster is not None:
                cluster.stop()
            cluster = Cluster(bindir, os.path.join(workdir, "cluster"), args.seed)
            t0 = time.monotonic()
            cluster.start(deadline)
            # The deploys wait for the leader's next tick. Boot takes about
            # as long every time, so without a pause of random length they
            # would meet the tick at the same phase in every set-up of a
            # run, and the median would jump by a tick between runs. The
            # pause is the harness's, so it is not counted.
            t1 = time.monotonic()
            time.sleep(pauses.uniform(0, TICK_S))
            paused = time.monotonic() - t1
            cluster.deploy(deploy, deadline)
            setups.append(time.monotonic() - t0 - paused)
        pids = cluster.pids()
        drive = run_harness([
            harness, "drive", f"--txs={txs}", f"--gateway={cluster.gateway_url}",
            "--nodes=" + ",".join(f"127.0.0.1:{p}" for p in cluster.node_ports),
            "--pids=" + ",".join(str(p) for p in pids[:NODES]),
            f"--gateway-pid={pids[NODES]}"], deadline)
        cluster.stop()
        cluster = None
        results = [drive]
        if args.trace:
            os.makedirs(workdir, exist_ok=True)
            results.append(run_harness(
                [harness, "trace", f"--txs={txs}", f"--workdir={workdir}"], deadline))
    except (RunError, subprocess.SubprocessError, OSError, ValueError) as err:
        log(f"run failed: {err}")
        return 1
    finally:
        if cluster is not None:
            cluster.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    measured = {}
    for result in results:
        measured.update(result["metrics"])
    measured["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    names = (PER_LAYER_DEPLOYED + PER_LAYER_TRACED) if args.trace else END_TO_END
    missing = [name for name in names if name not in measured]
    errors = [e for result in results for e in result["errors"]] + [
        f"metric {name} was not measured" for name in missing]
    for name in names:
        if name in measured:
            m = measured[name]
            print(f"  {name:40s} {m['value']:14.4f} {m['unit']}")
    if not args.trace:
        print(f"  {'setup_s samples':40s} " + " ".join(f"{s:.3f}" for s in setups))
    for error in errors:
        print(f"  INCORRECT: {error}")
    out = {
        "correct": not errors and all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: measured[name] for name in names if name in measured},
    }
    print(json.dumps(out), flush=True)
    return 0 if out["correct"] else 1


def _stop_on_signal(signum, _frame):
    # Unwinds through main()'s finally, which stops every child.
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _stop_on_signal)
    signal.signal(signal.SIGINT, _stop_on_signal)
    sys.exit(main())
