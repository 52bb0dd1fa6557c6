#!/usr/bin/env python3
"""End-to-end smoke test for a real multi-process CONFIDE cluster.

Boots N `confided` node processes (shared consortium seed, framed TCP
transport) plus one `confide_gateway` HTTP front end, drives a mixed
confidential/plaintext load through `bench_load`, then asserts the
deployment-shaped invariants that the in-process test suites cannot:

  1. every process comes up and prints its readiness line;
  2. every transaction the gateway acknowledges commits: the load driver
     fails unless each 202-acknowledged submission has a receipt once
     the cluster drains (it also verifies sealed receipts open with the
     client key and that all nodes report identical tip hashes). No node
     is told to propose: the leader drives itself on its --tick-ms timer;
  3. a direct /v1/status poll after the run confirms convergence again,
     from outside the load driver;
  4. the bench metrics snapshot (metrics.json) is well-formed and
     carries the bench.load.* series CI archives per commit.

The sweep measures submit acknowledgements, which is intake, not
capacity: a step is never reported as "sustained".

With --kill-leader the smoke additionally rehearses leader failover
(docs/OPERATIONS.md §Failover): after the first load phase it SIGKILLs
node 0 (the view-0 leader), waits for the survivors to elect a
successor via the heartbeat detector (the gateway's /v1/status reports
each node's view and leader), then runs a second load phase — with a
fresh contract prefix, since the first phase's contracts are already
deployed — whose every acknowledged transaction must commit. The
elected node starts proposing on its own timer; nothing in confided's
main re-checks leadership. The final convergence check then requires exactly the
survivors to agree (the killed node must report reachable=false).

Everything binds to 127.0.0.1 on ephemeral ports picked up-front, so
parallel CI jobs on one runner do not collide. All child processes are
torn down on exit — including on failure — so a wedged node cannot hang
the CI job past its timeout.

Usage:
  cluster_smoke.py [--build-dir build] [--nodes 3] [--seed 21]
                   [--rps 25,50] [--duration-s 2]
                   [--out metrics.json] [--kill-leader]
"""

import argparse
import json
import os
import re
import select
import socket
import subprocess
import sys
import time
import urllib.request

NODE_READY_RE = re.compile(r"confided: node (\d+) ready on port (\d+)")
GATEWAY_READY_RE = re.compile(r"confide_gateway: ready on port (\d+)")


def pick_ports(count):
    """Reserves `count` distinct ephemeral ports (bind :0, then close).

    There is a small race between closing and the child re-binding, but
    a fresh CI container has nothing else grabbing ports.
    """
    socks = [socket.socket() for _ in range(count)]
    for s in socks:
        s.bind(("127.0.0.1", 0))
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    return ports


def await_line(proc, pattern, what, timeout_s=30):
    """Reads `proc` stdout until `pattern` matches; returns the match."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"{what} exited early (rc={proc.returncode})")
        # select keeps the timeout real even if the child prints nothing.
        ready, _, _ = select.select([proc.stdout], [], [], 0.2)
        if not ready:
            continue
        line = proc.stdout.readline()
        if not line:
            continue
        sys.stdout.write(line)
        match = pattern.search(line)
        if match:
            return match
    raise RuntimeError(f"timed out waiting for readiness line from {what}")


def http_json(url, timeout_s=10):
    with urllib.request.urlopen(url, timeout=timeout_s) as resp:
        return json.loads(resp.read())


def await_failover(gateway_url, n_nodes, dead_node, timeout_s=90):
    """Polls /v1/status until the survivors agree on a view >= 1 whose
    leader is not `dead_node`; returns that view."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            nodes = http_json(f"{gateway_url}/v1/status")["nodes"]
        except OSError:
            time.sleep(0.5)
            continue
        live = [n for n in nodes if n.get("reachable")]
        views = {n.get("view") for n in live}
        leaders = {n.get("leader") for n in live}
        if len(live) == n_nodes - 1 and len(views) == 1 and len(leaders) == 1:
            view, leader = views.pop(), leaders.pop()
            if view is not None and view >= 1 and leader != dead_node:
                return view
        time.sleep(0.5)
    raise RuntimeError(
        f"survivors never elected a leader other than node {dead_node}"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--nodes", type=int, default=3)
    parser.add_argument("--seed", type=int, default=21)
    parser.add_argument("--rps", default="25,50")
    parser.add_argument("--duration-s", default="2")
    parser.add_argument("--confidential-pct", default="50")
    parser.add_argument("--out", default="metrics.json")
    parser.add_argument(
        "--kill-leader",
        action="store_true",
        help="SIGKILL node 0 after the first load phase, wait for the "
        "survivors to elect a successor, then run a second load phase",
    )
    args = parser.parse_args()
    if args.kill_leader and args.nodes < 4:
        # n=4 is the smallest cluster where the election needs a real
        # multi-party quorum (2f+1 = 3); at n<=3 the PBFT-lite quorum
        # degenerates to 1 and the rehearsal would prove nothing.
        print("cluster_smoke: --kill-leader needs --nodes >= 4", file=sys.stderr)
        return 2

    confided = os.path.join(args.build_dir, "src", "net", "confided")
    gateway_bin = os.path.join(args.build_dir, "src", "net", "confide_gateway")
    bench_load = os.path.join(args.build_dir, "bench", "bench_load")
    for binary in (confided, gateway_bin, bench_load):
        if not os.path.exists(binary):
            print(f"cluster_smoke: missing binary {binary}", file=sys.stderr)
            return 2

    node_ports = pick_ports(args.nodes)
    peers = ",".join(f"127.0.0.1:{p}" for p in node_ports)
    procs = []
    try:
        for node_id, port in enumerate(node_ports):
            proc = subprocess.Popen(
                [
                    confided,
                    f"--node-id={node_id}",
                    f"--peers={peers}",
                    "--listen-host=127.0.0.1",
                    f"--seed={args.seed}",
                    "--block-max-bytes=65536",
                    "--tick-ms=20",
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
            procs.append((f"confided[{node_id}]", proc))
            match = await_line(proc, NODE_READY_RE, f"confided node {node_id}")
            assert int(match.group(2)) == port

        gw_proc = subprocess.Popen(
            [gateway_bin, f"--nodes={peers}", "--listen=127.0.0.1:0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        procs.append(("confide_gateway", gw_proc))
        gw_port = int(
            await_line(gw_proc, GATEWAY_READY_RE, "confide_gateway").group(1)
        )
        gateway_url = f"http://127.0.0.1:{gw_port}"

        health = urllib.request.urlopen(f"{gateway_url}/healthz", timeout=10)
        if health.read() != b"ok":
            print("cluster_smoke: gateway /healthz not ok", file=sys.stderr)
            return 1

        # The load driver submits the mixed workload, sweeps the RPS
        # steps, verifies sampled sealed receipts open, and exits
        # non-zero on divergence or on an acknowledged tx that never
        # committed.
        env = dict(os.environ, CONFIDE_METRICS_OUT=args.out)
        rc = subprocess.call(
            [
                bench_load,
                f"--gateway={gateway_url}",
                f"--seed={args.seed}",
                f"--rps={args.rps}",
                f"--duration-s={args.duration_s}",
                f"--confidential-pct={args.confidential_pct}",
            ],
            env=env,
        )
        if rc != 0:
            print(f"cluster_smoke: bench_load failed (rc={rc})", file=sys.stderr)
            return 1

        survivors = args.nodes
        if args.kill_leader:
            # Failover rehearsal: SIGKILL the view-0 leader mid-flight,
            # wait for the heartbeat detector to elect a successor, then
            # prove the re-formed cluster still takes load. The second
            # phase deploys under a fresh contract prefix — the first
            # phase's addresses are already taken.
            leader_name, leader_proc = procs[0]
            print(f"cluster_smoke: SIGKILL {leader_name} (view-0 leader)")
            leader_proc.kill()
            leader_proc.wait()
            view = await_failover(gateway_url, args.nodes, dead_node=0)
            print(f"cluster_smoke: survivors elected view {view}")
            rc = subprocess.call(
                [
                    bench_load,
                    f"--gateway={gateway_url}",
                    f"--seed={args.seed}",
                    f"--rps={args.rps}",
                    f"--duration-s={args.duration_s}",
                    f"--confidential-pct={args.confidential_pct}",
                    "--contracts=bench2",
                ],
                env=env,
            )
            if rc != 0:
                print(f"cluster_smoke: post-failover bench_load failed "
                      f"(rc={rc})", file=sys.stderr)
                return 1
            survivors = args.nodes - 1

        # Independent convergence check, outside the load driver. With
        # --kill-leader the dead node must show up unreachable and every
        # survivor must agree on height and tip.
        status = http_json(f"{gateway_url}/v1/status")
        nodes = status["nodes"]
        if len(nodes) != args.nodes:
            print(f"cluster_smoke: expected {args.nodes} nodes in /v1/status, "
                  f"got {len(nodes)}", file=sys.stderr)
            return 1
        live = [n for n in nodes if n["reachable"]]
        if len(live) != survivors:
            print(f"cluster_smoke: expected {survivors} reachable nodes: "
                  f"{nodes}", file=sys.stderr)
            return 1
        tips = {(n["height"], n["tip_hash"]) for n in live}
        if len(tips) != 1:
            print(f"cluster_smoke: cluster diverged: {nodes}", file=sys.stderr)
            return 1
        height, tip = next(iter(tips))
        if height == 0:
            print("cluster_smoke: cluster never committed a block",
                  file=sys.stderr)
            return 1

        with open(args.out) as metrics_file:
            metrics = json.load(metrics_file)
        counters = metrics.get("counters", {})
        if counters.get("bench.load.submitted.count", 0) <= 0:
            print("cluster_smoke: metrics.json missing bench.load counters",
                  file=sys.stderr)
            return 1

        print(f"cluster_smoke: OK — {survivors} nodes converged at height "
              f"{height} tip {tip[:16]}, metrics in {args.out}")
        return 0
    finally:
        for name, proc in procs:
            if proc.poll() is None:
                proc.terminate()
        deadline = time.monotonic() + 10
        for name, proc in procs:
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                print(f"cluster_smoke: killing unresponsive {name}",
                      file=sys.stderr)
                proc.kill()


if __name__ == "__main__":
    sys.exit(main())
