#!/usr/bin/env python3
"""Checks chaos-run fault reports for injection coverage and recovery.

The fault-injection framework names every failure it can inject with a
`fault.*` site string declared in src/ and reports two counters per site:
`<site>.injected` (the fault actually fired) and `<site>.recovered` (the
code under test survived it and said so). CONFIDE_FAULT_REPORT makes the
chaos suite dump those counters as JSON on exit; CI archives one report
per seed.

This checker fails the build when the chaos matrix has quietly lost
coverage:

  1. Every site declared in the sources must have fired (injected > 0)
     in the union of the given reports. A site nobody can trigger any
     more is dead chaos code — the failure path it guards is untested.
  2. Every site whose contract includes recovery (RECOVERABLE_SITES)
     must also report recovered > 0 in the union. Fired-but-never-
     recovered means the suite only proves the fault happens, not that
     the system survives it.
  3. Per report: at least one site fired, and the deterministic
     state-sync and compaction scenarios must have both fired and
     recovered (they are armed unconditionally for every seed).

Usage:
  check_fault_report.py [--src DIR] report.json [report.json ...]
"""

import argparse
import json
import re
import sys
from pathlib import Path

# Sites whose contract is fire-AND-recover: the scenario that arms them
# asserts the system comes back (retry, failover, re-provision, reseal).
# Sites not listed here model failures whose "recovery" is refusing to
# proceed (e.g. a detected-stale bootstrap) or is observed elsewhere.
RECOVERABLE_SITES = {
    "fault.chain.sync.chunk_corrupt",
    "fault.chain.sync.chunk_drop",
    "fault.chain.sync.equivocating_certificate",
    "fault.chain.sync.forged_certificate",
    "fault.chain.sync.provider_dead",
    "fault.chain.sync.stale_certificate",
    "fault.confide.provision",
    "fault.net.connect.fail",
    "fault.net.leader_crash",
    "fault.net.recv.corrupt",
    "fault.net.send.drop",
    "fault.net.send.truncate",
    "fault.net.view.election_crash",
    "fault.net.view.stale_newview",
    "fault.net.view.viewchange_drop",
    "fault.storage.compaction.install",
    "fault.storage.compaction.merge",
    "fault.storage.compaction.start",
    "fault.storage.compaction.write",
    "fault.storage.wal_sync",
    "fault.storage.wal_torn",
    "fault.tee.counter.persist",
    "fault.tee.counter.rollback",
    "fault.tee.enclave_crash",
}

# Deterministically-armed scenario groups checked per report (every seed
# runs them): prefix -> require recovery too.
PER_REPORT_GROUPS = {
    "fault.chain.sync.": True,
    "fault.net.": True,
    "fault.storage.compaction.": True,
}

SITE_RE = re.compile(r'"(fault\.[a-z0-9_.]+)"')


def declared_sites(src_dirs):
    sites = set()
    for src in src_dirs:
        for path in Path(src).rglob("*"):
            if path.suffix not in (".cc", ".h"):
                continue
            sites.update(SITE_RE.findall(path.read_text(errors="replace")))
    return sites


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--src",
        action="append",
        default=None,
        help="source dir to scan for declared fault.* sites "
        "(default: src/ next to this script's parent)",
    )
    parser.add_argument("reports", nargs="+", help="fault-report JSON files")
    args = parser.parse_args()

    src_dirs = args.src or [str(Path(__file__).resolve().parent.parent / "src")]
    declared = declared_sites(src_dirs)
    if not declared:
        print(f"error: no fault.* sites declared under {src_dirs}", file=sys.stderr)
        return 2

    union = {}
    errors = []
    for report_path in args.reports:
        with open(report_path) as report_file:
            counts = json.load(report_file)
        for name, value in counts.items():
            union[name] = union.get(name, 0) + value

        fired = sorted(
            name[: -len(".injected")]
            for name, value in counts.items()
            if name.endswith(".injected") and value > 0
        )
        if not fired:
            errors.append(f"{report_path}: no fault sites fired at all")
            continue
        for prefix, needs_recovery in PER_REPORT_GROUPS.items():
            group = [site for site in fired if site.startswith(prefix)]
            if not group:
                errors.append(f"{report_path}: no {prefix}* site fired")
            elif needs_recovery and not any(
                counts.get(site + ".recovered", 0) > 0 for site in group
            ):
                errors.append(
                    f"{report_path}: {prefix}* fired but none recovered"
                )
        print(f"{report_path}: {len(fired)} sites fired")

    for site in sorted(declared):
        if union.get(site + ".injected", 0) == 0:
            errors.append(
                f"declared site {site} never fired in any report "
                "(dead chaos coverage)"
            )
        elif site in RECOVERABLE_SITES and union.get(site + ".recovered", 0) == 0:
            errors.append(
                f"recoverable site {site} fired but never reported recovery"
            )
    unknown = sorted(
        site for site in RECOVERABLE_SITES if site not in declared
    )
    if unknown:
        errors.append(
            "RECOVERABLE_SITES entries not declared in src/ (stale list?): "
            + ", ".join(unknown)
        )

    if errors:
        print("\nFAULT COVERAGE CHECK FAILED:", file=sys.stderr)
        for error in errors:
            print(f"  - {error}", file=sys.stderr)
        return 1
    print(
        f"OK: all {len(declared)} declared sites fired; "
        f"{len(RECOVERABLE_SITES)} recoverable sites recovered"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
