"""Record the reference output digests that run.py checks every op against.

Usage, from the root of a checkout:

    python3 perfbench/record.py

Runs one pass of ``equiv-enum`` and of ``carrier-files`` for each seed below
``REFERENCE_SEEDS`` with the checkout's posrel.  Every op must first pass the
plan's own checks (exit 0, oracle facts); the digest of its stdout and emitted
files is then stored in perfbench/reference.json.  The ``equiv`` verbs do not
depend on the seed and are stored once, under ``*``.  ``harness-mix`` needs
no table: its expected reports are written out in inputs.py.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

RECORDED = ("equiv-enum", "carrier-files")
REFERENCE_SEEDS = 64


def record(workload, seed, src, work, env):
    ops = run.make_plan(workload, seed, work)
    plan = {"workload": workload, "seed": seed, "src": src, "ops": ops, "seconds": 0,
            "trace": False, "trace_file": None}
    passes = run.run_worker(plan, work, env)["passes"]
    failures = run.check(plan, passes, {})
    if failures:
        raise SystemExit(f"{workload} seed {seed}: not recording failed ops {failures}")
    digests = {r["id"]: r["facts"]["digest"] for r in passes[0]["ops"] if "digest" in r["facts"]}
    if workload == "equiv-enum":
        return "*", {k: v for k, v in digests.items() if k.startswith("equiv ")}
    return str(seed), digests


def main():
    root = os.getcwd()
    src = os.path.join(root, "src")
    env = run.child_env()
    table = {w: {} for w in RECORDED}
    work = os.path.join(root, ".perfbench", f"record-{os.getpid()}")
    try:
        for workload in RECORDED:
            seeds = [0] if workload == "equiv-enum" else range(REFERENCE_SEEDS)
            for seed in seeds:
                os.makedirs(work)
                key, digests = record(workload, seed, src, work, env)
                table[workload][key] = digests
                shutil.rmtree(work)
                print(f"{workload} seed {seed}: {len(digests)} digests", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
