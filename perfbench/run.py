"""posrel benchmark: one workload, one seed, one measured run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload harness-mix --seed 0 --seconds 36 --trace 0

Workloads (see inputs.py and BENCHMARK.json for why each exists):

  harness-mix    ``harness run <suite>`` for all 19 suites over 19 derived seeds:
                 many tiny objects, where construction and validation dominate.
  equiv-enum     ``equiv set-pos|ord|discrete --bound 4``, a cold catalogue of
                 5-element posets, seeded hom-posets and isomorphism tests.
  carrier-files  limits, tabulation, factorization, presentation and splitting
                 on seeded files of a few dozen elements (apexes of 200-400
                 elements), then ``exreg check``/``rel check`` of the outputs.

Set-up measures ``import posrel.cli`` in several fresh interpreters, then
writes the seeded inputs.  The workload then runs in its own fresh process
(worker.py) for ``--seconds``.  Every op's output is checked; the last line
of stdout is one JSON object with the end-to-end metrics (``--trace 0``) or
the per-layer metrics of a traced run (``--trace 1``).  Metadata and a human
summary go to stderr and to ``.perfbench/last-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import tracer  # noqa: E402

SETUP_RUNS = 15
SETUP_SNIPPET = (
    "import sys\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import hostspeed\n"
    "with hostspeed.Sampler() as clock:\n"
    "    import posrel.cli\n"
    "print(repr(clock.seconds))\n"
)
BLAS_THREADS = 1

END_TO_END = [
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
]


def child_env():
    """Cold, pinned ops: no EXREG_BOUND default, fixed hashing, one BLAS thread.

    One thread: on a small shared host a second BLAS thread often waits for a
    busy core, which makes BLAS timings swing far more than the program does."""
    env = dict(os.environ)
    env.pop("EXREG_BOUND", None)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def measure_setup(src, env):
    """Median time from a fresh interpreter to ``posrel.cli`` imported, corrected
    for host speed like every op (see hostspeed.py)."""
    times = []
    for k in range(SETUP_RUNS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, src, HERE], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        if k:  # the first import may compile bytecode; users pay that once
            times.append(float(proc.stdout))
    return statistics.median(times)


def make_plan(workload, seed, work):
    if workload == "harness-mix":
        return inputs.harness_plan(seed)
    if workload == "equiv-enum":
        return inputs.equiv_plan(seed)
    return inputs.carrier_plan(seed, os.path.join(work, "in"), os.path.join(work, "out"))


def run_worker(plan, work, env):
    """Run the plan in a fresh worker process.  A traced run makes at least two
    passes, one of them traced, so it may take about twice ``seconds``."""
    plan_path = os.path.join(work, "plan.json")
    result_path = os.path.join(work, "result.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), plan_path,
                           result_path], env=env, cwd=work,
                          timeout=plan["seconds"] * (2 if plan["trace"] else 1) + 120,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(result_path) as fh:
        return json.load(fh)


def load_reference(workload, seed):
    """Recorded output digests for this workload and seed (``*``: any seed)."""
    with open(os.path.join(HERE, "reference.json")) as fh:
        table = json.load(fh).get(workload, {})
    return {**table.get("*", {}), **table.get(str(seed), {})}


def check(plan, passes, reference):
    """Failed op executions: bad exit, unexpected fact, digest off reference or first pass."""
    expect = {op["id"]: op["expect"] for op in plan["ops"]}
    first = {}
    failures = []
    for p in passes:
        for r in p["ops"]:
            facts, want = r["facts"], expect[r["id"]]
            problems = []
            for key, value in want.items():
                got = facts.get(key)
                if isinstance(value, dict):
                    got = {k: (got or {}).get(k) for k in value}
                if got != value:
                    problems.append(f"{key}: want {value!r}, got {got!r}")
            digest = facts.get("digest")
            if r["id"] in reference and digest != reference[r["id"]]:
                problems.append("digest differs from the recorded reference")
            if first.setdefault(r["id"], digest) != digest:
                problems.append("digest differs from the first pass")
            if problems:
                failures.append((r["id"], problems, facts.get("error")))
    return failures


def end_to_end(passes, setup_s, peak_rss_kib):
    """Each op of the fixed job at its median time over the passes: ``wall_s`` is
    their sum, the percentiles are nearest-rank over them.  Op counts are odd,
    so the median is one op's time, not the mean of two unlike ops."""
    per_op = sorted(statistics.median(times)
                    for times in zip(*[[r["s"] for r in p["ops"]] for p in passes]))
    return {
        "wall_s": sum(per_op),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_p90_ms": per_op[math.ceil(0.9 * len(per_op)) - 1] * 1e3,
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss_kib / 1024,
    }


def git_sha(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def blas_info():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "posrel", "cli.py")):
        print(f"error: no posrel sources at {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    state = os.path.join(root, ".perfbench")
    work = os.path.join(state, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    env = child_env()
    try:
        setup_s = measure_setup(src, env)
        t0 = perf_counter()
        ops = make_plan(args.workload, args.seed, work)
        generate_s = perf_counter() - t0
        trace_file = os.path.join(state, f"trace-{args.workload}-{args.seed}.json")
        plan = {"workload": args.workload, "seed": args.seed, "src": src, "ops": ops,
                "seconds": args.seconds, "trace": bool(args.trace), "trace_file": trace_file}
        result = run_worker(plan, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = result["passes"]
    failures = check(plan, passes, load_reference(args.workload, args.seed))
    attempted = sum(len(p["ops"]) for p in passes)
    if args.trace:
        metrics = {name: (result["per_layer"].get(name, 0.0), unit)
                   for name, unit, _ in tracer.per_layer_names(inputs.SUITES)}
    else:
        values = end_to_end(passes, setup_s, result["peak_rss_kib"])
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": result["numpy"], "blas": blas_info(),
        "blas_threads": BLAS_THREADS, "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(root), "calibration_s": result["calibration_s"],
        "ops_per_pass": len(ops), "passes": len(passes), "op_samples": attempted,
        "pass_s": [sum(r["s"] for r in p["ops"]) for p in passes],
        "pass_uncorrected_s": [sum(r["raw_s"] for r in p["ops"]) for p in passes],
        "host_speed": statistics.median(r["speed"] for p in passes for r in p["ops"]),
        "input_generation_s": generate_s, "fail_ratio": len(failures) / attempted,
    }
    for op_id, problems, error in failures[:20]:
        print(f"FAILED {op_id}: {'; '.join(problems)} {error or ''}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}", file=sys.stderr)
    print(f"{'fail_ratio':48s} {meta['fail_ratio']:14.6g} ({len(failures)}/{attempted})",
          file=sys.stderr)
    print("# meta " + json.dumps(meta), file=sys.stderr)
    with open(os.path.join(state, f"last-{args.workload}-{args.seed}.json"), "w") as fh:
        json.dump({"meta": meta, "metrics": metrics,
                   "failures": [f[:2] for f in failures]}, fh, indent=1)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
