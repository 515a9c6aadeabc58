"""Run one workload plan in a fresh process and report every op's result.

Usage: python3 worker.py PLAN.json RESULT.json

run.py writes the plan: the checkout's ``src`` directory, the ops, how long
to measure and whether to trace.  Ops are timed one at a time, cold: every
functools cache in posrel is cleared and garbage is collected before each op,
outside the timed region.  Each op's time is corrected for host speed (see
hostspeed.py).  Outputs are hashed and summarised after it.

Passes over the op list repeat while another pass fits in the measuring time.
With tracing on, passes alternate untraced and traced, so the traced run also
measures its own overhead.
"""

from __future__ import annotations

import gc
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter

import numpy as np

import hostspeed
import inputs


def load_posrel(src):
    sys.path.insert(0, src)
    import posrel
    from posrel import cli, equivalence, exreg, formats, harness, poset, relation

    if not os.path.abspath(posrel.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"posrel imported from {posrel.__file__}, not from {src}")
    return {"cli": cli, "equivalence": equivalence, "exreg": exreg, "formats": formats,
            "harness": harness, "poset": poset, "relation": relation}


def functools_caches():
    """Every cache_clear in the package, taken before tracing rebinds names."""
    found = []
    for name, mod in list(sys.modules.items()):
        if name.startswith("posrel"):
            found += [v.cache_clear for v in vars(mod).values() if hasattr(v, "cache_clear")]
    return found


def _digest_outputs(stdout, out_dir):
    chunks = [stdout]
    heads = {}
    if out_dir and os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name)) as fh:
                text = fh.read()
            chunks.append(f"\0{name}\0{text}")
            heads[name] = text.split("\n", 1)[0]
    return inputs.sha("".join(chunks)), heads


class Runner:
    def __init__(self, plan, mods):
        self.plan = plan
        self.mods = mods
        self.caches = functools_caches()
        self.perms5 = np.array(list(itertools.permutations(range(inputs.CATALOGUE_N))))
        self.tracer = None
        # call ops get their posets built once, outside timing and tracing
        FinPoset = mods["poset"].FinPoset
        self.posets = {
            op["id"]: (FinPoset(np.array(op["X"], dtype=bool)),
                       FinPoset(np.array(op["Y"], dtype=bool)))
            for op in plan["ops"] if "X" in op
        }

    def _call(self, op):
        """The op as a zero-argument callable plus a function turning its outcome into facts."""
        mods = self.mods
        if op["kind"] == "cli":
            out_dir = op.get("out_dir")
            if out_dir:
                shutil.rmtree(out_dir, ignore_errors=True)
            stdout, stderr = io.StringIO(), io.StringIO()
            argv = list(op["argv"])

            def call():
                return mods["cli"].main(argv, stdout, stderr)

            def facts(code):
                text = stdout.getvalue()
                digest, heads = _digest_outputs(text, out_dir)
                lines = [ln for ln in text.splitlines() if ln.strip()]
                out = {"code": code, "digest": digest, "heads": heads,
                       "first": lines[0] if lines else "", "last": lines[-1] if lines else ""}
                if code != 0:
                    out["error"] = stderr.getvalue().strip().splitlines()[-1:]
                return out

            return call, facts

        poset = mods["poset"]
        if op["fn"] == "catalogue":
            def call():
                return mods["equivalence"].all_posets_up_to_iso(op["n"])

            def facts(result):
                forms = set()
                for P in result:
                    if P.n == op["n"]:
                        leq = np.asarray(P.leq, dtype=bool)
                        perm = leq[self.perms5[:, :, None], self.perms5[:, None, :]]
                        forms.add(min(np.packbits(m).tobytes() for m in perm))
                return {"code": 0, "classes": len(result), "distinct": len(forms)}

            return call, facts

        X, Y = self.posets[op["id"]]
        if op["fn"] == "hom_poset":
            def call():
                return poset.hom_poset(X, Y)

            def facts(result):
                H, maps = result
                return {"code": 0, "maps": len(maps),
                        "digest": inputs.hom_digest([m.assign for m in maps], H.leq)}

            return call, facts

        def call():
            return poset.are_isomorphic(X, Y)

        def facts(result):
            return {"code": 0, "value": bool(result)}

        return call, facts

    def run_op(self, op):
        call, facts = self._call(op)
        for clear in self.caches:
            clear()
        gc.collect()
        if self.tracer is not None:
            traced_call = call

            def call():
                return self.tracer.span(f"op:{op['id']}", traced_call)

        clock = hostspeed.Sampler()
        try:
            with clock:
                outcome = call()
            found = facts(outcome)
        except SystemExit as exc:  # argparse rejected the command line
            found = {"code": f"exit {exc.code}"}
        except Exception as exc:  # an op that raises is a failed op, not a crash
            found = {"code": f"{type(exc).__name__}: {exc}"}
        return {"id": op["id"], "s": clock.seconds, "raw_s": clock.elapsed,
                "speed": clock.speed, "facts": found}

    def run(self, seconds, tracer=None):
        """Repeat passes while the next one fits in ``seconds``; alternate tracing if asked."""
        passes = []
        start = perf_counter()
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            if traced:
                tracer.install()
                self.tracer = tracer
            p0 = perf_counter()
            try:
                results = [self.run_op(op) for op in self.plan["ops"]]
            finally:
                if traced:
                    tracer.uninstall()
                    self.tracer = None
            dur = perf_counter() - p0
            passes.append({"traced": traced, "ops": results})
            enough = tracer is None or len(passes) >= 2
            if enough and perf_counter() - start + dur > seconds:
                return passes


def main(plan_path, result_path):
    with open(plan_path) as fh:
        plan = json.load(fh)
    mods = load_posrel(plan["src"])
    calibration = sum(hostspeed.job() for _ in range(500))  # host-speed context only
    runner = Runner(plan, mods)
    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer(mods)
    passes = runner.run(plan["seconds"], tracer)
    result = {
        "passes": passes,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "calibration_s": calibration,
        "numpy": np.__version__,
    }
    if tracer is not None:
        traced = [p for p in passes if p["traced"]]
        plain = [p for p in passes if not p["traced"]]

        def wall(ps):
            return statistics.median(sum(r["s"] for r in p["ops"]) for p in ps)

        traced_ops = [r for p in traced for r in p["ops"]]
        speed = sum(r["s"] for r in traced_ops) / sum(r["raw_s"] for r in traced_ops)
        metrics = tracer.metrics(len(traced), speed)
        metrics["trace.overhead"] = wall(traced) / wall(plain)
        tracer.dump(plan["trace_file"], metrics)
        result["per_layer"] = metrics
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
