"""Outside-in tracing of posrel's public functions, per module ("layer").

The package is not edited.  ``install`` rebinds every traced function in each
posrel module namespace that binds it (``bool_mat`` is imported by name into
``relation`` and ``exreg``, for example), and methods and constructors on
their classes; ``uninstall`` puts the originals back.  Each call records a
span (name, start, end, parent) and adds its duration to the enclosing span's
child time, so a name's self time is its spans' duration minus the time their
child spans cover.  Spans are kept in flat arrays, capped at ``MAX_SPANS``.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (module, attribute path) per traced name; a class name traces its constructor.
TRACED = {
    "poset": ["bool_mat", "transitive_closure", "FinPoset", "FinPoset.__eq__", "MonotoneMap",
              "MonotoneMap.leq", "all_monotone_maps", "find_order_iso", "poset_reflection"],
    "relation": ["Relation", "Relation.__eq__", "compose", "compose_categorical"],
    "exreg": ["Congruence", "validate_morphism", "tabulate", "graph_of", "classify",
              "factorize", "limit", "canonical_presentation"],
    "equivalence": ["all_posets_up_to_iso", "quotient_realize", "realize_morphism",
                    "morphism_from_map", "check_fully_order_faithful",
                    "verify_characterization", "commutation_check"],
    "harness": ["run_suite"],
    "cli": ["main"],
}
# Function families reported under one name: (module, prefixes, metric name).
GROUPED = [
    ("harness", ("gen_",), "harness.gen"),
    ("formats", ("load_", "parse_"), "formats.parse"),
    ("formats", ("serialize_",), "formats.serialize"),
]
MAX_SPANS = 200_000


class Tracer:
    def __init__(self, modules):
        self.modules = modules  # short name -> imported posrel module
        self.names = []
        self.index = {}
        self.calls = []
        self.self_s = []
        self.extra = defaultdict(float)
        self.stack = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.patches = []  # (owner, attribute, original)
        self.targets = self._resolve()

    def _name_id(self, name):
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self.index[name]

    def _resolve(self):
        """(class or None, attribute, metric name, module) for every traced callable present."""
        targets = []
        for mod_name, paths in TRACED.items():
            mod = self.modules[mod_name]
            for path in paths:
                head, _, method = path.partition(".")
                obj = getattr(mod, head, None)
                if obj is None:
                    continue  # renamed or removed: its metrics read zero
                if isinstance(obj, type):
                    targets.append((obj, method or "__init__", f"{mod_name}.{path}", mod_name))
                else:
                    targets.append((None, head, f"{mod_name}.{path}", mod_name))
        for mod_name, prefixes, metric in GROUPED:
            mod = self.modules[mod_name]
            for attr in sorted(vars(mod)):
                if attr.startswith(prefixes) and callable(getattr(mod, attr)):
                    targets.append((None, attr, metric, mod_name))
        return targets

    # -- hooks adding per-name extras ------------------------------------------

    def _post(self, metric, attr):
        extra = self.extra
        if metric == "poset.bool_mat":
            def post(args, result):
                a, b = args[0], args[1]
                extra["poset.bool_mat.madds"] += a.shape[0] * a.shape[1] * b.shape[1]
                extra["poset.bool_mat.bytes"] += a.size + b.size + a.shape[0] * b.shape[1]
            return post
        if metric == "poset.all_monotone_maps":
            def post(args, result):
                extra["poset.all_monotone_maps.maps_out"] += len(result)
            return post
        if metric == "poset.find_order_iso":
            def post(args, result):
                extra["poset.find_order_iso.hits"] += result is not None
            return post
        if metric == "exreg.tabulate":
            def post(args, result):
                extra["exreg.tabulate.apex_elems"] += result.apex.X.n
            return post
        if metric == "formats.parse" and attr.startswith("parse_"):
            # load_* reads a file and hands its text to parse_*: count bytes once
            def post(args, result):
                extra["formats.parse.bytes_in"] += len(args[0])
            return post
        if metric == "formats.serialize":
            def post(args, result):
                extra["formats.serialize.bytes_out"] += len(result)
            return post
        return None

    def wrap(self, fn, metric, post=None, timed_extra=None):
        nid = self._name_id(metric)
        stack, calls, self_s = self.stack, self.calls, self.self_s
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end = self.span_start, self.span_end

        def traced(*args, **kwargs):
            sid = len(s_name)
            if sid < MAX_SPANS:
                s_name.append(nid)
                s_parent.append(stack[-1][1] if stack else -1)
                s_start.append(0.0)
                s_end.append(0.0)
            else:
                sid = -1
                self.dropped += 1
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                calls[nid] += 1
                self_s[nid] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if sid >= 0:
                    s_start[sid] = t0
                    s_end[sid] = t1
                if timed_extra is not None:
                    timed_extra(args, dur)
            if post is not None:
                post(args, result)
            return result

        return traced

    def _suite_timer(self, args, dur):
        self.extra[f"harness.suite.{args[0]}.s"] += dur
        self.extra["harness.trials"] += args[1]

    def install(self):
        for cls, attr, metric, mod_name in self.targets:
            timed = self._suite_timer if metric == "harness.run_suite" else None
            owner = cls or self.modules[mod_name]
            original = vars(owner).get(attr) or getattr(owner, attr)
            wrapper = self.wrap(original, metric, self._post(metric, attr), timed)
            # a function imported by name is rebound in every posrel module holding it
            owners = [cls] if cls else [
                mod for name, mod in list(sys.modules.items())
                if name.startswith("posrel") and vars(mod).get(attr) is original
            ]
            for o in owners:
                self.patches.append((o, attr, original))
                setattr(o, attr, wrapper)

    def uninstall(self):
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    def span(self, name, fn):
        """Run ``fn()`` as a root span named ``name`` (one benchmark op)."""
        return self.wrap(fn, name)()

    # -- results -----------------------------------------------------------------

    def metrics(self, passes, speed):
        """Per-pass per-layer values: every traced name's calls and self time plus extras.

        Times are multiplied by ``speed``, the host-speed correction of the
        traced ops (see hostspeed.py), so that they add up to corrected op times."""
        out = {}
        for nid, name in enumerate(self.names):
            if name.startswith("op:"):
                continue
            out[f"{name}.calls"] = self.calls[nid] / passes
            out[f"{name}.self_s"] = self.self_s[nid] * speed / passes
        for key, value in self.extra.items():
            if key != "poset.find_order_iso.hits":
                out[key] = value * (speed if key.endswith(".s") else 1) / passes
        bm = self.index.get("poset.bool_mat")
        if bm is not None and self.self_s[bm] > 0:
            out["poset.bool_mat.gmadds_per_s"] = (
                self.extra["poset.bool_mat.madds"] / (self.self_s[bm] * speed) / 1e9)
        iso = self.index.get("poset.find_order_iso")
        if iso is not None and self.calls[iso]:
            out["poset.find_order_iso.hit_ratio"] = (
                self.extra["poset.find_order_iso.hits"] / self.calls[iso])
        return out

    def dump(self, path, metrics):
        spans = [
            [self.span_name[i], self.span_start[i], self.span_end[i], self.span_parent[i]]
            for i in range(len(self.span_name))
        ]
        with open(path, "w") as fh:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent"],
                       "spans": spans, "dropped_spans": self.dropped,
                       "metrics": metrics}, fh)


def per_layer_names(suites):
    """Every per-layer metric name a traced run reports, with its unit and direction."""
    rows = []
    for mod_name, paths in TRACED.items():
        for path in paths:
            rows += [(f"{mod_name}.{path}.calls", "count", "lower"),
                     (f"{mod_name}.{path}.self_s", "s", "lower")]
    for _, _, metric in GROUPED:
        rows += [(f"{metric}.calls", "count", "lower"), (f"{metric}.self_s", "s", "lower")]
    rows += [
        ("poset.bool_mat.madds", "madd-computed", "lower"),
        ("poset.bool_mat.bytes", "B-computed", "lower"),
        ("poset.bool_mat.gmadds_per_s", "Gmadd/s", "higher"),
        ("poset.all_monotone_maps.maps_out", "count", "lower"),
        ("poset.find_order_iso.hit_ratio", "ratio", "higher"),
        ("exreg.tabulate.apex_elems", "count", "lower"),
        ("formats.parse.bytes_in", "B", "lower"),
        ("formats.serialize.bytes_out", "B", "lower"),
        ("harness.trials", "count", "lower"),
    ]
    rows += [(f"harness.suite.{name}.s", "s", "lower") for name in suites]
    rows.append(("trace.overhead", "ratio", "lower"))
    return rows
