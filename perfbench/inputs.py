"""Seeded inputs and expected results for the three benchmark workloads.

Nothing here imports posrel.  Inputs are written as the engine's text formats
and the facts each op must reproduce (hom-sets, isomorphism verdicts, apex
sizes, harness reports) come from small numpy oracles in this file, so a
change to the program can change neither what the benchmark asks nor what it
expects.

A plan is a JSON-ready dict: ``{"workload", "seed", "ops": [...]}``.  Each op
has an ``id``, a ``kind`` (``cli`` or ``call``), its arguments and an
``expect`` dict of facts the worker must report back (see worker.py).
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random

import numpy as np

WORKLOADS = ("harness-mix", "equiv-enum", "carrier-files")

# The suites registered in posrel.harness at the commit that defined this
# benchmark.  Fixed here so that adding a suite does not change the job.
SUITES = (
    "classification", "coinserters-are-so", "effective-splitting", "exactness",
    "exreg-factorization", "exreg-limits", "jointly-mono",
    "kernel-coinserter-duality", "kernel-identity", "map-distributivity",
    "maps-theorem", "modular-law", "pasting", "presentation",
    "quotient-bijection", "r4-redundancy", "so-stability", "tabulation",
    "universal-property",
)

# 19 suites x 19 seeds = 361 ops: an odd count, with 36 ops above the p90 rank.
# Many seeds with few trials each, so that the op-latency median rests on many
# ops and moves little with the workload seed (IQR/median over ten seeds 0.06,
# against 0.14 with 7 seeds x 25 trials).
HARNESS_SEEDS = 19
HARNESS_TRIALS = 9
HARNESS_BOUND = 5

EQUIV_BOUND = 4
CATALOGUE_N = 5
CATALOGUE_CLASSES = 63  # OEIS A000112
# 3 verbs + catalogue + 25 hom + 16 iso = 45 ops, an odd count.  The iso ops
# take well under a millisecond and vary with the pair; the hom ops, held to
# a window of hom-set sizes, outnumber them so that the p50 and p90 ranks
# fall on hom ops.
HOM_OPS = 25
HOM_SIZE = (5, 4)  # |X|, |Y|
HOM_MAPS = (125, 135)  # accepted range of |hom(X, Y)|, so every seed costs the same
ISO_PAIRS = 8  # of each kind: isomorphic, and non-isomorphic with equal signature
ISO_N = 7


def sha(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def rng_for(*parts):
    return random.Random(":".join(str(p) for p in parts))


# -- order oracles --------------------------------------------------------------


def _within(value, window):
    return window[0] <= value <= window[1]


def _until(rng, make, accept):
    """Draw ``make(rng)`` until the draw is accepted."""
    while True:
        value = make(rng)
        if accept(value):
            return value


def closure(mat):
    """Reflexive-transitive closure by repeated squaring (exact float64 counts)."""
    c = np.asarray(mat, dtype=bool) | np.eye(mat.shape[0], dtype=bool)
    while True:
        f = c.astype(np.float64)
        nxt = (f @ f) > 0
        if (nxt == c).all():
            return c
        c = nxt


def random_order(rng, n, p):
    """Random order on 0..n-1 in which index order is a linear extension."""
    m = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                m[i, j] = True
    return closure(m)


def covers(leq):
    lt = leq & ~np.eye(leq.shape[0], dtype=bool)
    f = lt.astype(np.float64)
    return [(int(i), int(j)) for i, j in np.argwhere(lt & ~((f @ f) > 0))]


def poset_text(leq):
    return "".join([f"poset {leq.shape[0]}\n"] + [f"{i} < {j}\n" for i, j in covers(leq)])


def monotone_maps(xleq, yleq):
    """All monotone maps as rows of an assignment array, lexicographic."""
    nx, ny = xleq.shape[0], yleq.shape[0]
    cand = np.array(list(itertools.product(range(ny), repeat=nx)), dtype=np.int64)
    cand = cand.reshape(-1, nx)
    ok = np.ones(len(cand), dtype=bool)
    for i, j in np.argwhere(xleq):
        ok &= yleq[cand[:, i], cand[:, j]]
    return cand[ok]


def pointwise_order(maps, yleq):
    k = len(maps)
    leq = np.ones((k, k), dtype=bool)
    for i in range(maps.shape[1]):
        leq &= yleq[maps[:, i][:, None], maps[:, i][None, :]]
    return leq


def hom_digest(assigns, leq):
    """Digest shared with worker.py: map list in order, then the order matrix."""
    text = ";".join(",".join(str(int(a)) for a in row) for row in assigns)
    return sha(text + "|" + "".join("1" if b else "0" for b in np.asarray(leq).ravel()))


def signature(leq):
    return sorted(zip(leq.sum(axis=0).tolist(), leq.sum(axis=1).tolist()))


def isomorphic(a, b, perms):
    return bool((a[perms[:, :, None], perms[:, None, :]] == b).all(axis=(1, 2)).any())


def same_signature_pairs(rng, perms):
    """ISO_PAIRS non-isomorphic pairs with equal (down, up) signatures.

    Equal signatures mean the isomorphism search cannot reject the pair by
    counting and has to backtrack."""
    pairs = []
    while len(pairs) < ISO_PAIRS:
        buckets = {}
        for _ in range(1000):
            r = random_order(rng, ISO_N, 0.3)
            buckets.setdefault(tuple(signature(r)), []).append(r)
        for first, *rest in buckets.values():
            other = next((b for b in rest if not isomorphic(first, b, perms)), None)
            if other is not None:
                pairs.append((first, other))
            if len(pairs) == ISO_PAIRS:
                break
    return pairs


# -- harness-mix ----------------------------------------------------------------


def harness_plan(seed):
    rng = rng_for("harness-mix", seed)
    seeds = [rng.randrange(10**6) for _ in range(HARNESS_SEEDS)]
    ops = []
    for s in seeds:
        for name in SUITES:
            report = (
                f"suite {name}: {HARNESS_TRIALS} trials, seed {s}: ok\n"
                "total: 1 suite(s), 0 failure(s)\n"
            )
            ops.append({
                "id": f"harness {name} {s}",
                "kind": "cli",
                "argv": ["harness", "run", name, "--trials", str(HARNESS_TRIALS),
                         "--seed", str(s), "--bound", str(HARNESS_BOUND), "--jobs", "1"],
                "expect": {"code": 0, "digest": sha(report)},
            })
    return ops


# -- equiv-enum -----------------------------------------------------------------


def equiv_plan(seed):
    ops = [
        {"id": f"equiv {what}", "kind": "cli",
         "argv": ["equiv", what, "--bound", str(EQUIV_BOUND)], "expect": {"code": 0}}
        for what in ("set-pos", "ord", "discrete")
    ]
    ops.append({"id": "catalogue", "kind": "call", "fn": "catalogue", "n": CATALOGUE_N,
                "expect": {"code": 0, "classes": CATALOGUE_CLASSES,
                           "distinct": CATALOGUE_CLASSES}})
    rng = rng_for("equiv-enum", seed)
    nx, ny = HOM_SIZE
    made = 0
    while made < HOM_OPS:
        x = random_order(rng, nx, 0.4)
        y = random_order(rng, ny, 0.4)
        maps = monotone_maps(x, y)
        if not _within(len(maps), HOM_MAPS):
            continue
        ops.append({"id": f"hom {made}", "kind": "call", "fn": "hom_poset",
                    "X": x.tolist(), "Y": y.tolist(),
                    "expect": {"code": 0, "maps": len(maps),
                               "digest": hom_digest(maps, pointwise_order(maps, y))}})
        made += 1
    perms = np.array(list(itertools.permutations(range(ISO_N))), dtype=np.int64)
    for k, (p, r) in enumerate(same_signature_pairs(rng, perms)):
        sigma = list(range(ISO_N))
        rng.shuffle(sigma)
        q = p[np.ix_(sigma, sigma)]
        ops.append({"id": f"iso {k}", "kind": "call", "fn": "are_isomorphic",
                    "X": p.tolist(), "Y": q.tolist(), "expect": {"code": 0, "value": True}})
        ops.append({"id": f"noniso {k}", "kind": "call", "fn": "are_isomorphic",
                    "X": p.tolist(), "Y": r.tolist(), "expect": {"code": 0, "value": False}})
    return ops


# -- carrier-files --------------------------------------------------------------

GAMMA_N = 20  # Γ-objects of the Γ product: apex GAMMA_N²
OBJ_N = (20, 18)  # objects-with-congruence: product apex 360, φ inside it
MAP_N = (20, 20, 12)  # sources and common target of the comma/pullback morphisms
ORDER_P = 0.12
# Accepted size windows: narrow, so that every seed costs about the same.
PHI_PAIRS = (255, 275)
COMMA_PAIRS = (215, 235)
PULLBACK_PAIRS = (35, 50)
KERNEL_PAIRS = (110, 130)


def congruence(rng, leq, extra):
    """Closure of the order plus ``extra`` random pairs; returns (matrix, pairs)."""
    n = leq.shape[0]
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(extra)]
    m = leq.copy()
    for i, j in pairs:
        m[i, j] = True
    return closure(m), pairs


def object_text(poset_file, cong_pairs=()):
    return "".join([f"object {poset_file}\n"] + [f"cong {i} ~ {j}\n" for i, j in cong_pairs])


def rel_text(dom_file, cod_file, mat):
    return "".join([f"rel {dom_file} {cod_file}\n"]
                   + [f"{i} ~ {j}\n" for i, j in np.argwhere(mat)])


def gamma_morphism_text(src_file, tgt_file, f, cleq):
    """The morphism Γf = (f_*, f^*): lower (x, y) iff f(x) <= y, upper (y, x) iff y <= f(x)."""
    out = [f"morphism {src_file} {tgt_file}\n"]
    for x, fx in enumerate(f):
        out += [f"lower {x} ~ {y}\n" for y in np.flatnonzero(cleq[fx])]
    for y in range(cleq.shape[0]):
        out += [f"upper {y} ~ {x}\n" for x, fx in enumerate(f) if cleq[y, fx]]
    return "".join(out)


def order_over(rng, f, cleq, p):
    """A random order on the domain of f that makes f monotone."""
    n = len(f)
    m = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if cleq[f[i], f[j]] and rng.random() < p:
                m[i, j] = True
    return closure(m)


def carrier_plan(seed, in_dir, out_dir):
    """Write the seeded input files into ``in_dir`` and return the op list."""
    rng = rng_for("carrier-files", seed)
    files = {}
    ga = random_order(rng, GAMMA_N, ORDER_P)
    gb = random_order(rng, GAMMA_N, ORDER_P)
    files["ga.poset"], files["gb.poset"] = poset_text(ga), poset_text(gb)
    files["ga.exreg"], files["gb.exreg"] = object_text("ga.poset"), object_text("gb.poset")

    # objects-with-congruence; the kernel of the presentation of oa is E itself
    def make_object(rng, n):
        leq = random_order(rng, n, ORDER_P)
        return (leq,) + congruence(rng, leq, 2)

    oa, ea, ea_pairs = _until(rng, lambda r: make_object(r, OBJ_N[0]),
                              lambda o: _within(o[1].sum(), KERNEL_PAIRS))
    ob, eb, eb_pairs = make_object(rng, OBJ_N[1])
    files["oa.poset"], files["ob.poset"] = poset_text(oa), poset_text(ob)
    files["oa.exreg"] = object_text("oa.poset", ea_pairs)
    files["ob.exreg"] = object_text("ob.poset", eb_pairs)

    # φ = E ψ F for a random ψ: a bimodule oa ⇸ ob, so it tabulates
    def make_phi(rng):
        psi = np.zeros((ea.shape[0], eb.shape[0]), dtype=bool)
        phi = psi
        while phi.sum() < PHI_PAIRS[0]:
            psi[rng.randrange(ea.shape[0]), rng.randrange(eb.shape[0])] = True
            phi = (ea.astype(np.float64) @ psi @ eb.astype(np.float64)) > 0
        return phi

    phi = _until(rng, make_phi, lambda m: _within(m.sum(), PHI_PAIRS))
    files["phi.rel"] = rel_text("oa.poset", "ob.poset", phi)
    split, _ = congruence(rng, ea, 3)
    files["split.rel"] = rel_text("oa.poset", "oa.poset", split)

    # two Γ-morphisms into a common target for comma, pullback and factorize
    na, nb, nc = MAP_N

    def make_maps(rng):
        cc = random_order(rng, nc, 0.2)
        f = [rng.randrange(nc) for _ in range(na)]
        g = [rng.randrange(nc) for _ in range(nb)]
        return cc, f, g, int(cc[np.ix_(f, g)].sum()), sum(a == b for a in f for b in g)

    cc, f, g, comma_n, pullback_n = _until(
        rng, make_maps, lambda m: _within(m[3], COMMA_PAIRS) and _within(m[4], PULLBACK_PAIRS))
    ca, cb = order_over(rng, f, cc, 0.3), order_over(rng, g, cc, 0.3)
    for name, leq in (("ca", ca), ("cb", cb), ("cc", cc)):
        files[f"{name}.poset"] = poset_text(leq)
        files[f"{name}.exreg"] = object_text(f"{name}.poset")
    files["r.exreg"] = gamma_morphism_text("ca.exreg", "cc.exreg", f, cc)
    files["s.exreg"] = gamma_morphism_text("cb.exreg", "cc.exreg", g, cc)

    os.makedirs(in_dir, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(in_dir, name), "w") as fh:
            fh.write(text)

    def inp(name):
        return os.path.join(in_dir, name)

    def out(name, *rest):
        return os.path.join(out_dir, name, *rest)

    def write_op(name, argv, apex_file, apex_n):
        return {"id": name, "kind": "cli", "argv": argv + ["--out-dir", out(name)],
                "out_dir": out(name),
                "expect": {"code": 0, "last": "", "heads": {apex_file: f"poset {apex_n}"}}}

    def read_op(name, verb, path, last):
        return {"id": name, "kind": "cli", "argv": [verb, "check", path],
                "expect": {"code": 0, "last": last}}

    return [
        write_op("product-gamma", ["limit", "product", inp("ga.exreg"), inp("gb.exreg")],
                 "apex.poset", GAMMA_N * GAMMA_N),
        write_op("product", ["exreg", "limit", "product", inp("oa.exreg"), inp("ob.exreg")],
                 "apex.poset", OBJ_N[0] * OBJ_N[1]),
        write_op("comma", ["limit", "comma", inp("r.exreg"), inp("s.exreg")],
                 "apex.poset", comma_n),
        write_op("pullback", ["limit", "pullback", inp("r.exreg"), inp("s.exreg")],
                 "apex.poset", pullback_n),
        write_op("tabulate", ["tabulate", inp("phi.rel"), inp("oa.exreg"), inp("ob.exreg")],
                 "apex.poset", int(phi.sum())),
        write_op("factorize", ["factorize", inp("r.exreg")], "image.poset", len(set(f))),
        write_op("present", ["present", inp("oa.exreg")], "kernel.poset", int(ea.sum())),
        write_op("split", ["split", inp("oa.exreg"), inp("split.rel")],
                 "through.poset", OBJ_N[0]),
        read_op("check product apex", "exreg", out("product-gamma", "apex.exreg"),
                "# valid object"),
        read_op("check product leg0", "exreg", out("product-gamma", "leg0.exreg"),
                "# valid morphism"),
        read_op("check tabulate apex", "exreg", out("tabulate", "apex.exreg"),
                "# valid object"),
        read_op("check tabulate leg1", "exreg", out("tabulate", "leg1.exreg"),
                "# valid morphism"),
        read_op("check section", "rel", out("split", "section.rel"),
                "# weakening-closed: yes"),
        read_op("check phi", "rel", inp("phi.rel"), "# weakening-closed: yes"),
        {"id": "check product apex poset", "kind": "cli",
         "argv": ["poset", "check", out("product-gamma", "apex.poset")],
         "expect": {"code": 0, "first": f"poset {GAMMA_N * GAMMA_N}"}},
    ]
