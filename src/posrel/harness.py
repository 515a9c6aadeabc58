"""Randomized law suites with deterministic seeding and draw-based shrinking.

Every lemma the engine implements has a suite here that generates random
instances and checks the law against an independent oracle (usually
brute-force enumeration); ``exreg-factorization``, ``tabulation`` and
``exactness`` check theirs through their constructions' cross-checks.
Reports are rendered without timing data so that identical (suite,
trials, seed) invocations are byte-identical; wall time is tracked
separately for the CLI to print on stderr.
"""

from __future__ import annotations

import itertools
import random
import time

import numpy as np

from . import equivalence, exreg, poset, relation
from .poset import FinPoset, MonotoneMap
from .relation import Relation


class UnknownSuite(KeyError):
    pass


DEFAULT_RELATION_CAP = 5


# -- generators ---------------------------------------------------------------


def gen_poset(rng, n, p=0.35):
    """Random poset: upper-triangular edges with probability p, closed by
    ``poset.close_rows_with`` over the discrete order."""
    rows, cols = [], []
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < p:
            rows.append(i)
            cols.append(j)
    up, _ = poset.close_rows_with([1 << v for v in range(n)], rows, cols)
    # every edge goes up the numbering, so the closure has no cycle
    return FinPoset._trusted(poset._bool_rows(up), None, up)


def gen_map(rng, X, Y):
    """A random monotone map X -> Y, or None when there is none (Y is empty and
    X is not).

    The first map of ``poset.walk_monotone_maps`` that draws each value from
    its options: a value that leaves a later element with no option is
    dropped and another is drawn.  Every monotone map can be drawn, but not
    uniformly.  Each draw goes through ``rng``, so the shrinker reduces maps
    too: all-zero draws give the least choices."""
    walk = poset.walk_monotone_maps(X, Y, lambda options: options.pop(rng.randrange(len(options))))
    return next(walk, None)


def gen_relation(rng, X, Y, p=0.4):
    mat = np.zeros((X.n, Y.n), dtype=bool)
    for x in range(X.n):
        for y in range(Y.n):
            if rng.random() < p:
                mat[x, y] = True
    return Relation(X, Y, mat)


def gen_weakening_relation(rng, X, Y, p=0.3):
    return gen_relation(rng, X, Y, p).weakening_closure()


def gen_congruence(rng, X):
    """The object X with the congruence generated by its order and two random pairs."""
    pairs = [(rng.randrange(X.n), rng.randrange(X.n)) for _ in range(2)] if X.n else []
    return exreg.ExRegObject.from_pairs(X, pairs)


def gen_exreg_object(rng, cap):
    return gen_congruence(rng, gen_poset(rng, rng.randrange(1, cap + 1)))


def gen_exreg_morphism(rng, src, tgt):
    """A random morphism src -> tgt: the one of a ``gen_map`` draw between their
    realizations."""
    P, _ = equivalence.quotient_realize(src)
    Q, _ = equivalence.quotient_realize(tgt)
    r = gen_map(rng, P, Q)
    return equivalence.morphism_from_map(src, tgt, r)


# -- shrinking ----------------------------------------------------------------

SIMPLEST_FLOAT = 1.0 - 2.0**-53  # the largest float below 1
SHRINK_BUDGET = 500  # trial replays per failure
DELETE_AFTER = 32  # draws a lowered int may free behind it


class ChoiceStream(random.Random):
    """``random.Random(seed)`` that records its draws; with ``replay``, it hands
    out those draws instead, and the simplest one (0, or SIMPLEST_FLOAT) for a
    draw that is missing, of the wrong kind or too wide.  Generators take sizes
    from ``randrange`` (through ``getrandbits``) and add an edge or a pair when
    ``random() < p``, so simple draws give small, sparse instances."""

    def __init__(self, seed=None, replay=None):
        super().__init__(seed)
        self.replay = None if replay is None else iter(replay)
        self.draws = []

    def random(self):
        value = super().random() if self.replay is None else next(self.replay, None)
        self.draws.append(value if isinstance(value, float) else SIMPLEST_FLOAT)
        return self.draws[-1]

    def getrandbits(self, k):
        value = super().getrandbits(k) if self.replay is None else next(self.replay, None)
        self.draws.append(value if isinstance(value, int) and value >> k == 0 else 0)
        return self.draws[-1]


def _measure(draws):
    """Shortlex size: fewer draws, then fewer non-simplest draws, then smaller ints."""
    plain = sum(1 for v in draws if v != (0 if isinstance(v, int) else SIMPLEST_FLOAT))
    return len(draws), plain, sum(v for v in draws if isinstance(v, int))


def _moves(draws, i):
    """Candidate draw lists that differ from ``draws`` from index ``i`` on."""
    for size in (8, 4, 2, 1):
        if i + size <= len(draws):
            yield draws[:i] + draws[i + size:]
    value = draws[i]
    if isinstance(value, int):
        for lower in sorted({v for v in (0, value // 2, value - 1) if 0 <= v < value}):
            for k in range(min(DELETE_AFTER, len(draws) - i - 1) + 1):
                yield draws[:i] + [lower] + draws[i + 1 + k:]
    elif value != SIMPLEST_FLOAT:
        yield draws[:i] + [SIMPLEST_FLOAT] + draws[i + 1:]


def _outcome(trial_fn, rng, cap):
    """``(kind, message)`` for a failing trial, or None when it passes; ``kind``
    is the exception class the trial raised, or None for a returned message.
    ``TooLarge`` is not caught: a trial past an enumeration budget is refused,
    as every budget overflow is, not reported and shrunk as a law failure."""
    try:
        message = trial_fn(rng, cap)
    except poset.TooLarge:
        raise
    except Exception as exc:  # a law check crashing is a failure too
        return type(exc), f"{type(exc).__name__}: {exc}"
    return None if message is None else (None, message)


def _shrink_failure(trial_fn, stream_seed, cap):
    """``"<k> draws: <message>"`` for a failing trial's greedily reduced draws
    (None if the failure does not recur on a recording re-run).  A candidate is
    kept when the trial still fails the same way (the same exception class, or
    a returned message) on draws smaller by ``_measure``, which makes the
    reduction end; it costs at most ``SHRINK_BUDGET`` replays."""
    rng = ChoiceStream(stream_seed)
    failed = _outcome(trial_fn, rng, cap)
    if failed is None:
        return None
    kind, message = failed
    draws, budget, i = rng.draws, SHRINK_BUDGET, 0
    while i < len(draws) and budget:
        for candidate in _moves(draws, i):
            if not budget:
                break
            budget -= 1
            rng = ChoiceStream(replay=candidate)
            found = _outcome(trial_fn, rng, cap)
            if found is not None and found[0] is kind and _measure(rng.draws) < _measure(draws):
                draws, message = rng.draws, found[1]
                break
        else:
            i += 1
    return f"{len(draws)} draws: {message}"


# -- suite trial bodies -------------------------------------------------------
#
# Each trial returns None on success or a short description of the failure.


def _trial_modular_law(rng, cap):
    X, Y, Z = (gen_poset(rng, rng.randrange(1, cap + 1)) for _ in range(3))
    P = gen_relation(rng, X, Y)
    Q = gen_relation(rng, Y, Z)
    S = gen_relation(rng, X, Z)
    witnesses = relation.check_modular_law(P, Q, S)
    if witnesses:
        return f"modular law violated at {witnesses}"
    return None


def _trial_map_distributivity(rng, cap):
    W, X, Y, Z = (gen_poset(rng, rng.randrange(1, min(cap, 4) + 1)) for _ in range(4))
    f = gen_map(rng, W, X)
    g = gen_map(rng, Z, Y)
    R = gen_weakening_relation(rng, X, Y)
    S = gen_weakening_relation(rng, X, Y)
    if not relation.check_map_distributivity(f, g, R, S):
        return "distributivity over meet failed"
    return None


def _trial_kernel_identity(rng, cap):
    X = gen_poset(rng, rng.randrange(1, cap + 1))
    Y = gen_poset(rng, rng.randrange(1, cap + 1))
    f = gen_map(rng, X, Y)
    if not relation.kernel_identity_check(f):
        return "f^* f_* differs from the kernel congruence"
    return None


def _trial_maps_theorem(rng, cap):
    X = gen_poset(rng, rng.randrange(1, min(cap, 4) + 1))
    Y = gen_poset(rng, rng.randrange(1, min(cap, 4) + 1))
    phi = gen_weakening_relation(rng, X, Y)
    psi = relation.has_right_adjoint(phi)
    hypergraphs = {relation.hypergraph(f) for f in poset.all_monotone_maps(X, Y)}
    if (psi is not None) != (phi in hypergraphs):
        return "adjoint existence disagrees with hypergraph enumeration"
    if psi is not None:
        f = relation.extract_map(phi, psi)
        if relation.hypergraph(f) != phi or relation.hypograph(f) != psi:
            return "extracted map does not round-trip"
    return None


def _trial_r4_redundancy(rng, cap):
    # every so-morphism is effective: the coinserter of its own kernel
    # congruence, up to the canonical comparison isomorphism
    X = gen_poset(rng, rng.randrange(1, cap + 1))
    Y = gen_poset(rng, rng.randrange(1, cap + 1))
    f = gen_map(rng, X, Y)
    e, _ = poset.image_factorize(f)
    K, k0, k1 = poset.kernel_congruence(e)
    q = poset.coinserter(k0, k1)
    if q.cod.n != e.cod.n:
        return "comparison carriers differ"
    h = [None] * q.cod.n
    for x in range(X.n):
        h[q.assign[x]] = e.assign[x]
    try:
        comparison = MonotoneMap(q.cod, e.cod, h)
    except poset.NotMonotone:
        return "comparison map is not monotone"
    if not poset.classify_map(comparison).is_iso:
        return "comparison map is not an isomorphism"
    if any(comparison.assign[q.assign[x]] != e.assign[x] for x in range(X.n)):
        return "comparison triangle does not commute"
    return None


def _trial_pasting(rng, cap):
    cap = min(cap, 4)
    X = gen_poset(rng, rng.randrange(1, cap + 1))
    Y = gen_poset(rng, rng.randrange(1, cap + 1))
    Z = gen_poset(rng, rng.randrange(1, cap + 1))
    Xp = gen_poset(rng, rng.randrange(1, cap + 1))
    f = gen_map(rng, X, Y)
    g = gen_map(rng, Z, Y)
    x = gen_map(rng, Xp, X)
    Q, q0, q1 = poset.comma(f, g)
    P, p0, p1 = poset.pullback(x, q0)
    outer0, outer1 = p0, p1.then(q1)
    if not poset.is_comma_square(x.then(f), g, outer0, outer1):
        return "pullback-then-comma rectangle is not a comma square"
    # converse: the comma of (fx, g) must agree with the pullback
    C, c0, c1 = poset.comma(x.then(f), g)
    pts_comma = {(c0.assign[k], c1.assign[k]) for k in range(C.n)}
    pts_pasted = {(outer0.assign[k], outer1.assign[k]) for k in range(P.n)}
    if pts_comma != pts_pasted:
        return "comma and pasted pullback have different points"
    return None


def _trial_kernel_coinserter_duality(rng, cap):
    X = gen_poset(rng, rng.randrange(1, cap + 1))
    # (1) a coinserter is the coinserter of its kernel congruence
    W = gen_poset(rng, rng.randrange(1, 3))
    f0 = gen_map(rng, W, X)
    f1 = gen_map(rng, W, X)
    q = poset.coinserter(f0, f1)
    K, k0, k1 = poset.kernel_congruence(q)
    q2 = poset.coinserter(k0, k1)
    if [q2.assign[x] for x in range(X.n)] != [q.assign[x] for x in range(X.n)]:
        return "coinserter of kernel congruence differs"
    # (2) a kernel congruence is the kernel congruence of its coinserter
    Y = gen_poset(rng, rng.randrange(1, cap + 1))
    f = gen_map(rng, X, Y)
    R, r0, r1 = poset.kernel_congruence(f)
    p = poset.coinserter(r0, r1)
    ker_f = {(a, b) for a in range(X.n) for b in range(X.n) if Y.leq[f.assign[a], f.assign[b]]}
    ker_p = {(a, b) for a in range(X.n) for b in range(X.n) if p.cod.leq[p.assign[a], p.assign[b]]}
    if ker_f != ker_p:
        return "kernel congruence not recovered from the coinserter"
    return None


def _trial_coinserters_are_so(rng, cap):
    W = gen_poset(rng, rng.randrange(1, 3))
    X = gen_poset(rng, rng.randrange(1, cap + 1))
    q = poset.coinserter(gen_map(rng, W, X), gen_map(rng, W, X))
    if not poset.classify_map(q).is_so:
        return "coinserter is not an so-morphism"
    return None


def _trial_effective_splitting(rng, cap):
    # every congruence here is effective: it splits through its quotient
    X = gen_poset(rng, rng.randrange(1, cap + 1))
    obj = gen_congruence(rng, X)
    _, p = equivalence.quotient_realize(obj)
    identities = relation.exact_fork_identities(p, obj.E)
    return ", ".join(name for name, holds in identities.items() if not holds) or None


def _trial_quotient_bijection(rng, cap):
    A = gen_exreg_object(rng, min(cap, 4))
    B = gen_exreg_object(rng, min(cap, 4))
    R = gen_exreg_morphism(rng, A, B)
    r = equivalence.realize_morphism(R)
    if equivalence.morphism_from_map(A, B, r) != R:
        return "morphism-to-map round trip failed"
    S = gen_exreg_morphism(rng, A, B)
    if exreg.hom_leq(R, S) != r.leq(equivalence.realize_morphism(S)):
        return "hom order not preserved by realization"
    return None


def _trial_tabulation(rng, cap):
    A = gen_exreg_object(rng, 3)
    B = gen_exreg_object(rng, 3)
    raw = gen_relation(rng, A.X, B.X)
    phi = relation.compose(B.core(), relation.compose(raw, A.core()))
    tab = exreg.tabulate(phi, A, B)
    W = gen_exreg_object(rng, 3)
    # W, A and B have elements, so neither hom-set is empty and each stacks
    to_B = equivalence.all_morphisms(W, B)
    to_A = equivalence.all_morphisms(W, A)
    G1 = exreg.graph_stack(to_B)
    for S0, g0 in zip(to_A, exreg.graph_stack(to_A)):
        # the cones gr(S1) gr(S0)° of every S1 at once, each tested against Φ
        cones = poset.bool_mat(g0.T, G1)
        included = ~(cones & ~phi.pairs).reshape(len(to_B), -1).any(axis=1)
        for S1 in itertools.compress(to_B, included.tolist()):
            # tabulation_factor cross-checks that H recovers both legs
            exreg.tabulation_factor(tab, S0, S1)
    return None


def _trial_jointly_mono(rng, cap):
    A = gen_exreg_object(rng, 3)
    B = gen_exreg_object(rng, 3)
    C = gen_exreg_object(rng, 3)
    R = gen_exreg_morphism(rng, A, B)
    S = gen_exreg_morphism(rng, A, C)
    criterion = exreg.jointly_order_mono_pair(R, S)
    rR, rS = equivalence.realize_morphism(R), equivalence.realize_morphism(S)
    oracle = poset.jointly_order_mono(rR, rS)
    if criterion != oracle:
        return "criterion disagrees with the realized joint embedding test"
    return None


def _trial_classification(rng, cap):
    A = gen_exreg_object(rng, min(cap, 4))
    B = gen_exreg_object(rng, min(cap, 4))
    R = gen_exreg_morphism(rng, A, B)
    cls = exreg.classify(R)
    oracle = poset.classify_map(equivalence.realize_morphism(R))
    if (cls.is_ff, cls.is_so) != (oracle.is_ff, oracle.is_so):
        return "classification disagrees with the realized map"
    return None


def _trial_exreg_limits(rng, cap):
    A = gen_exreg_object(rng, 3)
    B = gen_exreg_object(rng, 3)
    C = gen_exreg_object(rng, 3)
    R = gen_exreg_morphism(rng, A, C)
    S = gen_exreg_morphism(rng, B, C)
    rR, rS = equivalence.realize_morphism(R), equivalence.realize_morphism(S)
    for kind, pos_ctor in (("pullback", poset.pullback), ("comma", poset.comma)):
        tab = exreg.limit(kind, R, S)
        P, _, _ = pos_ctor(rR, rS)
        Q, _ = equivalence.quotient_realize(tab.apex)
        if not poset.are_isomorphic(Q, P):
            return f"{kind} apex does not realize to the poset construction"
    prod = exreg.limit("product", A, B)
    QA, _ = equivalence.quotient_realize(A)
    QB, _ = equivalence.quotient_realize(B)
    P, _, _ = poset.product(QA, QB)
    Q, _ = equivalence.quotient_realize(prod.apex)
    if not poset.are_isomorphic(Q, P):
        return "product apex does not realize to the product of realizations"
    return None


def _trial_exreg_factorization(rng, cap):
    A = gen_exreg_object(rng, min(cap, 4))
    B = gen_exreg_object(rng, min(cap, 4))
    R = gen_exreg_morphism(rng, A, B)
    # factorize cross-checks that Q is so, M is ff and M Q = R
    exreg.factorize(R)
    return None


def _trial_so_stability(rng, cap):
    A = gen_exreg_object(rng, 3)
    B = gen_exreg_object(rng, 3)
    C = gen_exreg_object(rng, 3)
    R = gen_exreg_morphism(rng, A, C)
    S = gen_exreg_morphism(rng, B, C)
    if not exreg.classify(R).is_so:
        Q, _ = exreg.factorize(R)
        R, C = Q, Q.tgt
        S = gen_exreg_morphism(rng, B, C)
    tab = exreg.limit("pullback", R, S)
    # the projection over the other object must be so again
    if not exreg.classify(tab.leg1).is_so:
        return "pullback of an so-morphism is not so"
    return None


def _trial_exactness(rng, cap):
    obj = gen_exreg_object(rng, min(cap, 4))
    n = obj.X.n
    extra = poset.pair_mask((n, n), [(rng.randrange(n), rng.randrange(n)) for _ in range(2)])
    # closed by squaring, so split_congruence's cross-checks (m q = R, q is so and its
    # kernel is R) run on a matrix that another algorithm made
    exreg.split_congruence(obj, poset.transitive_closure(obj.E.pairs | extra))
    return None


def _trial_presentation(rng, cap):
    obj = gen_exreg_object(rng, min(cap, 4))
    pres = exreg.canonical_presentation(obj)
    if not exreg.classify(pres.quotient).is_so:
        return "presentation quotient is not so"
    tab = exreg.limit("comma", pres.quotient, pres.quotient)
    QK, _ = equivalence.quotient_realize(pres.kernel)
    QT, _ = equivalence.quotient_realize(tab.apex)
    if not poset.are_isomorphic(QK, QT):
        return "kernel is not the comma of the quotient with itself"
    return None


def _trial_universal_property(rng, cap):
    A = gen_exreg_object(rng, min(cap, 4))
    B = gen_exreg_object(rng, min(cap, 4))
    C = gen_exreg_object(rng, min(cap, 4))
    R = gen_exreg_morphism(rng, A, B)
    S = gen_exreg_morphism(rng, B, C)
    lift = equivalence.realize_morphism
    if lift(exreg.compose_morphisms(S, R)) != lift(R).then(lift(S)):
        return "induced functor is not functorial"
    X = gen_poset(rng, rng.randrange(1, cap + 1))
    Q, _ = equivalence.quotient_realize(exreg.gamma_object(X))
    if not poset.are_isomorphic(Q, X):
        return "induced functor does not restrict to the embedding"
    return None


SUITES = {
    "modular-law": ("modular law and its dual hold for all relations", _trial_modular_law),
    "map-distributivity": (
        "meets distribute over pre/post-composition with map legs",
        _trial_map_distributivity,
    ),
    "kernel-identity": (
        "hypograph-then-hypergraph equals the kernel congruence",
        _trial_kernel_identity,
    ),
    "maps-theorem": (
        "a weakening relation has a right adjoint iff it is a hypergraph",
        _trial_maps_theorem,
    ),
    "r4-redundancy": (
        "every so-morphism is the coinserter of its kernel congruence",
        _trial_r4_redundancy,
    ),
    "pasting": (
        "pasting a pullback onto a comma square yields a comma square",
        _trial_pasting,
    ),
    "kernel-coinserter-duality": (
        "kernel congruences and coinserters determine each other",
        _trial_kernel_coinserter_duality,
    ),
    "coinserters-are-so": ("every coinserter is an so-morphism", _trial_coinserters_are_so),
    "effective-splitting": (
        "every congruence splits through its quotient",
        _trial_effective_splitting,
    ),
    "quotient-bijection": (
        "morphisms correspond bijectively to maps of realizations",
        _trial_quotient_bijection,
    ),
    "tabulation": ("tabulations factor every compatible cone uniquely", _trial_tabulation),
    "jointly-mono": (
        "the joint-embedding criterion matches the enumeration test",
        _trial_jointly_mono,
    ),
    "classification": (
        "ff/so classification matches the realized maps",
        _trial_classification,
    ),
    "exreg-limits": (
        "finite limits realize to the corresponding poset limits",
        _trial_exreg_limits,
    ),
    "exreg-factorization": ("every morphism factors as so followed by ff", _trial_exreg_factorization),
    "so-stability": ("so-morphisms are stable under pullback", _trial_so_stability),
    "exactness": ("congruences over an object split effectively", _trial_exactness),
    "presentation": (
        "every object has its canonical exact presentation",
        _trial_presentation,
    ),
    "universal-property": (
        "the induced exact functor is functorial and restricts correctly",
        _trial_universal_property,
    ),
}


class SuiteReport:
    """Outcome of one suite run; renders identically for identical inputs."""

    __slots__ = ("name", "trials", "seed", "failures", "wall_time")

    def __init__(self, name, trials, seed, failures, wall_time):
        self.name = name
        self.trials = trials
        self.seed = seed
        self.failures = failures
        self.wall_time = wall_time

    @property
    def passed(self):
        return not self.failures

    def render(self):
        lines = [
            f"suite {self.name}: {self.trials} trials, seed {self.seed}: "
            + ("ok" if self.passed else f"{len(self.failures)} FAILURES")
        ]
        for trial, message, shrunk in self.failures:
            lines.append(f"  trial {trial}: {message}")
            if shrunk is not None:
                lines.append(f"    shrunk: {shrunk}")
        return "\n".join(lines)


def run_suite(name, trials, seed, cap=DEFAULT_RELATION_CAP):
    """Run one registered suite; failures carry their reproducing sub-seed."""
    if name not in SUITES:
        raise UnknownSuite(name)
    if cap < 1:
        raise poset.InputError(f"bound must be at least 1, got {cap}")
    if cap > poset.MAX_ELEMENTS:
        raise poset.TooLarge(f"bound {cap} exceeds the limit of {poset.MAX_ELEMENTS}")
    _, trial_fn = SUITES[name]
    failures = []
    start = time.perf_counter()
    for t in range(trials):
        stream_seed = f"{seed}:{t}"  # independent of other trials, stable across runs
        failed = _outcome(trial_fn, random.Random(stream_seed), cap)
        if failed is not None:
            shrunk = _shrink_failure(trial_fn, stream_seed, cap)
            failures.append((t, f"[seed {stream_seed}] {failed[1]}", shrunk))
    wall = time.perf_counter() - start
    return SuiteReport(name, trials, seed, failures, wall)
