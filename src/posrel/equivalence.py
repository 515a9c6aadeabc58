"""Realization of objects-with-congruence as plain posets, and the
desk-scale equivalence checks built on it.

The quotient functor sends (X, E) to the poset of E-classes and a
morphism to the induced monotone map; in the other direction a monotone
map between realizations determines the adjoint pair by the hypergraph
formula.  The checks in this module make "fully order-faithful and
covering", essential surjectivity, and the Ord(FinSet) comparisons into
finite, decidable statements at a given size bound.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .poset import (
    MAX_MAPS,
    FinPoset,
    MonotoneMap,
    TooLarge,
    all_monotone_maps,
    are_isomorphic,
    canonical_certificate,
    classify_map,
    hom_poset,
    pointwise_order,
    poset_reflection,
)
from .relation import Relation
from .exreg import (
    ExRegMorphism,
    ExRegObject,
    _check_morphism_laws,
    crosscheck,
    gamma_object,
    graph_stack,
    hom_order,
)


def quotient_realize(obj):
    """The poset of E-classes, with the surjection from the carrier.

    Carrier: X/(E∩E°) with smallest-index representatives; order
    [x] <= [y] iff E(x, y).  Returns (poset, projection), computed once
    per object and kept on it, so every caller gets the same pair."""
    if obj._realization is None:
        Q, class_of = poset_reflection(obj.E.pairs)
        # E contains the order of X, and Q orders the classes by E
        obj._realization = Q, MonotoneMap._trusted(obj.X, Q, class_of)
    return obj._realization


def realize_morphisms(morphisms):
    """The monotone maps between realizations of parallel morphisms, in order.

    r([x]) = [y] for the first y with (x, y) in gr, read off the graphs of the
    whole list at once after checking that each graph is total.
    ``realize_morphism`` is its k = 1 case."""
    if not morphisms:
        return []
    P, p = quotient_realize(morphisms[0].src)
    Q, q = quotient_realize(morphisms[0].tgt)
    gr = graph_stack(morphisms)
    crosscheck(gr.any(axis=2).all(), "realize_morphism: the graph of a morphism must be total")
    # total graphs into an empty carrier come out of an empty one, and have no rows
    first = gr.argmax(axis=2) if gr.shape[2] else np.zeros(gr.shape[:2], dtype=np.intp)
    # any element of a class will do: E-equivalent elements have equal rows in both
    # legs, so equal rows in the graph
    rep = [0] * P.n
    for x, c in enumerate(p.assign):
        rep[c] = x
    values = np.array(q.assign, dtype=np.intp).take(first.take(rep, axis=1))
    crosscheck((Q.leq[values[:, :, None], values[:, None, :]] | ~P.leq).all(),
               "realize_morphism: the realized map must be monotone")
    return [MonotoneMap._trusted(P, Q, assign) for assign in values.tolist()]


def realize_morphism(R):
    """The monotone map between realizations: r([x]) = [y] for (x,y) in gr."""
    return realize_morphisms([R])[0]


def _morphisms_from_maps(src, tgt, maps):
    """The adjoint pairs of maps between the realizations, built and validated
    as one stack of legs."""
    if not maps:
        return []
    _, p = quotient_realize(src)
    Q, q = quotient_realize(tgt)
    # rx[i, x] = r_i([x]), the value of the i-th map at the class of x
    rx = np.array([r.assign for r in maps], dtype=np.intp)[:, np.array(p.assign, dtype=np.intp)]
    qx = np.array(q.assign, dtype=np.intp)
    lower = Q.leq[rx[:, :, None], qx]
    upper = Q.leq[qx[:, None], rx[:, None, :]]
    _check_morphism_laws(src.E.pairs, tgt.E.pairs, lower, upper)
    X, Y = src.X, tgt.X
    # the legs passed the four laws above
    return [
        ExRegMorphism(src, tgt, Relation(X, Y, low), Relation(Y, X, up))
        for low, up in zip(lower, upper)
    ]


def morphism_from_map(src, tgt, r):
    """The adjoint pair determined by a map between realizations.

    R_*(x, y) iff r([x]) <= [y] and R^*(y, x) iff [y] <= r([x]) in the
    target realization; inverse to realize_morphism.  The k = 1 case of
    ``all_morphisms``."""
    P, _ = quotient_realize(src)
    Q, _ = quotient_realize(tgt)
    if r.dom != P or r.cod != Q:
        raise ValueError("map does not connect the realizations")
    return _morphisms_from_maps(src, tgt, [r])[0]


def all_morphisms(src, tgt):
    """Every morphism src -> tgt, via the bijection with realization maps.

    The legs of the whole hom-set are built with one index each and
    validated in one call."""
    P, _ = quotient_realize(src)
    Q, _ = quotient_realize(tgt)
    return _morphisms_from_maps(src, tgt, all_monotone_maps(P, Q))


# -- poset catalogue ----------------------------------------------------------


MAX_CATALOGUE = 8  # largest catalogue size: 16999 classes, against 183231 at n = 9


def _within_catalogue(n):
    if n > MAX_CATALOGUE:
        raise TooLarge(f"posets on {n} elements exceed the catalogue limit of {MAX_CATALOGUE}")


def all_posets_up_to_iso(n):
    """All posets on n elements, one per isomorphism class, in certificate order.

    Each class of size n - 1 is extended by a new maximal element above each
    of its down-sets, and the candidates are deduplicated by
    ``canonical_certificate``.  Every class arises, because removing a
    maximal element leaves a poset of size n - 1 (the one-maximal-element
    generation of Brinkmann & McKay, "Posets on up to 16 points", 2002).
    Sizes for n = 0..7: 1, 1, 2, 5, 16, 63, 318, 2045 (OEIS A000112).
    An n past ``MAX_CATALOGUE`` is refused before the cache is looked up."""
    _within_catalogue(n)
    return _one_point_extensions(n)


@lru_cache(maxsize=None)
def _one_point_extensions(n):
    if n == 0:
        return (FinPoset.discrete(0),)
    m = n - 1
    subsets = ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1).astype(bool)
    found = {}
    for P in _one_point_extensions(m):
        # a subset is a down-set when nothing below one of its elements is outside it
        for down in subsets[~((subsets @ P.leq.T) & ~subsets).any(axis=1)]:
            leq = np.eye(n, dtype=bool)
            leq[:m, :m] = P.leq
            leq[:m, m] = down
            # above a down-set and below nothing, the new element keeps the order
            # reflexive, antisymmetric and transitive
            Q = FinPoset._trusted(leq)
            found.setdefault(canonical_certificate(Q), Q)
    return tuple(found[c] for c in sorted(found))


def all_posets_up_to(n):
    _within_catalogue(n)
    return [P for k in range(n + 1) for P in _one_point_extensions(k)]


# -- concrete functors and the characterization checks ------------------------


def all_functions(A, B):
    """Every function between the carriers, as maps out of a discrete A.

    Raises ``TooLarge`` before enumerating more than ``MAX_MAPS``."""
    if B.n**A.n > MAX_MAPS:
        raise TooLarge(f"{B.n}^{A.n} functions exceed the limit of {MAX_MAPS}")
    return [
        MonotoneMap(A, B, assign)
        for assign in itertools.product(range(B.n), repeat=A.n)
    ]


class ConcreteFunctor:
    """A functor from an enumerable source into finite posets.

    ``objects(bound)`` yields source objects; ``object_action`` /
    ``morphism_action`` give the image in FinPos; ``source_homs`` lists
    the source hom-set as maps, ordered pointwise; ``cover`` exhibits a
    surjection from an image object onto a given poset, or None, and its
    kernel is the characterization's witness for that poset."""

    def __init__(self, name, objects, object_action, morphism_action, source_homs, cover):
        self.name = name
        self.objects = objects
        self.object_action = object_action
        self.morphism_action = morphism_action
        self.source_homs = source_homs
        self.cover = cover


def identity_functor():
    return ConcreteFunctor(
        name="identity",
        objects=all_posets_up_to,
        object_action=lambda P: P,
        morphism_action=lambda f: f,
        source_homs=all_monotone_maps,
        cover=lambda Y: (Y, MonotoneMap.identity(Y)),
    )


def discrete_inclusion_functor():
    def objects(bound):
        return [FinPoset.discrete(k) for k in range(bound + 1)]

    def cover(Y):
        D = FinPoset.discrete(Y.n)
        # a map out of a discrete poset is monotone
        return D, MonotoneMap._trusted(D, Y, range(Y.n))

    return ConcreteFunctor(
        name="discrete-inclusion",
        objects=objects,
        object_action=lambda X: X,
        morphism_action=lambda f: f,
        source_homs=all_functions,
        cover=cover,
    )


class Report:
    """Line-oriented pass/fail report for the equivalence checks."""

    def __init__(self, title):
        self.title = title
        self.lines = []
        self.failures = 0

    def record(self, label, ok, detail=""):
        self.lines.append((label, bool(ok), detail))
        if not ok:
            self.failures += 1

    @property
    def passed(self):
        return self.failures == 0

    def render(self):
        out = [self.title]
        for label, ok, detail in self.lines:
            status = "ok" if ok else "FAIL"
            out.append(f"  {status:4s} {label}" + (f" ({detail})" if detail else ""))
        out.append(f"  {'pass' if self.passed else 'fail'}: {self.failures} failure(s)")
        return "\n".join(out)


def kernel_object(e):
    """(dom e, e*<=): the kernel congruence of e as a completion object.

    Its realization is the image of e, so it is isomorphic to cod e
    exactly when e is surjective."""
    idx = np.array(e.assign, dtype=np.intp)
    # the order of cod e pulled back along monotone e is transitive and contains dom e's order
    return ExRegObject._trusted(e.dom, e.cod.leq[idx[:, None], idx])


def compare_homs(source_leq, images, targets):
    """(injective, surjective, order) for a map from a hom-poset to hom(P, Q).

    ``images[a]`` is the image of the element of row a of the source order
    ``source_leq``, and ``targets`` lists hom(P, Q); all three hold exactly
    when the map is an order-isomorphism."""
    image_set = set(images)
    order = pointwise_order(images, images[0].cod.leq) if images else np.ones((0, 0), dtype=bool)
    return (
        len(image_set) == len(images),
        image_set == set(targets),
        bool((source_leq == order).all()),
    )


def characterize(F, bound):
    """The characterization of F at a bound: the reports of its three clauses.

    Fully order-faithful: each hom(A, B) -> hom(FA, FB) is an order-isomorphism.
    Covering: F's cover e: FX ↠ Y of each catalogue poset Y is a surjection
    from the image of a source object.  Characterization: the kernel of e
    realizes Y, and on carriers of at most 3 elements the completion's
    hom-posets are those of the realizations."""
    faithful = Report(f"fully-order-faithful: {F.name}, bound {bound}")
    covering = Report(f"covering: {F.name}, bound {bound}")
    realizes = Report(f"characterization: {F.name}, bound {bound}")
    # the last two clauses run over the catalogue up to the bound, so a bound past its
    # limit is refused before any source object is built
    _within_catalogue(bound)
    objs = F.objects(bound)
    # every source hom-set is listed first, so an enumeration budget refuses
    # the bound before any pointwise order is built
    homs = [(A, B, F.source_homs(A, B)) for A in objs for B in objs]
    for A, B, maps in homs:
        images = [F.morphism_action(f) for f in maps]
        FA, FB = F.object_action(A), F.object_action(B)
        targets = all_monotone_maps(FA, FB)
        injective, surjective, order = compare_homs(pointwise_order(maps, B.leq), images, targets)
        detail = f"inj={injective} surj={surjective} order={order}"
        faithful.record(f"hom({A.n},{B.n})", injective and surjective and order, detail)
    sources = set(objs)
    samples = []
    for idx, Y in enumerate(all_posets_up_to(bound)):
        cover_label, realize_label = f"cover of class {idx} (n={Y.n})", f"realizes n={Y.n} class"
        got = F.cover(Y)
        if got is None or got[0] not in sources:
            why = "no cover supplied" if got is None else "cover starts outside the source"
            covering.record(cover_label, False, why)
            realizes.record(realize_label, False, why)
            continue
        X, e = got
        covering.record(
            cover_label, e.cod == Y and e.dom == F.object_action(X) and classify_map(e).is_so
        )
        obj = kernel_object(e)
        realizes.record(realize_label, are_isomorphic(quotient_realize(obj)[0], Y))
        if Y.n <= 3:
            samples.append(obj)
    for A in samples:
        for B in samples:
            maps = all_monotone_maps(quotient_realize(A)[0], quotient_realize(B)[0])
            morphisms = _morphisms_from_maps(A, B, maps)
            ok = compare_homs(hom_order(morphisms), realize_morphisms(morphisms), maps)
            realizes.record(f"hom ({A.X.n},{B.X.n})-carriers", all(ok))
    return [faithful, covering, realizes]


# -- the internal category Ord(FinSet) ---------------------------------------


class OrdObject:
    """An internal poset in finite sets: a carrier size and an order matrix."""

    __slots__ = ("size", "leq")

    def __init__(self, size, leq):
        self.size = size
        self.leq = np.ascontiguousarray(leq, dtype=bool)
        if self.leq.shape != (size, size):
            raise ValueError(f"order matrix must be {size} x {size}, got {self.leq.shape}")
        # internal order axioms are exactly the poset axioms
        FinPoset(self.leq)
        self.leq.flags.writeable = False

    def to_poset(self):
        return FinPoset(self.leq)

    @classmethod
    def from_poset(cls, P):
        return cls(P.n, P.leq)

    def __eq__(self, other):
        return (
            isinstance(other, OrdObject)
            and self.size == other.size
            # square bool matrices with the same number of bytes have the same shape
            and self.leq.tobytes() == other.leq.tobytes()
        )

    def __hash__(self):
        return hash((self.size, self.leq.tobytes()))


def ord_hom_poset(A, B):
    """Order-preserving internal maps A -> B under pointwise order.

    Brute force: all |B|^|A| tuples in lexicographic order, kept where each
    related pair of A lands on a related pair of B, then ordered by comparing
    every pair of kept tuples at every element."""
    count = B.size**A.size
    tuples = np.indices((B.size,) * A.size).reshape(A.size, count).T
    lo, hi = np.nonzero(A.leq)
    maps = tuples[B.leq[tuples[:, lo], tuples[:, hi]].all(axis=1)]
    leq = B.leq[maps[:, None, :], maps[None, :, :]].all(axis=2)
    return FinPoset(leq), [tuple(m) for m in maps.tolist()]


def ord_product(A, B):
    """Product carrier A x B in finite sets with componentwise internal order."""
    size = A.size * B.size
    leq = np.kron(A.leq, B.leq)
    return OrdObject(size, leq)


def ord_inserter(A, B, f, g):
    """The subobject {x : f(x) <= g(x)} with the restricted order."""
    keep = [x for x in range(A.size) if B.leq[f[x], g[x]]]
    leq = A.leq[np.ix_(keep, keep)] if keep else np.zeros((0, 0), bool)
    return OrdObject(len(keep), leq), keep


def ord_image_factorize(A, B, f):
    """Image subobject of f: A -> B with the order induced from B."""
    image = sorted(set(f))
    leq = B.leq[np.ix_(image, image)] if image else np.zeros((0, 0), bool)
    M = OrdObject(len(image), leq)
    pos = {c: k for k, c in enumerate(image)}
    return M, [pos[f[x]] for x in range(A.size)], image


def commutation_check(bound):
    """Compare the three presentations of the same Pos-category at a bound.

    Witnessed only for the base category of finite sets (which is its
    own ordinary exact completion); the general statement is out of
    scope and noted in the report header."""
    # the header names the bound, so one past the catalogue is refused though unused
    _within_catalogue(bound)
    report = Report(
        f"commutation at bound {bound} (base category: finite sets only)"
    )
    sampled = min(bound, 3)
    small = all_posets_up_to(sampled)
    # Ord(FinSet) vs FinPos: same objects, same hom-posets
    for A in small:
        for B in small:
            OA, OB = OrdObject.from_poset(A), OrdObject.from_poset(B)
            H_ord, ord_maps = ord_hom_poset(OA, OB)
            H_pos, maps = hom_poset(A, B)
            # both list the same functions in lexicographic order: compare under that bijection
            same = ord_maps == [f.assign for f in maps] and H_ord == H_pos
            report.record(f"ord-hom ({A.n},{B.n})", same)
    # FinSet_ex/reg vs FinPos: every clause of the characterization
    failures = sum(r.failures for r in characterize(discrete_inclusion_functor(), sampled))
    report.record("set-completion vs posets", failures == 0, f"{failures} failure(s)")
    # completion over poset carriers realizes back into FinPos as well
    for A in small:
        Q, _ = quotient_realize(gamma_object(A))
        report.record(f"poset-carrier realization n={A.n}", are_isomorphic(Q, A))
    return report


def discrete_check(bound):
    """Every poset up to the bound is covered by a discrete object."""
    report = Report(f"enough discrete objects, bound {bound}")
    cover = discrete_inclusion_functor().cover
    for Y in all_posets_up_to(bound):
        _, e = cover(Y)
        cls = classify_map(e)
        ok = cls.is_so and (not Y.is_discrete() or cls.is_iso)
        report.record(f"cover n={Y.n}", ok)
    return report
