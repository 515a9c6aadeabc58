"""Each oracle answers without its fast path: one row per (fast path, oracle) pair.
The answers are worked out first, by the fast path, on inputs from the catalogue up
to n = 3; then the fast path is patched to fail, in every ``posrel`` module that
binds it, and the oracle must still give them."""

import importlib
import itertools
import random

import numpy as np
import pytest

from posrel import cli, equivalence, exreg, formats, harness, poset, relation
from posrel.equivalence import OrdObject, all_posets_up_to, ord_hom_poset
from posrel.poset import (
    FinPoset,
    MonotoneMap,
    all_monotone_maps,
    are_isomorphic,
    canonical_certificate,
    closure,
    comma,
    equalizer,
    equalizer_via_inserters,
    find_order_iso,
    hom_poset,
    index_mask,
    is_comma_square,
    is_comma_square_by_cones,
    pointwise_order,
    power,
    power_via_inserters,
    pullback,
    terminal,
    transitive_closure,
)
from posrel.relation import Relation, compose, compose_categorical

MODULES = [cli, equivalence, exreg, formats, harness, poset, relation]
CATALOGUE = all_posets_up_to(3)
SMALL = all_posets_up_to(2)


def seeded_maps(rng, X, Y, k):
    """At most k monotone maps X -> Y, drawn without replacement."""
    maps = all_monotone_maps(X, Y)
    return rng.sample(maps, min(k, len(maps)))


def compose_cases():
    rng = np.random.default_rng(3801)
    for X, Y, Z in itertools.product(CATALOGUE, repeat=3):
        R = Relation(X, Y, rng.random((X.n, Y.n)) < 0.5)
        S = Relation(Y, Z, rng.random((Y.n, Z.n)) < 0.5)
        yield (lambda S=S, R=R: compose_categorical(S, R)), compose(S, R)


def closure_cases():
    # each order with one pair added: orders, preorders and cycles
    for P in CATALOGUE:
        for i, j in itertools.product(range(P.n), repeat=2):
            rel = P.leq | index_mask((P.n, P.n), [i], [j])
            yield (lambda rel=rel: transitive_closure(rel).tolist()), closure(rel).tolist()


def comma_cases():
    rng = random.Random(3802)
    stages = [terminal(), FinPoset.chain(2), FinPoset.discrete(2)]
    for Z in CATALOGUE:
        for X, Y in itertools.product(SMALL, repeat=2):
            for f, g in itertools.product(seeded_maps(rng, X, Z, 1), seeded_maps(rng, Y, Z, 1)):
                for _, s0, s1 in (comma(f, g), pullback(f, g)):
                    yield ((lambda f=f, g=g, s0=s0, s1=s1: is_comma_square_by_cones(f, g, s0, s1, stages)),
                           is_comma_square(f, g, s0, s1))


def power_cases():
    for X, P in itertools.product(CATALOGUE, repeat=2):
        want = power(X, P)[0]
        yield (lambda X=X, P=P, want=want: are_isomorphic(power_via_inserters(X, P), want)), True


def equalizer_cases():
    rng = random.Random(3803)
    for X, Y in itertools.product(CATALOGUE, repeat=2):
        for f, g in itertools.product(seeded_maps(rng, X, Y, 3), repeat=2):
            yield (lambda f=f, g=g: equalizer_via_inserters(f, g).assign), equalizer(f, g).assign


def ord_hom_cases():
    for A, B in itertools.product(CATALOGUE, repeat=2):
        H, maps = hom_poset(A, B)
        OA, OB = OrdObject.from_poset(A), OrdObject.from_poset(B)
        yield (lambda OA=OA, OB=OB: ord_hom_poset(OA, OB)), (H, [f.assign for f in maps])


def map_leq_cases():
    for A, B in itertools.product(CATALOGUE, repeat=2):
        maps = all_monotone_maps(A, B)
        yield ((lambda maps=maps: [[f.leq(g) for g in maps] for f in maps]),
               pointwise_order(maps, B.leq).tolist())


def iso_cases():
    for P, Q in itertools.product(CATALOGUE, repeat=2):
        if P.n != Q.n:
            continue
        for perm in itertools.permutations(range(Q.n)):
            R = FinPoset(Q.leq[np.ix_(perm, perm)])
            yield (lambda P=P, R=R: find_order_iso(P, R) is not None), (
                canonical_certificate(P) == canonical_certificate(R))


ROWS = [
    (["relation.compose"], "compose_categorical", compose_cases),
    (["poset.closure"], "transitive_closure", closure_cases),
    (["poset.comma", "poset.is_comma_square"], "is_comma_square_by_cones", comma_cases),
    (["poset.power"], "power_via_inserters", power_cases),
    (["poset.equalizer"], "equalizer_via_inserters", equalizer_cases),
    (["poset.all_monotone_maps"], "ord_hom_poset", ord_hom_cases),
    (["poset.pointwise_order"], "ord_hom_poset", ord_hom_cases),
    (["poset.pointwise_order"], "MonotoneMap.leq", map_leq_cases),
    (["poset.canonical_certificate"], "find_order_iso", iso_cases),
]


def refuse(monkeypatch, fast):
    """Patch the function ``fast`` ("module.name") to fail wherever a module binds it;
    the number of bindings patched."""
    home, name = fast.split(".")
    real = getattr(importlib.import_module(f"posrel.{home}"), name)

    def refused(*args, **kwargs):
        pytest.fail(f"{fast} was called")

    bound = [(mod, attr) for mod in MODULES for attr, value in vars(mod).items() if value is real]
    for mod, attr in bound:
        monkeypatch.setattr(mod, attr, refused)
    return len(bound)


@pytest.mark.parametrize("fast, oracle, cases", ROWS,
                         ids=[f"{'+'.join(f)}->{o}" for f, o, _ in ROWS])
def test_the_oracle_answers_with_its_fast_path_refused(monkeypatch, fast, oracle, cases):
    table = list(cases())
    assert table
    for name in fast:
        assert refuse(monkeypatch, name) >= 1
    for call, want in table:
        assert call() == want


def test_a_refused_fast_path_fails_where_it_is_bound(monkeypatch):
    refuse(monkeypatch, "poset.pointwise_order")
    maps = [MonotoneMap.identity(FinPoset.chain(2))]
    for mod in (poset, equivalence):
        with pytest.raises(pytest.fail.Exception, match="^poset.pointwise_order was called$"):
            mod.pointwise_order(maps, maps[0].cod.leq)
    with pytest.raises(pytest.fail.Exception):
        hom_poset(FinPoset.chain(1), FinPoset.chain(1))
