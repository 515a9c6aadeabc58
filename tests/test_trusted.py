"""Every result built through a trusted (unchecked) constructor equals the one
the validating constructor builds from the same data, and each object is
realized once."""

import itertools
import random

import numpy as np
import pytest

from posrel import equivalence
from posrel.poset import (
    FinPoset,
    MonotoneMap,
    NotMonotone,
    all_monotone_maps,
    coinserter,
    pair_order,
    pair_span,
    pointwise_order,
    poset_reflection,
    power,
    transitive_closure,
)
from posrel.relation import Relation, compose, hypergraph, hypograph
from posrel.exreg import ExRegObject, tabulate, validate_morphism
from posrel.equivalence import (
    all_morphisms,
    morphism_from_map,
    quotient_realize,
    realize_morphism,
)

from test_poset import labelled_posets, random_monotone, random_poset
from test_exreg import bool_matrices, objects_up_to, random_object


def assert_valid_poset(P):
    checked = FinPoset(P.leq)
    assert checked == P and hash(checked) == hash(P)


def assert_valid_map(f):
    checked = MonotoneMap(f.dom, f.cod, f.assign)
    assert checked == f and hash(checked) == hash(f)
    assert all(type(a) is int for a in f.assign)


def check_pair_span(X, Y, pairs):
    mask = np.zeros((X.n, Y.n), dtype=bool)
    for x, y in pairs:
        mask[x, y] = True
    P, p0, p1 = pair_span(X, Y, mask)
    assert P == FinPoset(pair_order(X.leq, Y.leq, mask))
    assert_valid_poset(P)
    assert_valid_map(p0)
    assert_valid_map(p1)
    assert list(zip(p0.assign, p1.assign)) == pairs


def test_pair_span_matches_validating_constructors_exhaustive():
    posets = [P for n in range(3) for P in labelled_posets(n)]
    for X in posets:
        for Y in posets:
            cells = [(x, y) for x in range(X.n) for y in range(Y.n)]
            for keep in itertools.product([False, True], repeat=len(cells)):
                check_pair_span(X, Y, [c for c, k in zip(cells, keep) if k])


def test_pair_span_matches_validating_constructors_random():
    rng = random.Random(61)
    for _ in range(100):
        X, Y = (random_poset(rng, rng.randrange(0, 7)) for _ in range(2))
        cells = [(x, y) for x in range(X.n) for y in range(Y.n)]
        check_pair_span(X, Y, [c for c in cells if rng.random() < 0.5])


def test_catalogue_posets_match_validating_constructor():
    for P in equivalence.all_posets_up_to(6):
        assert_valid_poset(P)


def check_tabulation_apex(A, B, phi):
    tab = tabulate(phi, A, B)
    Z = tab.apex.X
    assert Z == FinPoset(pair_order(A.X.leq, B.X.leq, phi.pairs))
    assert_valid_poset(Z)
    checked = ExRegObject(Z, pair_order(A.E.pairs, B.E.pairs, phi.pairs))
    assert tab.apex == checked and hash(tab.apex) == hash(checked)


def check_tabulation_legs(A, B, phi):
    """Each leg is (E p_*, p^* E) for its coordinate projection p, validated."""
    tab = tabulate(phi, A, B)
    pairs = phi.pair_list()
    for leg, obj, coord in ((tab.leg0, A, 0), (tab.leg1, B, 1)):
        p = MonotoneMap(tab.apex.X, obj.X, [pair[coord] for pair in pairs])
        lower = compose(obj.E, hypergraph(p))
        upper = compose(hypograph(p), obj.E)
        assert leg == validate_morphism(tab.apex, obj, lower, upper)


def small_q_morphisms():
    """Every (A, B, Φ) with carriers of at most 2 elements, the empty one included."""
    objects = objects_up_to(2)
    for A in objects:
        for B in objects:
            for mat in bool_matrices(A.X.n, B.X.n):
                phi = Relation(A.X, B.X, mat)
                if compose(B.core(), compose(phi, A.core())) == phi:
                    yield A, B, phi


def seeded_q_morphisms(seed, count=60):
    rng = random.Random(seed)
    for _ in range(count):
        A, B = (random_object(rng, 5, n_min=0) for _ in range(2))
        mat = np.array([rng.random() < 0.4 for _ in range(A.X.n * B.X.n)], dtype=bool)
        raw = Relation(A.X, B.X, mat.reshape(A.X.n, B.X.n))
        yield A, B, compose(B.core(), compose(raw, A.core()))


def test_tabulation_apex_matches_validating_constructors_exhaustive():
    for A, B, phi in small_q_morphisms():
        check_tabulation_apex(A, B, phi)


def test_tabulation_apex_matches_validating_constructors_random():
    for A, B, phi in seeded_q_morphisms(62):
        check_tabulation_apex(A, B, phi)


def test_tabulation_legs_match_validate_morphism_exhaustive():
    for A, B, phi in small_q_morphisms():
        check_tabulation_legs(A, B, phi)


def test_tabulation_legs_match_validate_morphism_random():
    for A, B, phi in seeded_q_morphisms(71):
        check_tabulation_legs(A, B, phi)


def preorders(n):
    """Every reflexive, transitive n x n matrix."""
    seen = set()
    for mat in bool_matrices(n, n):
        pre = transitive_closure(mat)
        if pre.tobytes() not in seen:
            seen.add(pre.tobytes())
            yield pre


def check_reflection(pre):
    Q, class_of = poset_reflection(pre)
    assert_valid_poset(Q)
    assert all(type(c) is int for c in class_of)
    idx = np.array(class_of, dtype=np.intp).reshape(-1)
    assert (Q.leq[np.ix_(idx, idx)] == pre).all()


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_poset_reflection_of_every_small_preorder_is_an_order(n):
    for pre in preorders(n):
        check_reflection(pre)


def test_poset_reflection_of_random_preorders_is_an_order():
    rng = random.Random(63)
    for _ in range(100):
        n = rng.randrange(0, 9)
        p = rng.random() * 0.4
        mat = np.array([rng.random() < p for _ in range(n * n)], dtype=bool)
        check_reflection(transitive_closure(mat.reshape(n, n)))


def test_coinserter_map_matches_validating_constructor():
    rng = random.Random(64)
    for _ in range(100):
        W = random_poset(rng, rng.randrange(1, 3))
        X = random_poset(rng, rng.randrange(1, 6))
        q = coinserter(random_monotone(rng, W, X), random_monotone(rng, W, X))
        assert_valid_poset(q.cod)
        assert_valid_map(q)


def monotone_functions(X, Y):
    """The oracle: every function X -> Y that the validating constructor accepts."""
    out = []
    for assign in itertools.product(range(Y.n), repeat=X.n):
        try:
            out.append(MonotoneMap(X, Y, assign))
        except NotMonotone:
            pass
    return out


def test_all_monotone_maps_matches_filtered_functions_exhaustive():
    small = [P for n in range(3) for P in labelled_posets(n)]
    targets = small + labelled_posets(3)
    for X in small + labelled_posets(3):
        for Y in targets:
            maps = all_monotone_maps(X, Y)
            assert maps == monotone_functions(X, Y)
            for f in maps:
                assert_valid_map(f)


def test_all_monotone_maps_matches_filtered_functions_random():
    rng = random.Random(65)
    for _ in range(40):
        X = random_poset(rng, rng.randrange(0, 6))
        Y = random_poset(rng, rng.randrange(0, 5))
        assert all_monotone_maps(X, Y) == monotone_functions(X, Y)
    # past the exhaustive sizes: X of 4-5 elements into Y of 0-4; the twin
    # numbered backwards walks X out of index order, so the order comes from the sort
    for n in (4, 5):
        for m in range(5):
            for _ in range(3):
                X, Y = random_poset(rng, n), random_poset(rng, m)
                for A, B in ((X, Y), (FinPoset(X.leq[::-1, ::-1]), FinPoset(Y.leq[::-1, ::-1]))):
                    assert all_monotone_maps(A, B) == monotone_functions(A, B)


def check_power(X, P):
    H, maps = power(X, P)
    assert maps == all_monotone_maps(P, X)
    assert H == FinPoset(pointwise_order(maps, X.leq))
    assert_valid_poset(H)


def test_power_matches_validating_constructor_exhaustive():
    small = [P for n in range(3) for P in labelled_posets(n)]
    for X in small + labelled_posets(3):
        for P in small:
            check_power(X, P)


def test_power_matches_validating_constructor_random():
    rng = random.Random(70)
    for _ in range(40):
        check_power(random_poset(rng, rng.randrange(0, 5)), random_poset(rng, rng.randrange(0, 4)))


def check_quotient_map(obj):
    Q, q = quotient_realize(obj)
    assert_valid_poset(Q)
    assert_valid_map(q)
    assert q.dom is obj.X and q.cod is Q


def test_quotient_map_matches_validating_constructor_exhaustive():
    objects = objects_up_to(3)
    for obj in objects:
        check_quotient_map(obj)
    assert any(obj.X.n == 0 for obj in objects)


def test_quotient_map_matches_validating_constructor_random():
    rng = random.Random(66)
    for _ in range(100):
        check_quotient_map(random_object(rng, 7, n_min=0))


# -- one realization per object -----------------------------------------------


@pytest.fixture
def reflection_calls(monkeypatch):
    """Counts the poset_reflection calls made by quotient_realize."""
    calls = []

    def counting(pre):
        calls.append(pre.shape[0])
        return poset_reflection(pre)

    monkeypatch.setattr(equivalence, "poset_reflection", counting)
    return calls


def test_each_object_is_realized_once(reflection_calls):
    rng = random.Random(67)
    for _ in range(20):
        A, B = random_object(rng, 4), random_object(rng, 4)
        del reflection_calls[:]
        morphisms = all_morphisms(A, B)
        for R in morphisms:
            r = realize_morphism(R)
            assert morphism_from_map(A, B, r) == R
        assert len(reflection_calls) == 2
        assert quotient_realize(A) is quotient_realize(A)
        assert realize_morphism(morphisms[0]).dom is quotient_realize(A)[0]


def test_an_endomorphism_realizes_its_object_once(reflection_calls):
    A = random_object(random.Random(68), 4)
    all_morphisms(A, A)
    assert len(reflection_calls) == 1


def test_equal_objects_built_apart_realize_equal():
    rng = random.Random(69)
    for _ in range(50):
        A = random_object(rng, 6, n_min=0)
        B = ExRegObject(FinPoset(A.X.leq.copy()), A.E.pairs.copy())
        assert B == A and B is not A
        (QA, qA), (QB, qB) = quotient_realize(A), quotient_realize(B)
        assert QB == QA and qB == qA and QB is not QA


def test_parsed_congruence_matches_the_validating_constructor(tmp_path):
    from posrel.formats import parse_exreg, serialize_poset

    rng = random.Random(37)
    for k in range(40):
        X = random_poset(rng, rng.randrange(0, 7))
        (tmp_path / f"x{k}.poset").write_text(serialize_poset(X))
        count = rng.randrange(4) if X.n else 0
        pairs = [(rng.randrange(X.n), rng.randrange(X.n)) for _ in range(count)]
        text = f"object x{k}.poset\n" + "".join(f"cong {i} ~ {j}\n" for i, j in pairs)
        obj = parse_exreg(text, str(tmp_path / "o.exreg"))
        assert obj == ExRegObject.from_pairs(X, pairs)
        assert obj == ExRegObject(X, obj.E.pairs)
