"""Every result built through a trusted (unchecked) constructor equals the one
the validating constructor builds from the same data, and each object is
realized once."""

import itertools
import random

import numpy as np
import pytest

from posrel import equivalence
from posrel.poset import (
    AntisymmetryViolation,
    FinPoset,
    MonotoneMap,
    NotMonotone,
    all_monotone_maps,
    classify_map,
    coinserter,
    image_factorize,
    pair_mask,
    pair_order,
    pair_span,
    pointwise_order,
    poset_reflection,
    power,
    product,
    transitive_closure,
)
from posrel.relation import Relation, compose, hypergraph, hypograph
from posrel.exreg import (
    ExRegObject,
    canonical_presentation,
    gamma_morphism,
    gamma_object,
    split_congruence,
    tabulate,
    validate_morphism,
)
from posrel.equivalence import (
    all_morphisms,
    discrete_check,
    discrete_inclusion_functor,
    kernel_object,
    morphism_from_map,
    quotient_realize,
    realize_morphism,
    realize_morphisms,
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


def random_preorders(seed, count=100):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(0, 9)
        p = rng.random() * 0.4
        mat = np.array([rng.random() < p for _ in range(n * n)], dtype=bool)
        yield transitive_closure(mat.reshape(n, n))


def test_poset_reflection_of_random_preorders_is_an_order():
    for pre in random_preorders(63):
        check_reflection(pre)


def reflection_by_search(pre):
    """The classes and representatives of a preorder, found by searching the
    representatives seen so far for each element."""
    both = pre & pre.T
    reps = []
    class_of = [None] * pre.shape[0]
    for i in range(pre.shape[0]):
        for r_idx, r in enumerate(reps):
            if both[i, r]:
                class_of[i] = r_idx
                break
        else:
            class_of[i] = len(reps)
            reps.append(i)
    return class_of, reps


def check_reflection_numbering(pre):
    Q, class_of = poset_reflection(pre)
    want, reps = reflection_by_search(pre)
    assert class_of == want
    assert (Q.leq == pre[np.ix_(reps, reps)]).all()


def test_poset_reflection_numbers_classes_as_the_search_does_exhaustive():
    for n in range(5):
        for pre in preorders(n):
            check_reflection_numbering(pre)


def test_poset_reflection_numbers_classes_as_the_search_does_random():
    for pre in random_preorders(72):
        check_reflection_numbering(pre)


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


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_parsed_poset_matches_the_validating_constructor(n):
    from posrel.formats import ParseError, parse_poset

    # every mask, self-loops and cycles included, as the generating lines of a labelled poset
    labels = ["low"] + [str(i) for i in range(1, n)] if n else None
    for mat in bool_matrices(n, n):
        lines = "".join(f"{i} < {j}\n" for i, j in np.argwhere(mat).tolist())
        text = f"poset {n}\n" + lines + ("label 0 low\n" if n else "")
        try:
            P = parse_poset(text)
        except ParseError:
            with pytest.raises(AntisymmetryViolation):
                FinPoset(transitive_closure(mat))
            continue
        checked = FinPoset(transitive_closure(mat), labels=labels)
        assert P == checked and hash(P) == hash(checked) and P.labels == checked.labels


def test_from_covers_matches_the_validating_constructor():
    rng = random.Random(2705)
    for trial in range(300):
        n = rng.randrange(0, 9)
        rank = list(range(n))
        rng.shuffle(rank)
        # mostly pairs going up a random order: 44 of the 300 lists close a cycle
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(2 * n + 1))]
        pairs = [(i, j) if rank[i] <= rank[j] or rng.random() < 0.3 else (j, i) for i, j in pairs]
        labels = [f"e{i}" for i in range(n)] if trial % 2 else None
        try:
            checked = FinPoset(transitive_closure(pair_mask((n, n), pairs)), labels)
        except AntisymmetryViolation as exc:
            with pytest.raises(AntisymmetryViolation) as err:
                FinPoset.from_covers(n, pairs, labels)
            assert str(err.value) == str(exc)
            continue
        P = FinPoset.from_covers(n, pairs, labels)
        assert P == checked and hash(P) == hash(checked) and P.labels == checked.labels
        assert_valid_poset(P)


def test_from_pairs_matches_the_validating_constructor():
    rng, posets = random_posets(2706, count=80, n_max=7)
    for X in small_posets() + posets:
        count = rng.randrange(4) if X.n else 0
        pairs = [(rng.randrange(X.n), rng.randrange(X.n)) for _ in range(count)]
        obj = ExRegObject.from_pairs(X, pairs)
        checked = ExRegObject(X, transitive_closure(X.leq | pair_mask((X.n, X.n), pairs)))
        assert obj == checked and hash(obj) == hash(checked)


def test_gen_poset_matches_the_validating_constructor():
    from posrel.harness import ChoiceStream, gen_poset

    for seed in range(80):
        n = seed % 8
        drawn, redrawn = ChoiceStream(seed), ChoiceStream(seed)
        P = gen_poset(drawn, n)
        mat = np.zeros((n, n), dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                mat[i, j] = redrawn.random() < 0.35
        assert P == FinPoset(transitive_closure(mat))
        assert_valid_poset(P)
        assert drawn.draws == redrawn.draws


# -- the engine's own results: Γ, kernels, quotients, realizations ------------


def small_posets(n_max=2):
    return [P for n in range(n_max + 1) for P in labelled_posets(n)]


def random_posets(seed, count=40, n_max=5):
    rng = random.Random(seed)
    return rng, [random_poset(rng, rng.randrange(0, n_max + 1)) for _ in range(count)]


def kron_product(X, Y):
    """The product as an order matrix ``kron(X.leq, Y.leq)`` with its projections, validated."""
    m = Y.n
    P = FinPoset(np.kron(X.leq, Y.leq))
    return P, MonotoneMap(P, X, [k // m for k in range(P.n)]), MonotoneMap(P, Y, [k % m for k in range(P.n)])


def check_product(X, Y):
    got = product(X, Y)
    assert got == kron_product(X, Y)
    assert_valid_poset(got[0])
    assert_valid_map(got[1])
    assert_valid_map(got[2])


def test_product_matches_the_kron_build_exhaustive():
    posets = small_posets(3)
    for X in posets:
        for Y in posets:
            check_product(X, Y)


def test_product_matches_the_kron_build_random():
    _, posets = random_posets(73)
    for X, Y in zip(posets, posets[1:]):
        check_product(X, Y)


def check_maps_between(X, Y, Z):
    """identity, composites and image surjections of the maps X -> Y -> Z."""
    assert_valid_map(MonotoneMap.identity(X))
    second = all_monotone_maps(Y, Z)
    for f in all_monotone_maps(X, Y):
        assert_valid_map(image_factorize(f)[0])
        for g in second:
            assert_valid_map(f.then(g))


def test_identity_composite_and_image_maps_match_validating_constructor_exhaustive():
    posets = small_posets()
    for X, Y, Z in itertools.product(posets, repeat=3):
        check_maps_between(X, Y, Z)


def test_identity_composite_and_image_maps_match_validating_constructor_random():
    rng, posets = random_posets(74, n_max=4)
    for X, Y, Z in zip(posets, posets[1:], posets[2:]):
        check_maps_between(X, Y, Z)


def check_gamma(X, Y):
    A = gamma_object(X)
    checked = ExRegObject(X, X.leq)
    assert A == checked and hash(A) == hash(checked)
    for f in all_monotone_maps(X, Y):
        lower, upper = hypergraph(f), hypograph(f)
        assert gamma_morphism(f) == validate_morphism(A, gamma_object(Y), lower, upper)
        e = kernel_object(f)
        idx = np.array(f.assign, dtype=np.intp)
        checked = ExRegObject(X, Y.leq[np.ix_(idx, idx)])
        assert e == checked and hash(e) == hash(checked)


def test_gamma_and_kernel_objects_match_validating_constructors_exhaustive():
    posets = small_posets(3)
    for X in posets:
        for Y in posets:
            check_gamma(X, Y)


def test_gamma_and_kernel_objects_match_validating_constructors_random():
    _, posets = random_posets(75, n_max=4)
    for X, Y in zip(posets, posets[1:]):
        check_gamma(X, Y)


def check_quotients(obj, over):
    """The quotient of the canonical presentation, and q of splitting each congruence ``over``."""
    X, E = obj.X, obj.E
    assert canonical_presentation(obj).quotient == validate_morphism(gamma_object(X), obj, E, E)
    for R in over:
        q, _ = split_congruence(obj, R.E.pairs)
        assert q == validate_morphism(obj, ExRegObject(X, R.E.pairs), R.E, R.E)


def test_presentation_and_split_quotients_match_validate_morphism_exhaustive():
    objects = objects_up_to(2)
    for obj in objects:
        check_quotients(obj, [R for R in objects if R.X == obj.X and obj.E.leq(R.E)])


def test_presentation_and_split_quotients_match_validate_morphism_random():
    rng = random.Random(76)
    for _ in range(40):
        obj = random_object(rng, 5, n_min=0)
        n = obj.X.n
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(2)] if n else []
        check_quotients(obj, [ExRegObject.from_pairs(obj.X, obj.E.pair_list() + pairs)])


def check_realized(A, B):
    for r in realize_morphisms(all_morphisms(A, B)):
        assert_valid_map(r)


def test_realized_maps_match_validating_constructor_exhaustive():
    objects = objects_up_to(2)
    for A in objects:
        for B in objects:
            check_realized(A, B)


def test_realized_maps_match_validating_constructor_random():
    rng = random.Random(77)
    for _ in range(40):
        check_realized(random_object(rng, 4, n_min=0), random_object(rng, 4, n_min=0))


def test_maps_out_of_discrete_posets_match_validating_constructor(monkeypatch):
    covered = []

    def recording(e):
        covered.append(e)
        return classify_map(e)

    monkeypatch.setattr(equivalence, "classify_map", recording)
    discrete_check(4)
    _, posets = random_posets(78, n_max=7)
    cover = discrete_inclusion_functor().cover
    covered += [cover(Y)[1] for Y in small_posets(3) + posets]
    assert any(e.dom.n == 0 for e in covered)
    for e in covered:
        assert_valid_map(e)
        assert e.dom.is_discrete()


def test_gen_congruence_matches_the_validating_constructor():
    from posrel.harness import ChoiceStream, gen_congruence

    _, posets = random_posets(79, count=80, n_max=7)
    for seed, X in enumerate(small_posets() + posets):
        drawn, redrawn = ChoiceStream(seed), ChoiceStream(seed)
        obj = gen_congruence(drawn, X)
        pairs = [(redrawn.randrange(X.n), redrawn.randrange(X.n)) for _ in range(2)] if X.n else []
        checked = ExRegObject(X, transitive_closure(X.leq | pair_mask((X.n, X.n), pairs)))
        assert obj == checked and hash(obj) == hash(checked)
        assert drawn.draws == redrawn.draws
