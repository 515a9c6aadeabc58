import itertools
import random
import re

import numpy as np
import pytest

from posrel import equivalence, poset
from posrel.poset import (
    FinPoset,
    MonotoneMap,
    TooLarge,
    all_monotone_maps,
    are_isomorphic,
    canonical_certificate,
    hom_poset,
    image_factorize,
    inserter,
    product,
    transitive_closure,
)
from posrel.relation import DomainMismatch, compose, hypergraph, hypograph
from posrel.exreg import ExRegObject, gamma_morphism, gamma_object, hom_leq, hom_order
from posrel.equivalence import (
    ConcreteFunctor,
    OrdObject,
    all_functions,
    all_morphisms,
    all_posets_up_to,
    all_posets_up_to_iso,
    characterize,
    commutation_check,
    discrete_check,
    discrete_inclusion_functor,
    identity_functor,
    kernel_object,
    morphism_from_map,
    ord_hom_poset,
    ord_image_factorize,
    ord_inserter,
    ord_product,
    quotient_realize,
    realize_morphism,
    realize_morphisms,
)

from test_poset import random_monotone, random_poset, relabel
from test_exreg import objects_up_to, random_object, random_morphism

C2 = FinPoset.chain(2)
C3 = FinPoset.chain(3)
D2 = FinPoset.discrete(2)


def doubling_functor():
    """X maps to two discrete copies of X; neither full nor covering."""

    def objects(bound):
        return [FinPoset.discrete(k) for k in range(bound + 1)]

    def object_action(X):
        return FinPoset.discrete(2 * X.n)

    def morphism_action(f):
        return MonotoneMap(
            object_action(f.dom),
            object_action(f.cod),
            [f.assign[k // 2] * 2 + k % 2 for k in range(2 * f.dom.n)],
        )

    return ConcreteFunctor(
        name="doubling",
        objects=objects,
        object_action=object_action,
        morphism_action=morphism_action,
        source_homs=all_functions,
        cover=lambda Y: None,
    )


def test_realize_gamma_object_is_carrier():
    rng = random.Random(1)
    for _ in range(20):
        X = random_poset(rng, rng.randrange(0, 6))
        Q, p = quotient_realize(gamma_object(X))
        assert Q == X and p == MonotoneMap.identity(X)


def test_realize_collapses_inserted_pair():
    obj = ExRegObject.from_pairs(D2, [(0, 1)])
    Q, p = quotient_realize(obj)
    assert Q == C2


def test_realize_full_congruence_is_point():
    obj = ExRegObject(C3, np.ones((3, 3), dtype=bool))
    Q, _ = quotient_realize(obj)
    assert Q.n == 1


def test_realize_identity_morphism():
    from posrel.exreg import identity_morphism

    rng = random.Random(3)
    for _ in range(15):
        obj = random_object(rng, 5)
        r = realize_morphism(identity_morphism(obj))
        Q, _ = quotient_realize(obj)
        assert r == MonotoneMap.identity(Q)


def test_realize_gamma_morphism_is_original():
    rng = random.Random(5)
    for _ in range(20):
        X = random_poset(rng, rng.randrange(1, 5))
        Y = random_poset(rng, rng.randrange(1, 5))
        f = random_monotone(rng, X, Y)
        assert realize_morphism(gamma_morphism(f)).assign == tuple(f.assign)


def test_realization_bijection_roundtrips():
    rng = random.Random(7)
    for _ in range(30):
        A = random_object(rng, 4)
        B = random_object(rng, 4)
        R = random_morphism(rng, A, B)
        r = realize_morphism(R)
        assert morphism_from_map(A, B, r) == R
        # and the other direction, starting from a plain map
        PA, _ = quotient_realize(A)
        PB, _ = quotient_realize(B)
        s = random_monotone(rng, PA, PB)
        assert realize_morphism(morphism_from_map(A, B, s)) == s


def _realize_row_by_row(R):
    """r([x]) = [y] for the first y in row x of gr, one row at a time."""
    P, p = quotient_realize(R.src)
    Q, q = quotient_realize(R.tgt)
    gr = R.lower.pairs & R.upper.pairs.T
    assign = [None] * P.n
    for x in range(R.src.X.n):
        ys = np.flatnonzero(gr[x])
        assert len(ys)
        assign[p.assign[x]] = q.assign[int(ys[0])]
    return MonotoneMap(P, Q, assign)


def check_batched_realization(A, B):
    morphisms = all_morphisms(A, B)
    batched = realize_morphisms(morphisms)
    assert batched == [realize_morphism(R) for R in morphisms]
    assert batched == [_realize_row_by_row(R) for R in morphisms]
    QA, _ = quotient_realize(A)
    QB, _ = quotient_realize(B)
    # the realization is a bijection onto hom(QA, QB), in the same order
    assert batched == all_monotone_maps(QA, QB)
    return len(morphisms)


def test_batched_realization_equals_the_per_morphism_one_exhaustive():
    objects = objects_up_to(2)
    assert objects[0].X.n == 0
    sizes = [check_batched_realization(A, B) for A in objects for B in objects]
    # hom(A, 0) is empty for every nonempty A; hom(0, 0) holds one map of a 0 x 0 graph
    assert sizes.count(0) == len(objects) - 1
    assert sizes[0] == 1
    assert realize_morphisms([]) == []


def test_batched_realization_equals_the_per_morphism_one_random():
    from posrel.harness import gen_exreg_object

    rng = random.Random(2002)
    for _ in range(40):
        check_batched_realization(gen_exreg_object(rng, 4), gen_exreg_object(rng, 4))


def test_realized_lower_is_conjugated_relation():
    # the lower leg equals q^* r_* p_* for the realized map r
    rng = random.Random(9)
    for _ in range(25):
        A = random_object(rng, 4)
        B = random_object(rng, 4)
        R = random_morphism(rng, A, B)
        r = realize_morphism(R)
        _, p = quotient_realize(A)
        _, q = quotient_realize(B)
        conjugated = compose(hypograph(q), compose(hypergraph(r), hypergraph(p)))
        assert conjugated == R.lower


def test_poset_catalogue_counts():
    # OEIS A000112
    assert [len(all_posets_up_to_iso(n)) for n in range(8)] == [1, 1, 2, 5, 16, 63, 318, 2045]


def edge_set_catalogue(n):
    """The catalogue by brute force: close every strict upper-triangular edge
    set and keep the first of each isomorphism class found by iso search."""
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen = []
    for bits in range(1 << len(slots)):
        mat = np.eye(n, dtype=bool)
        for k, (i, j) in enumerate(slots):
            mat[i, j] = bits >> k & 1
        P = FinPoset(transitive_closure(mat))
        if not any(are_isomorphic(P, Q) for Q in seen):
            seen.append(P)
    return seen


@pytest.mark.parametrize("n", range(6))
def test_catalogue_matches_the_edge_set_enumeration(n):
    old = edge_set_catalogue(n)
    new = all_posets_up_to_iso(n)
    assert len(new) == len(old)
    for P in new:
        assert sum(are_isomorphic(P, Q) for Q in old) == 1


def test_certificate_is_invariant_under_every_relabelling():
    for P in all_posets_up_to(4):
        want = canonical_certificate(P)
        for perm in itertools.permutations(range(P.n)):
            assert canonical_certificate(relabel(P, perm)) == want


def test_catalogue_is_in_certificate_order():
    for n in range(7):
        certificates = [canonical_certificate(P) for P in all_posets_up_to_iso(n)]
        assert certificates == sorted(set(certificates))


def refined_colours_with_numpy(leq):
    """The colour refinement as it was written on numpy rows, kept to check the
    list version against."""
    n = leq.shape[0]
    lt = leq & ~np.eye(n, dtype=bool)
    below = [np.flatnonzero(lt[:, i]) for i in range(n)]
    above = [np.flatnonzero(lt[i]) for i in range(n)]
    colour = [0] * n
    while True:
        sig = [
            (
                colour[i],
                tuple(sorted(colour[j] for j in below[i])),
                tuple(sorted(colour[j] for j in above[i])),
            )
            for i in range(n)
        ]
        rank = {s: k for k, s in enumerate(sorted(set(sig)))}
        if len(rank) == len(set(colour)):
            return colour
        colour = [rank[s] for s in sig]


def certificate_with_numpy(P):
    """The certificate as it was written with np.repeat, np.tile and
    np.concatenate, kept to check the itertools version against."""
    colour = refined_colours_with_numpy(P.leq)
    labellings = np.zeros((1, 0), dtype=np.intp)
    for c in range(max(colour, default=-1) + 1):
        cell = [i for i in range(P.n) if colour[i] == c]
        perms = np.array(list(itertools.permutations(cell)), dtype=np.intp)
        labellings = np.concatenate(
            [np.repeat(labellings, len(perms), axis=0), np.tile(perms, (len(labellings), 1))],
            axis=1,
        )
    mats = P.leq[labellings[:, :, None], labellings[:, None, :]]
    packed = np.packbits(mats.reshape(len(labellings), -1), axis=1)
    least = np.lexsort(packed.T[::-1])[0] if P.n else 0
    return P.n, packed[least].tobytes()


def check_certificate_as_with_numpy(P):
    assert poset._row_colours(poset._bit_rows(P.leq), poset._bit_rows(P.leq.T)) == refined_colours_with_numpy(P.leq)
    assert canonical_certificate(P) == certificate_with_numpy(P)


def test_certificate_matches_the_numpy_version_on_every_class_up_to_6():
    classes = all_posets_up_to(6)
    assert classes[0].n == 0
    for P in classes:
        check_certificate_as_with_numpy(P)


def test_certificate_matches_the_numpy_version_on_relabelled_classes_at_7():
    rng = random.Random(2207)
    for P in rng.sample(all_posets_up_to_iso(7), 150):
        perm = list(range(7))
        rng.shuffle(perm)
        Q = relabel(P, perm)
        check_certificate_as_with_numpy(Q)
        assert canonical_certificate(Q) == canonical_certificate(P)


def test_identity_functor_checks_pass():
    faithful, covering, _ = characterize(identity_functor(), 3)
    assert faithful.passed
    assert covering.passed


def test_discrete_inclusion_checks_pass():
    faithful, covering, _ = characterize(discrete_inclusion_functor(), 4)
    assert faithful.passed
    assert covering.passed


def outside_cover_functor():
    """The discrete inclusion, but covering each Y by itself: a poset that
    is not discrete is no source object, so its cover must not count."""
    F = discrete_inclusion_functor()
    F.name = "outside-cover"
    F.cover = lambda Y: (Y, MonotoneMap.identity(Y))
    return F


def no_cover_functor():
    """The discrete inclusion without its covers: full, but covering nothing."""
    F = discrete_inclusion_functor()
    F.name = "no-cover"
    F.cover = lambda Y: None
    return F


def injections_only_functor():
    """Finite sets with injective functions only: covering, but not full."""
    F = discrete_inclusion_functor()
    F.name = "injections-only"
    F.source_homs = lambda A, B: [f for f in all_functions(A, B) if len(set(f.assign)) == A.n]
    return F


@pytest.mark.parametrize("make, bound, expected", [
    (identity_functor, 3, [True, True, True]),
    (discrete_inclusion_functor, 3, [True, True, True]),
    (outside_cover_functor, 3, [True, False, False]),
    (no_cover_functor, 3, [True, False, False]),
    (doubling_functor, 2, [False, False, False]),
    (injections_only_functor, 3, [False, True, True]),
])
def test_characterize_reports_each_clause(make, bound, expected):
    reports = characterize(make(), bound)
    assert [r.title.split(":")[0] for r in reports] == [
        "fully-order-faithful", "covering", "characterization"
    ]
    assert [r.passed for r in reports] == expected, "\n".join(r.render() for r in reports)


def test_injections_only_fails_on_exactly_the_non_injective_hom_sets():
    faithful = characterize(injections_only_functor(), 3)[0]
    failed = [label for label, ok, _ in faithful.lines if not ok]
    # hom(a, b) has a non-injective function exactly when a >= 2 and b >= 1
    assert failed == [f"hom({a},{b})" for a in range(2, 4) for b in range(1, 4)]


def test_a_cover_must_start_at_a_source_object():
    F = outside_cover_functor()
    not_discrete = sum(not Y.is_discrete() for Y in all_posets_up_to(3))
    assert not_discrete == 5
    for report in characterize(F, 3)[1:]:
        failed = [detail for _, ok, detail in report.lines if not ok]
        assert failed == ["cover starts outside the source"] * not_discrete, report.render()


def test_catalogue_refuses_past_its_limit_from_the_declared_size(monkeypatch):
    assert equivalence.MAX_CATALOGUE == 8
    all_posets_up_to(4)  # size 4 is cached before the limit drops below it
    monkeypatch.setattr(equivalence, "MAX_CATALOGUE", 3)
    for build in (all_posets_up_to_iso, all_posets_up_to):
        with pytest.raises(TooLarge, match="posets on 4 elements exceed the catalogue limit of 3"):
            build(4)
    assert len(all_posets_up_to(3)) == 9


def test_characterize_refuses_a_bound_past_the_catalogue_before_building_an_object(monkeypatch):
    monkeypatch.setattr(equivalence, "MAX_CATALOGUE", 3)
    F = discrete_inclusion_functor()
    F.objects = lambda bound: pytest.fail("source objects built")
    with pytest.raises(TooLarge, match="^posets on 4 elements exceed the catalogue limit of 3$"):
        characterize(F, 4)


def test_commutation_check_builds_only_the_sampled_catalogue(monkeypatch):
    sizes = []

    def recording(n):
        sizes.append(n)
        return all_posets_up_to(n)

    monkeypatch.setattr(equivalence, "all_posets_up_to", recording)
    report = commutation_check(5)
    assert report.passed, report.render()
    assert sizes and max(sizes) == 3


def test_all_functions_refuses_from_the_declared_sizes():
    # 5^6 = 15625 functions, refused before any is built
    with pytest.raises(TooLarge, match=r"5\^6 functions exceed the limit of 8192"):
        all_functions(FinPoset.discrete(6), FinPoset.discrete(5))
    assert len(all_functions(FinPoset.discrete(4), FinPoset.discrete(6))) == 6**4


def test_all_functions_budget_is_inclusive(monkeypatch):
    monkeypatch.setattr(equivalence, "MAX_MAPS", 8)
    assert len(all_functions(FinPoset.discrete(3), D2)) == 8
    with pytest.raises(TooLarge):
        all_functions(D2, FinPoset.discrete(3))


def test_doubling_functor_fails_fullness():
    report, _, _ = characterize(doubling_functor(), 2)
    assert not report.passed


def test_characterization_identity_functor():
    assert characterize(identity_functor(), 3)[2].passed


def test_characterization_discrete_inclusion():
    report = characterize(discrete_inclusion_functor(), 3)[2]
    assert report.passed, report.render()


def test_characterization_fails_without_a_cover():
    report = characterize(doubling_functor(), 2)[2]
    assert not report.passed
    realizes = [line for line in report.lines if line[0].startswith("realizes")]
    assert len(realizes) == len(all_posets_up_to(2))
    assert all(not ok and detail == "no cover supplied" for _, ok, detail in realizes)


def test_cover_kernel_is_the_canonical_witness():
    # identity: Y itself with its order; discrete inclusion: |Y| with Y's order
    for F, expected in [
        (identity_functor(), gamma_object),
        (discrete_inclusion_functor(), lambda Y: ExRegObject(FinPoset.discrete(Y.n), Y.leq)),
    ]:
        for Y in all_posets_up_to(4):
            _, e = F.cover(Y)
            assert kernel_object(e) == expected(Y)


def test_kernel_object_realizes_the_image():
    rng = random.Random(19)
    for _ in range(30):
        X = random_poset(rng, rng.randrange(0, 5))
        Y = random_poset(rng, rng.randrange(1, 5))
        f = random_monotone(rng, X, Y)
        Q, _ = quotient_realize(kernel_object(f))
        assert are_isomorphic(Q, image_factorize(f)[0].cod)


def test_hom_of_collapsed_object_is_three_chain():
    A = ExRegObject.from_pairs(D2, [(0, 1)])
    B = gamma_object(C2)
    morphisms = all_morphisms(A, B)
    assert len(morphisms) == 3
    H, _ = hom_poset(C2, C2)
    assert are_isomorphic(H, C3)


def test_ord_object_refuses_a_size_that_is_not_its_matrix():
    with pytest.raises(ValueError, match=r"order matrix must be 3 x 3, got \(2, 2\)"):
        OrdObject(3, np.eye(2, dtype=bool))
    with pytest.raises(ValueError, match=r"order matrix must be 2 x 2, got \(2, 3\)"):
        OrdObject(2, np.ones((2, 3), dtype=bool))
    assert OrdObject(2, np.eye(2, dtype=bool)).to_poset() == D2


def test_ord_product_matches_poset_product():
    rng = random.Random(11)
    for _ in range(20):
        A = random_poset(rng, rng.randrange(0, 4))
        B = random_poset(rng, rng.randrange(0, 4))
        OP = ord_product(OrdObject.from_poset(A), OrdObject.from_poset(B))
        P, _, _ = product(A, B)
        assert OP.to_poset() == P


def test_ord_inserter_matches_poset_inserter():
    rng = random.Random(13)
    for _ in range(30):
        A = random_poset(rng, rng.randrange(1, 4))
        B = random_poset(rng, rng.randrange(1, 4))
        f = random_monotone(rng, A, B)
        g = random_monotone(rng, A, B)
        sub, keep = ord_inserter(
            OrdObject.from_poset(A), OrdObject.from_poset(B), f.assign, g.assign
        )
        m = inserter(f, g)
        assert keep == list(m.assign)
        assert sub.to_poset() == m.dom


def test_ord_image_matches_poset_image():
    rng = random.Random(15)
    for _ in range(30):
        A = random_poset(rng, rng.randrange(1, 4))
        B = random_poset(rng, rng.randrange(1, 4))
        f = random_monotone(rng, A, B)
        M, e_assign, image = ord_image_factorize(
            OrdObject.from_poset(A), OrdObject.from_poset(B), f.assign
        )
        e, m = image_factorize(f)
        assert M.to_poset() == e.cod
        assert tuple(e_assign) == e.assign
        assert image == list(m.assign)


def ord_hom_poset_by_loops(A, B):
    """The Ord hom-poset as it was written with tuple-by-tuple loops, kept to
    check the array version against."""
    maps = []
    for assign in itertools.product(range(B.size), repeat=A.size):
        if all(
            B.leq[assign[i], assign[j]]
            for i in range(A.size)
            for j in range(A.size)
            if A.leq[i, j]
        ):
            maps.append(assign)
    k = len(maps)
    leq = np.zeros((k, k), dtype=bool)
    for a in range(k):
        for b in range(k):
            leq[a, b] = all(B.leq[maps[a][i], maps[b][i]] for i in range(A.size))
    return FinPoset(leq), maps


def test_ord_hom_poset_matches_poset_hom():
    # commutation_check compares the two under the bijection: the same
    # functions in the same order, and equal order matrices
    rng = random.Random(17)
    for _ in range(15):
        A = random_poset(rng, rng.randrange(0, 4))
        B = random_poset(rng, rng.randrange(0, 4))
        H_ord, maps = ord_hom_poset(OrdObject.from_poset(A), OrdObject.from_poset(B))
        H_pos, pos_maps = hom_poset(A, B)
        assert maps == [m.assign for m in pos_maps]
        assert H_ord == H_pos


def test_ord_hom_poset_out_of_the_empty_object_is_one_empty_map():
    for B in all_posets_up_to(2):
        H, maps = ord_hom_poset(OrdObject(0, np.zeros((0, 0), bool)), OrdObject.from_poset(B))
        assert maps == [()]
        assert H == FinPoset.discrete(1)


def test_ord_hom_poset_into_the_empty_object_is_empty():
    for A in all_posets_up_to(2)[1:]:
        H, maps = ord_hom_poset(OrdObject.from_poset(A), OrdObject(0, np.zeros((0, 0), bool)))
        assert maps == []
        assert H == FinPoset.discrete(0)


def test_ord_hom_poset_matches_the_loops_on_every_pair_up_to_3_by_4():
    for A in all_posets_up_to(3):
        for B in all_posets_up_to(4):
            OA, OB = OrdObject.from_poset(A), OrdObject.from_poset(B)
            H, maps = ord_hom_poset(OA, OB)
            H_loops, maps_loops = ord_hom_poset_by_loops(OA, OB)
            assert maps == maps_loops
            assert all(type(a) is int for m in maps for a in m)
            assert H == H_loops


def test_commutation_check_small_bound():
    report = commutation_check(3)
    assert report.passed, report.render()
    assert "finite sets" in report.title


def test_commutation_check_compares_hom_posets_under_the_bijection(monkeypatch):
    real = equivalence.ord_hom_poset

    def dual(A, B):
        H, maps = real(A, B)
        return FinPoset(H.leq.T), maps

    # the dual order on the same functions: hom(1, C2) = C2 is self-dual, so
    # an isomorphism test passes it, but it differs under the bijection
    one = FinPoset.chain(1)
    H_dual, _ = dual(OrdObject.from_poset(one), OrdObject.from_poset(C2))
    assert are_isomorphic(H_dual, hom_poset(one, C2)[0])
    monkeypatch.setattr(equivalence, "ord_hom_poset", dual)
    report = commutation_check(2)
    assert {label for label, ok, _ in report.lines if not ok} == {"ord-hom (1,2)", "ord-hom (2,2)"}


def _sample_objects():
    """The completion objects whose hom-posets `characterize` compares at bound 3."""
    F = discrete_inclusion_functor()
    return [kernel_object(F.cover(Y)[1]) for Y in all_posets_up_to(3)]


def _hom_leq_matrix(morphisms):
    k = len(morphisms)
    return np.array([[hom_leq(R, S) for S in morphisms] for R in morphisms], dtype=bool).reshape(k, k)


def test_hom_order_matches_hom_leq_on_the_sample_objects():
    samples = _sample_objects()
    assert len(samples) == 9
    empty = 0
    for A in samples:
        for B in samples:
            morphisms = all_morphisms(A, B)
            empty += not morphisms
            got = hom_order(morphisms)
            assert got.shape == (len(morphisms), len(morphisms))
            assert np.array_equal(got, _hom_leq_matrix(morphisms))
    assert empty == 8  # hom(A, 0) for each nonempty A


def test_hom_order_matches_hom_leq_on_random_objects():
    from posrel.harness import gen_exreg_object

    rng = random.Random(1717)
    for _ in range(40):
        A, B = gen_exreg_object(rng, 4), gen_exreg_object(rng, 4)
        morphisms = all_morphisms(A, B)
        assert np.array_equal(hom_order(morphisms), _hom_leq_matrix(morphisms))


def test_hom_order_refuses_non_parallel_morphisms_and_takes_an_empty_list():
    A, B = gamma_object(C2), gamma_object(D2)
    with pytest.raises(DomainMismatch):
        hom_order(all_morphisms(A, A) + all_morphisms(A, B))
    with pytest.raises(DomainMismatch):
        hom_order(all_morphisms(A, A) + all_morphisms(B, A))
    assert hom_order([]).shape == (0, 0)


def test_characterize_compares_the_completion_order_under_the_bijection(monkeypatch):
    assert characterize(discrete_inclusion_functor(), 3)[2].passed
    assert commutation_check(3).passed
    real = equivalence._hom_order_of_legs
    monkeypatch.setattr(equivalence, "_hom_order_of_legs", lambda L, U: real(L, U).T)
    realizes = characterize(discrete_inclusion_functor(), 3)[2]
    failed = {label for label, ok, _ in realizes.lines if not ok}
    assert failed and all(label.startswith("hom (") and label.endswith(")-carriers") for label in failed)
    failed = {label for label, ok, _ in commutation_check(3).lines if not ok}
    assert failed == {"set-completion vs posets"}


def test_characterize_compares_the_realized_maps_in_the_order_of_the_hom_set(monkeypatch):
    real = equivalence._realize_graphs
    # the same maps, listed backwards: still a bijection onto the hom-set, but not monotone
    monkeypatch.setattr(equivalence, "_realize_graphs", lambda src, tgt, gr: real(src, tgt, gr)[::-1])
    reports = characterize(discrete_inclusion_functor(), 3)
    assert reports[0].passed and reports[1].passed
    failed = {label for label, ok, _ in reports[2].lines if not ok}
    assert failed and all(label.startswith("hom (") and label.endswith(")-carriers") for label in failed)
    failed = {label for label, ok, _ in commutation_check(3).lines if not ok}
    assert failed == {"set-completion vs posets"}


@pytest.mark.parametrize("name, plant, error, message", [
    # the upper legs emptied: the laws fail before any order is read
    ("_check_morphism_laws", lambda real: lambda E, F, L, U: real(E, F, L, np.zeros_like(U)),
     "AdjunctionFailed", "R^* R_* ⊇ E fails"),
    # the upper legs of a stack listed backwards: the two sides of the hom order disagree
    ("_hom_order_of_legs", lambda real: lambda L, U: real(L, U[::-1]),
     "CrossCheckFailed", "hom-order: lower and upper legs disagree"),
    # the upper legs emptied: empty graphs
    ("_graphs_of_legs", lambda real: lambda L, U, F: real(L, np.zeros_like(U), F),
     "CrossCheckFailed", "graph_of: F gr = R_* fails"),
    # the upper legs grown by every cell outside the lower ones: the same graphs, larger legs
    ("_graphs_of_legs", lambda real: lambda L, U, F: real(L, U | ~L.transpose(0, 2, 1), F),
     "CrossCheckFailed", "graph_of: gr° F = R^* fails"),
    # both legs emptied: graphs that agree with their legs, and are not total
    ("_graphs_of_legs", lambda real: lambda L, U, F: real(np.zeros_like(L), np.zeros_like(U), F),
     "CrossCheckFailed", "realize_morphism: the graph of a morphism must be total"),
    # each graph read with its columns reversed: 0 < 1 goes to 1 > 0
    ("_graphs_of_legs", lambda real: lambda L, U, F: real(L, U, F)[:, :, ::-1],
     "CrossCheckFailed", "realize_morphism: the realized map must be monotone"),
])
def test_each_check_of_the_sampled_hom_sets_raises_on_a_planted_fault(
    name, plant, error, message, monkeypatch
):
    monkeypatch.setattr(equivalence, name, plant(getattr(equivalence, name)))
    with pytest.raises(Exception, match=f"^{re.escape(message)}$") as raised:
        characterize(discrete_inclusion_functor(), 3)
    assert type(raised.value).__name__ == error


def test_the_sampled_hom_sets_build_no_relation_or_morphism(monkeypatch):
    from posrel import exreg, relation

    built = {"Relation": 0, "ExRegMorphism": 0}
    for module, name in [(relation, "Relation"), (exreg, "ExRegMorphism")]:
        cls = getattr(module, name)
        init = cls.__init__

        def counting(self, *args, _name=name, _init=init):
            built[_name] += 1
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    assert all(report.passed for report in characterize(discrete_inclusion_functor(), 3))
    # one congruence per kernel object, and no leg, graph or morphism of a hom-set
    assert built == {"Relation": len(all_posets_up_to(3)), "ExRegMorphism": 0}


def test_discrete_check():
    report = discrete_check(4)
    assert report.passed


def test_reports_render_deterministically():
    a = discrete_check(3).render()
    b = discrete_check(3).render()
    assert a == b and "pass" in a
