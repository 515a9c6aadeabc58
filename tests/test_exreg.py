import random

import numpy as np
import pytest

from posrel.poset import FinPoset, MonotoneMap, all_monotone_maps, are_isomorphic, terminal
from posrel.relation import NotAMap, Relation, compose, delta, identity_I, meet, opposite
from posrel.exreg import (
    AdjunctionFailed,
    BimoduleLawFailed,
    ConeNotIncluded,
    ExRegObject,
    NotCongruence,
    NotCongruenceOver,
    NotQMorphism,
    QwMorphism,
    canonical_presentation,
    classify,
    compose_morphisms,
    derive_right_adjoint,
    factorize,
    gamma_morphism,
    gamma_object,
    graph_of,
    hom_leq,
    identity_morphism,
    jointly_order_mono_pair,
    limit,
    split_congruence,
    tabulate,
    tabulation_factor,
    validate_morphism,
)
from posrel.equivalence import all_morphisms, quotient_realize, realize_morphism

from test_poset import labelled_posets, random_monotone, random_poset

C2 = FinPoset.chain(2)
C3 = FinPoset.chain(3)
D2 = FinPoset.discrete(2)
E_AB = ExRegObject.from_pairs(D2, [(0, 1)]).E.pairs


def random_congruence(rng, X, extra=2):
    pairs = [
        (rng.randrange(X.n), rng.randrange(X.n)) for _ in range(extra)
    ] if X.n else []
    return ExRegObject.from_pairs(X, pairs)


def random_object(rng, n_max=5, n_min=1):
    return random_congruence(rng, random_poset(rng, rng.randrange(n_min, n_max + 1)))


def random_morphism(rng, src, tgt):
    morphisms = all_morphisms(src, tgt)
    return morphisms[rng.randrange(len(morphisms))]


# -- objects -----------------------------------------------------------------


def test_gamma_object_is_order_congruence():
    obj = gamma_object(C2)
    assert obj.E == identity_I(C2)


def test_codiscrete_congruence_valid():
    ExRegObject(D2, np.ones((2, 2), dtype=bool))


def test_diagonal_on_chain_is_not_congruence():
    with pytest.raises(NotCongruence):
        ExRegObject(C2, np.eye(2, dtype=bool))


@pytest.mark.parametrize("pair", [(-1, 0), (0, -1), (3, 0)])
def test_from_pairs_refuses_an_index_outside_the_carrier(pair):
    with pytest.raises(ValueError, match=r"outside a 3 x 3 matrix"):
        ExRegObject.from_pairs(C3, [(0, 1), pair])


def test_congruence_must_have_the_carrier_shape():
    with pytest.raises(NotCongruence, match=r"^expected \(2, 2\) matrix, got \(2, 3\)$"):
        ExRegObject(C2, np.ones((2, 3), dtype=bool))


def test_congruence_must_be_transitive():
    mat = np.eye(3, dtype=bool)
    mat[0, 1] = mat[1, 2] = True
    with pytest.raises(NotCongruence):
        ExRegObject(FinPoset.discrete(3), mat)


def test_congruences_are_weakening_closed():
    rng = random.Random(40)
    for _ in range(40):
        obj = random_object(rng)
        assert obj.E.is_weakening


# -- morphisms ---------------------------------------------------------------


def test_identity_morphism_is_valid():
    obj = ExRegObject(D2, E_AB)
    R = identity_morphism(obj)
    validate_morphism(obj, obj, R.lower, R.upper)


def test_gamma_morphism_valid_and_functorial():
    rng = random.Random(42)
    for _ in range(40):
        X = random_poset(rng, rng.randrange(1, 5))
        Y = random_poset(rng, rng.randrange(1, 5))
        Z = random_poset(rng, rng.randrange(1, 5))
        f = random_monotone(rng, X, Y)
        g = random_monotone(rng, Y, Z)
        assert compose_morphisms(gamma_morphism(g), gamma_morphism(f)) == gamma_morphism(
            f.then(g)
        )


def test_bimodule_law_rejects_bare_diagonal():
    obj = ExRegObject(D2, E_AB)
    with pytest.raises(BimoduleLawFailed):
        validate_morphism(obj, obj, Relation.from_pairs(D2, D2, [(0, 0), (1, 1)]), obj.E)


def bool_matrices(rows, cols):
    for bits in range(1 << (rows * cols)):
        yield np.array([bits >> k & 1 for k in range(rows * cols)], bool).reshape(rows, cols)


def objects_up_to(n_max):
    """Every (X, E) with a labelled carrier of at most n_max elements."""
    out = []
    for X in (P for n in range(n_max + 1) for P in labelled_posets(n)):
        for mat in bool_matrices(X.n, X.n):
            if (X.leq & ~mat).any():
                continue
            try:
                out.append(ExRegObject(X, mat))
            except NotCongruence:
                pass
    return out


def check_bimodule_law_implies_weakening(A, B, R):
    E, F = A.E, B.E
    if compose(F, compose(R, E)) == R:
        assert R.is_weakening
        QwMorphism(A, B, R)
    if not R.is_weakening:
        with pytest.raises(BimoduleLawFailed, match=r"F Φ E = Φ fails"):
            QwMorphism(A, B, R)
        with pytest.raises(BimoduleLawFailed, match=r"F R_\* E = R_\* fails"):
            validate_morphism(A, B, R, opposite(R))


def test_bimodule_law_implies_weakening_exhaustive():
    objects = objects_up_to(2)
    assert len(objects) == 10
    for A in objects:
        for B in objects:
            for mat in bool_matrices(A.X.n, B.X.n):
                check_bimodule_law_implies_weakening(A, B, Relation(A.X, B.X, mat))


def test_bimodule_law_implies_weakening_random():
    rng = random.Random(43)
    for _ in range(200):
        A, B = (random_object(rng, 4, n_min=3) for _ in range(2))
        mat = [[rng.random() < 0.4 for _ in range(B.X.n)] for _ in range(A.X.n)]
        raw = Relation(A.X, B.X, mat)
        check_bimodule_law_implies_weakening(A, B, raw)
        closed = compose(B.E, compose(raw, A.E))
        check_bimodule_law_implies_weakening(A, B, closed)


def test_non_weakening_upper_leg_fails_bimodule_law():
    A = gamma_object(C2)
    R = identity_morphism(A)
    with pytest.raises(BimoduleLawFailed, match=r"E R\^\* F = R\^\* fails"):
        validate_morphism(A, A, R.lower, delta(C2))


def test_adjunction_failure_detected():
    obj = gamma_object(C2)
    full = Relation.full(C2, C2)
    with pytest.raises(AdjunctionFailed):
        validate_morphism(obj, obj, full, full)


def test_compose_with_identity():
    rng = random.Random(44)
    for _ in range(25):
        A = random_object(rng, 4)
        B = random_object(rng, 4)
        R = random_morphism(rng, A, B)
        assert compose_morphisms(R, identity_morphism(A)) == R
        assert compose_morphisms(identity_morphism(B), R) == R


def test_hom_leq_matches_pointwise_order_under_gamma():
    rng = random.Random(46)
    for _ in range(40):
        X = random_poset(rng, rng.randrange(1, 4))
        Y = random_poset(rng, rng.randrange(1, 4))
        f = random_monotone(rng, X, Y)
        g = random_monotone(rng, X, Y)
        assert hom_leq(gamma_morphism(f), gamma_morphism(g)) == f.leq(g)


def test_derive_right_adjoint_identity():
    obj = ExRegObject(D2, E_AB)
    assert derive_right_adjoint(obj, obj, obj.E) == obj.E


def test_derive_right_adjoint_recovers_hypograph():
    rng = random.Random(48)
    for _ in range(40):
        X = random_poset(rng, rng.randrange(1, 5))
        Y = random_poset(rng, rng.randrange(1, 5))
        f = random_monotone(rng, X, Y)
        G = gamma_morphism(f)
        assert derive_right_adjoint(G.src, G.tgt, G.lower) == G.upper


def test_derive_right_adjoint_rejects_empty():
    obj = gamma_object(C2)
    with pytest.raises(NotAMap):
        derive_right_adjoint(obj, obj, Relation.empty(C2, C2))


def test_derive_right_adjoint_matches_exhaustive_search():
    # uniqueness: the derived adjoint is the only candidate over small carriers
    rng = random.Random(50)
    for _ in range(10):
        A = random_object(rng, 3)
        B = random_object(rng, 3)
        R = random_morphism(rng, A, B)
        found = []
        n, m = B.X.n, A.X.n
        for bits in range(1 << (n * m)):
            mat = np.array(
                [[bits >> (i * m + j) & 1 for j in range(m)] for i in range(n)],
                dtype=bool,
            )
            cand = Relation(B.X, A.X, mat)
            if not cand.is_weakening:
                continue
            try:
                validate_morphism(A, B, R.lower, cand)
            except (BimoduleLawFailed, AdjunctionFailed):
                continue
            found.append(cand)
        assert found == [R.upper]


# -- graphs ------------------------------------------------------------------


def test_graph_of_identity_is_core():
    obj = ExRegObject(D2, E_AB)
    assert graph_of(identity_morphism(obj)) == obj.core()


def test_graph_of_gamma_is_graph():
    from posrel.relation import graph

    rng = random.Random(52)
    for _ in range(30):
        X = random_poset(rng, rng.randrange(1, 5))
        Y = random_poset(rng, rng.randrange(1, 5))
        f = random_monotone(rng, X, Y)
        assert graph_of(gamma_morphism(f)) == graph(f)


def test_graph_is_functorial():
    rng = random.Random(54)
    for _ in range(25):
        A = random_object(rng, 4)
        B = random_object(rng, 4)
        C = random_object(rng, 4)
        R = random_morphism(rng, A, B)
        S = random_morphism(rng, B, C)
        lhs = graph_of(compose_morphisms(S, R))
        rhs = compose(
            compose(C.core(), compose(graph_of(S), graph_of(R))), A.core()
        )
        assert lhs == rhs


# -- tabulations -------------------------------------------------------------


def test_tabulate_identity_relation():
    obj = ExRegObject(D2, E_AB)
    tab = tabulate(obj.core(), obj, obj)
    assert classify(tab.leg0).is_iso or classify(tab.leg0).is_ff
    H = tabulation_factor(tab, identity_morphism(obj), identity_morphism(obj))
    assert compose_morphisms(tab.leg0, H) == identity_morphism(obj)


def test_tabulate_maximal_relation_is_product():
    A = gamma_object(C2)
    B = ExRegObject(D2, E_AB)
    tab = limit("product", A, B)
    # apex carrier is the full pair set with the product order
    assert tab.apex.X.n == A.X.n * B.X.n
    QA, _ = quotient_realize(A)
    QB, _ = quotient_realize(B)
    Qapex, _ = quotient_realize(tab.apex)
    from posrel.poset import product

    P, _, _ = product(QA, QB)
    assert are_isomorphic(Qapex, P)


def test_product_tabulates_the_full_relation_closed_under_the_cores():
    # the product's relation needs no closure: the cores are reflexive
    rng = random.Random(57)
    for _ in range(20):
        A = random_object(rng, 4, n_min=0)
        B = random_object(rng, 4, n_min=0)
        full = Relation.full(A.X, B.X)
        assert compose(B.core(), compose(full, A.core())) == full
        assert limit("product", A, B) == tabulate(full, A, B)


def test_tabulate_rejects_unsaturated_relation():
    obj = ExRegObject(D2, np.ones((2, 2), dtype=bool))
    with pytest.raises(NotQMorphism):
        tabulate(Relation.from_pairs(D2, D2, [(0, 0)]), obj, obj)


def test_tabulation_factor_cone_violation():
    A = gamma_object(C2)
    tab = tabulate(A.core(), A, A)
    f = MonotoneMap.constant(C2, C2, 1)
    g = MonotoneMap.constant(C2, C2, 0)
    with pytest.raises(ConeNotIncluded):
        tabulation_factor(tab, gamma_morphism(f), gamma_morphism(g))


def test_tabulation_random_cones_factor_uniquely():
    rng = random.Random(56)
    for _ in range(20):
        A = random_object(rng, 3)
        B = random_object(rng, 3)
        tab = limit("product", A, B)
        W = random_object(rng, 3)
        S0 = random_morphism(rng, W, A)
        S1 = random_morphism(rng, W, B)
        H = tabulation_factor(tab, S0, S1)
        # uniqueness via the jointly-order-mono criterion of the legs
        assert jointly_order_mono_pair(tab.leg0, tab.leg1)
        others = [
            K
            for K in all_morphisms(W, tab.apex)
            if compose_morphisms(tab.leg0, K) == S0
            and compose_morphisms(tab.leg1, K) == S1
        ]
        assert others == [H]


def test_jointly_order_mono_criterion_both_directions():
    rng = random.Random(58)
    for _ in range(15):
        A = random_object(rng, 3)
        B = random_object(rng, 3)
        C = random_object(rng, 3)
        R = random_morphism(rng, A, B)
        S = random_morphism(rng, A, C)
        criterion = jointly_order_mono_pair(R, S)
        # forward check by enumerating parallel pairs from small sources
        witness = True
        for W in [gamma_object(terminal()), gamma_object(C2), gamma_object(D2)]:
            for u in all_morphisms(W, A):
                for v in all_morphisms(W, A):
                    if (
                        hom_leq(compose_morphisms(R, u), compose_morphisms(R, v))
                        and hom_leq(compose_morphisms(S, u), compose_morphisms(S, v))
                        and not hom_leq(u, v)
                    ):
                        witness = False
        assert criterion == witness


# -- classification and factorization ----------------------------------------


def test_classify_identity_is_iso():
    obj = ExRegObject(D2, E_AB)
    assert classify(identity_morphism(obj)).is_iso


def test_classify_gamma_of_surjection():
    f = MonotoneMap(D2, C2, [0, 1])
    cls = classify(gamma_morphism(f))
    assert cls.is_so and not cls.is_ff


def test_quotient_presentation_is_so():
    obj = ExRegObject(D2, E_AB)
    q = canonical_presentation(obj).quotient
    cls = classify(q)
    assert cls.is_so and not cls.is_ff
    triv = canonical_presentation(gamma_object(C2)).quotient
    assert classify(triv).is_iso


def test_factorize_iso():
    obj = ExRegObject(D2, E_AB)
    Q, M = factorize(identity_morphism(obj))
    assert classify(Q).is_iso and classify(M).is_iso


def test_factorize_matches_poset_image_factorization():
    from posrel.poset import image_factorize

    rng = random.Random(60)
    for _ in range(30):
        X = random_poset(rng, rng.randrange(1, 5))
        Y = random_poset(rng, rng.randrange(1, 5))
        f = random_monotone(rng, X, Y)
        Q, M = factorize(gamma_morphism(f))
        e, m = image_factorize(f)
        mid, _ = quotient_realize(Q.tgt)
        assert are_isomorphic(mid, m.dom)
        assert realize_morphism(compose_morphisms(M, Q)).assign == tuple(f.assign)


def test_factorize_random_morphisms():
    rng = random.Random(62)
    for _ in range(25):
        A = random_object(rng, 4)
        B = random_object(rng, 4)
        R = random_morphism(rng, A, B)
        Q, M = factorize(R)
        assert classify(Q).is_so
        assert classify(M).is_ff
        assert compose_morphisms(M, Q) == R


# -- limits ------------------------------------------------------------------


def test_terminal_is_gamma_point():
    T = limit("terminal")
    assert T == gamma_object(terminal())
    rng = random.Random(64)
    for _ in range(10):
        A = random_object(rng, 3)
        assert len(all_morphisms(A, T)) == 1


def test_inserter_of_equal_pair_is_whole_object():
    obj = ExRegObject(D2, E_AB)
    R = identity_morphism(obj)
    tab = limit("inserter", R, R)
    Q0, _ = quotient_realize(tab.apex)
    Q1, _ = quotient_realize(obj)
    assert are_isomorphic(Q0, Q1)
    assert classify(tab.leg0).is_iso


def test_pullback_of_gamma_maps_matches_poset_pullback():
    from posrel.poset import pullback as pos_pullback

    rng = random.Random(66)
    for _ in range(25):
        X = random_poset(rng, rng.randrange(1, 4))
        Y = random_poset(rng, rng.randrange(1, 4))
        Z = random_poset(rng, rng.randrange(1, 4))
        f = random_monotone(rng, X, Z)
        g = random_monotone(rng, Y, Z)
        tab = limit("pullback", gamma_morphism(f), gamma_morphism(g))
        P, _, _ = pos_pullback(f, g)
        Q, _ = quotient_realize(tab.apex)
        assert are_isomorphic(Q, P)


def test_comma_of_gamma_maps_matches_poset_comma():
    from posrel.poset import comma as pos_comma

    rng = random.Random(68)
    for _ in range(25):
        X = random_poset(rng, rng.randrange(1, 4))
        Y = random_poset(rng, rng.randrange(1, 4))
        Z = random_poset(rng, rng.randrange(1, 4))
        f = random_monotone(rng, X, Z)
        g = random_monotone(rng, Y, Z)
        tab = limit("comma", gamma_morphism(f), gamma_morphism(g))
        C, _, _ = pos_comma(f, g)
        Q, _ = quotient_realize(tab.apex)
        assert are_isomorphic(Q, C)


def test_inserter_legs_satisfy_inequality():
    rng = random.Random(70)
    for _ in range(20):
        A = random_object(rng, 3)
        B = random_object(rng, 3)
        R = random_morphism(rng, A, B)
        S = random_morphism(rng, A, B)
        tab = limit("inserter", R, S)
        i = tab.leg0
        assert hom_leq(compose_morphisms(R, i), compose_morphisms(S, i))


# -- exactness ---------------------------------------------------------------


def test_split_identity_congruence():
    obj = ExRegObject(D2, E_AB)
    q, m = split_congruence(obj, obj.E.pairs)
    assert classify(q).is_iso


def test_split_discrete_example_realizes_to_chain():
    obj = gamma_object(D2)
    q, m = split_congruence(obj, E_AB)
    Q, _ = quotient_realize(q.tgt)
    assert are_isomorphic(Q, C2)


def test_split_full_congruence():
    obj = gamma_object(C3)
    q, m = split_congruence(obj, np.ones((3, 3), dtype=bool))
    Q, _ = quotient_realize(q.tgt)
    assert Q.n == 1


def test_split_rejects_smaller_relation():
    obj = ExRegObject(D2, E_AB)
    with pytest.raises(NotCongruenceOver):
        split_congruence(obj, np.eye(2, dtype=bool))


def test_split_random_congruences():
    rng = random.Random(72)
    for _ in range(30):
        obj = random_object(rng, 4)
        R = ExRegObject.from_pairs(
            obj.X,
            obj.E.pair_list()
            + [(rng.randrange(obj.X.n), rng.randrange(obj.X.n)) for _ in range(2)],
        ).E
        q, m = split_congruence(obj, R.pairs)
        assert classify(q).is_so
        assert compose(q.upper, q.lower) == R
        assert compose(m.rel, q.lower) == R


def test_canonical_presentation_shapes():
    obj = ExRegObject(D2, E_AB)
    pres = canonical_presentation(obj)
    assert pres.kernel.X.n == 3  # (a,a), (a,b), (b,b)
    Q, _ = quotient_realize(obj)
    assert are_isomorphic(Q, C2)
    full = ExRegObject(D2, np.ones((2, 2), dtype=bool))
    assert canonical_presentation(full).kernel.X.n == 4


def test_canonical_presentation_is_comma_square():
    rng = random.Random(74)
    for _ in range(15):
        obj = random_object(rng, 4)
        pres = canonical_presentation(obj)
        tab = limit("comma", pres.quotient, pres.quotient)
        QK, _ = quotient_realize(pres.kernel)
        QT, _ = quotient_realize(tab.apex)
        assert are_isomorphic(QK, QT)


def test_presentation_exact_fork():
    from posrel.relation import exact_fork_identities, hypergraph, hypograph

    rng = random.Random(76)
    for _ in range(20):
        obj = random_object(rng, 4)
        Q, p = quotient_realize(obj)
        report = exact_fork_identities(p, obj.E)
        assert all(report.values()), report


# -- the induced exact functor ------------------------------------------------
#
# The lift of a regular functor into finite posets sends (X, E) to its
# realization and a morphism to the induced map between realizations.


def test_lift_functor_reflects_congruence():
    obj = ExRegObject(D2, E_AB)
    assert are_isomorphic(quotient_realize(obj)[0], C2)


def test_lift_functor_on_identity_congruence():
    rng = random.Random(78)
    for _ in range(20):
        X = random_poset(rng, rng.randrange(1, 5))
        assert are_isomorphic(quotient_realize(gamma_object(X))[0], X)


def test_lift_functor_commutes_with_gamma_on_maps():
    rng = random.Random(80)
    for _ in range(20):
        X = random_poset(rng, rng.randrange(1, 5))
        Y = random_poset(rng, rng.randrange(1, 5))
        f = random_monotone(rng, X, Y)
        lifted = realize_morphism(gamma_morphism(f))
        assert lifted.assign == tuple(f.assign)


def test_lift_functor_is_functorial_and_regular():
    rng = random.Random(82)
    for _ in range(20):
        A = random_object(rng, 4)
        B = random_object(rng, 4)
        C = random_object(rng, 4)
        R = random_morphism(rng, A, B)
        S = random_morphism(rng, B, C)
        lhs = realize_morphism(compose_morphisms(S, R))
        rhs = realize_morphism(R).then(realize_morphism(S))
        assert lhs == rhs
        if classify(R).is_so:
            from posrel.poset import classify_map

            assert classify_map(realize_morphism(R)).is_so


PLANTED_CROSSCHECKS = """
import sys
from posrel.poset import FinPoset
from posrel.relation import Relation
from posrel.exreg import CrossCheckFailed, ExRegMorphism, gamma_object, hom_leq
from posrel.equivalence import realize_morphism

print("optimize", sys.flags.optimize)
A = gamma_object(FinPoset.discrete(1))
full, empty = Relation.full(A.X, A.X), Relation.empty(A.X, A.X)
planted = [
    lambda: hom_leq(ExRegMorphism(A, A, full, full), ExRegMorphism(A, A, full, empty)),
    lambda: realize_morphism(ExRegMorphism(A, A, empty, empty)),
]
for plant in planted:
    try:
        plant()
        print("not raised")
    except CrossCheckFailed as exc:
        print("raised:", exc)
"""


def test_crosschecks_survive_python_O():
    import os
    import subprocess
    import sys

    import posrel

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(posrel.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", PLANTED_CROSSCHECKS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "optimize 1",
        "raised: hom-order: lower and upper legs disagree",
        "raised: realize_morphism: the graph of a morphism must be total",
    ]
