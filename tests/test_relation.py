import random

import numpy as np
import pytest

from posrel.poset import FinPoset, MonotoneMap, all_monotone_maps, coinserter, terminal
from posrel.relation import (
    DomainMismatch,
    NotAMap,
    NotExactFork,
    NotWeakening,
    Relation,
    ShapeMismatch,
    check_map_distributivity,
    check_modular_law,
    compose,
    compose_categorical,
    delta,
    exact_fork_identities,
    extract_map,
    graph,
    has_right_adjoint,
    hypergraph,
    hypograph,
    identity_I,
    is_adjoint_pair,
    kernel_identity_check,
    meet,
    opposite,
    residual,
)

from test_poset import random_monotone, random_poset

C2 = FinPoset.chain(2)
C3 = FinPoset.chain(3)
D2 = FinPoset.discrete(2)


def random_relation(rng, X, Y, p=0.4, weakening=False):
    mat = np.zeros((X.n, Y.n), dtype=bool)
    for x in range(X.n):
        for y in range(Y.n):
            if rng.random() < p:
                mat[x, y] = True
    r = Relation(X, Y, mat)
    return r.weakening_closure() if weakening else r


def naive_compose(S, R):
    """Set-theoretic composition oracle, elementwise."""
    mat = np.zeros((R.dom.n, S.cod.n), dtype=bool)
    for x in range(R.dom.n):
        for z in range(S.cod.n):
            mat[x, z] = any(
                R.pairs[x, y] and S.pairs[y, z] for y in range(R.cod.n)
            )
    return Relation(R.dom, S.cod, mat)


@pytest.mark.parametrize("pair", [(-1, 0), (0, -1), (2, 0)])
def test_from_pairs_refuses_an_index_outside_the_carriers(pair):
    with pytest.raises(ValueError, match=r"outside a 2 x 3 matrix"):
        Relation.from_pairs(C2, C3, [(0, 0), pair])


def test_graph_matches_the_pair_loop():
    rng = random.Random(29)
    for _ in range(60):
        X = random_poset(rng, rng.randrange(0, 6))
        Y = random_poset(rng, rng.randrange(1, 6))
        f = random_monotone(rng, X, Y)
        mat = np.zeros((X.n, Y.n), dtype=bool)
        for x, y in enumerate(f.assign):
            mat[x, y] = True
        assert np.array_equal(graph(f).pairs, mat)


def test_identity_I_composes_idempotently():
    I = identity_I(C3)
    assert compose(I, I) == I


def test_compose_on_discrete_carrier():
    R = Relation.from_pairs(D2, D2, [(0, 1)])
    S = Relation.from_pairs(D2, D2, [(1, 0)])
    assert compose(S, R) == Relation.from_pairs(D2, D2, [(0, 0)])


def test_compose_matches_naive_oracle():
    rng = random.Random(2)
    for _ in range(80):
        X = random_poset(rng, rng.randrange(1, 5))
        Y = random_poset(rng, rng.randrange(1, 5))
        Z = random_poset(rng, rng.randrange(1, 5))
        R = random_relation(rng, X, Y)
        S = random_relation(rng, Y, Z)
        assert compose(S, R) == naive_compose(S, R)


def test_compose_matches_categorical_construction():
    rng = random.Random(4)
    for _ in range(25):
        X = random_poset(rng, rng.randrange(1, 4))
        Y = random_poset(rng, rng.randrange(1, 4))
        Z = random_poset(rng, rng.randrange(1, 4))
        R = random_relation(rng, X, Y)
        S = random_relation(rng, Y, Z)
        assert compose(S, R) == compose_categorical(S, R)


def test_compose_rejects_mismatch():
    with pytest.raises(DomainMismatch):
        compose(Relation.empty(C2, C2), Relation.empty(C2, C3))


def test_compose_full_relations_through_256_elements():
    # 1 ⇸ 256 ⇸ 1: each composite pair has 256 witnesses
    one, mid = FinPoset.discrete(1), FinPoset.discrete(256)
    R, S = Relation.full(one, mid), Relation.full(mid, one)
    assert compose(S, R) == Relation.full(one, one)


def test_compose_preserves_weakening():
    rng = random.Random(6)
    for _ in range(40):
        X = random_poset(rng, rng.randrange(1, 5))
        Y = random_poset(rng, rng.randrange(1, 5))
        Z = random_poset(rng, rng.randrange(1, 5))
        R = random_relation(rng, X, Y, weakening=True)
        S = random_relation(rng, Y, Z, weakening=True)
        assert compose(S, R).is_weakening
        if X == Y:
            assert meet(R, random_relation(rng, X, Y, weakening=True)).is_weakening


def test_opposite_is_involution_and_antihomomorphism():
    rng = random.Random(8)
    for _ in range(40):
        X = random_poset(rng, rng.randrange(1, 5))
        Y = random_poset(rng, rng.randrange(1, 5))
        Z = random_poset(rng, rng.randrange(1, 5))
        R = random_relation(rng, X, Y)
        S = random_relation(rng, Y, Z)
        assert opposite(opposite(R)) == R
        assert opposite(compose(S, R)) == compose(opposite(R), opposite(S))


def test_meet_with_full_is_identity():
    R = Relation.from_pairs(C2, C2, [(0, 1)])
    assert meet(R, Relation.full(C2, C2)) == R


def test_identity_on_discrete_is_delta():
    assert identity_I(D2) == delta(D2)


def test_weakening_flag_is_computed():
    assert not Relation.from_pairs(C2, C2, [(1, 0)]).is_weakening
    assert Relation.from_pairs(C2, C2, [(1, 0)]).weakening_closure().is_weakening
    assert identity_I(C3).is_weakening
    assert not delta(C2).is_weakening


def test_relation_stores_no_weakening_flag(monkeypatch):
    import posrel.relation as relation_module

    def no_kernel(a, b):
        raise AssertionError("kernel called")

    monkeypatch.setattr(relation_module, "bool_mat", no_kernel)
    R = Relation.from_pairs(C2, C2, [(1, 0)])
    assert Relation.__slots__ == ("dom", "cod", "pairs")
    with pytest.raises(AttributeError):
        R.is_weakening = True
    with pytest.raises(AssertionError, match="kernel called"):
        R.is_weakening


def test_hypergraph_of_identity_is_order():
    assert hypergraph(MonotoneMap.identity(C3)) == identity_I(C3)


def test_hypergraph_formula_example():
    f = MonotoneMap(D2, C2, [0, 1])
    assert set(hypergraph(f).pair_list()) == {(0, 0), (0, 1), (1, 1)}
    assert set(hypograph(f).pair_list()) == {(0, 0), (0, 1), (1, 1)}
    assert hypergraph(f).is_weakening and hypograph(f).is_weakening


def test_hypergraph_is_functorial():
    rng = random.Random(10)
    for _ in range(40):
        X = random_poset(rng, rng.randrange(1, 4))
        Y = random_poset(rng, rng.randrange(1, 4))
        Z = random_poset(rng, rng.randrange(1, 4))
        f = random_monotone(rng, X, Y)
        g = random_monotone(rng, Y, Z)
        gf = f.then(g)
        assert hypergraph(gf) == compose(hypergraph(g), hypergraph(f))
        assert hypograph(gf) == compose(hypograph(f), hypograph(g))


def test_unitality():
    rng = random.Random(12)
    for _ in range(40):
        X = random_poset(rng, rng.randrange(1, 5))
        Y = random_poset(rng, rng.randrange(1, 5))
        R = random_relation(rng, X, Y)
        assert compose(R, delta(X)) == R
        assert compose(delta(Y), R) == R
        W = random_relation(rng, X, Y, weakening=True)
        assert compose(W, identity_I(X)) == W
        assert compose(identity_I(Y), W) == W


def test_associativity():
    rng = random.Random(14)
    for _ in range(40):
        A, B, C, D = (random_poset(rng, rng.randrange(1, 5)) for _ in range(4))
        R = random_relation(rng, A, B)
        S = random_relation(rng, B, C)
        T = random_relation(rng, C, D)
        assert compose(T, compose(S, R)) == compose(compose(T, S), R)


def test_modular_law_trivial_instance():
    d = delta(C2)
    assert check_modular_law(d, d, d) == {}


def test_modular_law_random():
    rng = random.Random(16)
    for _ in range(200):
        X = random_poset(rng, rng.randrange(1, 6))
        Y = random_poset(rng, rng.randrange(1, 6))
        Z = random_poset(rng, rng.randrange(1, 6))
        P = random_relation(rng, X, Y)
        Q = random_relation(rng, Y, Z)
        S = random_relation(rng, X, Z)
        assert check_modular_law(P, Q, S) == {}


def test_modular_law_shape_check():
    with pytest.raises(ShapeMismatch):
        check_modular_law(delta(C2), delta(C3), delta(C2))


def test_map_distributivity_random():
    rng = random.Random(18)
    for _ in range(100):
        W = random_poset(rng, rng.randrange(1, 4))
        X = random_poset(rng, rng.randrange(1, 4))
        Y = random_poset(rng, rng.randrange(1, 4))
        Z = random_poset(rng, rng.randrange(1, 4))
        f = random_monotone(rng, W, X)
        g = random_monotone(rng, Z, Y)
        R = random_relation(rng, X, Y, weakening=True)
        S = random_relation(rng, X, Y, weakening=True)
        assert check_map_distributivity(f, g, R, S)


def test_adjoint_pair_for_hypergraphs():
    rng = random.Random(20)
    for _ in range(60):
        X = random_poset(rng, rng.randrange(1, 5))
        Y = random_poset(rng, rng.randrange(1, 5))
        f = random_monotone(rng, X, Y)
        assert is_adjoint_pair(hypergraph(f), hypograph(f))


def test_identity_adjunction():
    assert is_adjoint_pair(identity_I(C3), identity_I(C3))


def test_full_pair_is_not_adjoint():
    full = Relation.full(D2, D2)
    assert not is_adjoint_pair(full, full)


def test_adjoint_pair_rejects_non_weakening():
    with pytest.raises(NotWeakening):
        is_adjoint_pair(delta(C2), delta(C2))


def test_extract_map_identity():
    assert extract_map(identity_I(C3), identity_I(C3)) == MonotoneMap.identity(C3)


def test_extract_map_example():
    f = MonotoneMap(D2, C2, [0, 1])
    assert extract_map(hypergraph(f), hypograph(f)) == f


def test_extract_map_roundtrip_random():
    rng = random.Random(22)
    for _ in range(100):
        X = random_poset(rng, rng.randrange(1, 5))
        Y = random_poset(rng, rng.randrange(1, 5))
        f = random_monotone(rng, X, Y)
        assert extract_map(hypergraph(f), hypograph(f)) == f


def test_extract_map_rejects_non_adjoint():
    with pytest.raises(NotAMap):
        extract_map(Relation.full(D2, D2), Relation.full(D2, D2))


def test_hom_order_equivalences():
    # f <= g pointwise iff g_* included in f_* iff f^* included in g^*
    rng = random.Random(24)
    for _ in range(60):
        X = random_poset(rng, rng.randrange(1, 4))
        Y = random_poset(rng, rng.randrange(1, 4))
        f = random_monotone(rng, X, Y)
        g = random_monotone(rng, X, Y)
        pointwise = f.leq(g)
        assert pointwise == hypergraph(g).leq(hypergraph(f))
        assert pointwise == hypograph(f).leq(hypograph(g))


def test_right_adjoint_exists_iff_hypergraph():
    rng = random.Random(26)
    for _ in range(40):
        X = random_poset(rng, rng.randrange(1, 4))
        Y = random_poset(rng, rng.randrange(1, 4))
        phi = random_relation(rng, X, Y, weakening=True)
        psi = has_right_adjoint(phi)
        hypergraphs = {hypergraph(f) for f in all_monotone_maps(X, Y)}
        if psi is None:
            assert phi not in hypergraphs
        else:
            f = extract_map(phi, psi)
            assert hypergraph(f) == phi and hypograph(f) == psi


def test_right_adjoint_closes_phi_once(monkeypatch):
    # the residual is weakening-closed and satisfies the counit by construction
    rng = random.Random(27)
    phis = []
    for _ in range(30):
        X = random_poset(rng, rng.randrange(1, 4))
        Y = random_poset(rng, rng.randrange(1, 4))
        phis.append(random_relation(rng, X, Y, weakening=True))
    calls = []
    closure = Relation.weakening_closure

    def counting(self):
        calls.append(self)
        return closure(self)

    monkeypatch.setattr(Relation, "weakening_closure", counting)
    found = [has_right_adjoint(phi) is not None for phi in phis]
    assert calls == phis
    assert any(found) and not all(found)


def loop_residual(F, R):
    """S(w, x) iff every y with R(x, y) has F(w, y), as a double loop."""
    mat = np.zeros((F.dom.n, R.dom.n), dtype=bool)
    for w in range(F.dom.n):
        for x in range(R.dom.n):
            mat[w, x] = all(F.pairs[w, y] for y in np.flatnonzero(R.pairs[x]))
    return mat


def column_residual(F, R):
    """Column x is the meet of the F-columns at R's row x, as a column loop."""
    mat = np.zeros((F.dom.n, R.dom.n), dtype=bool)
    for x in range(R.dom.n):
        mat[:, x] = F.pairs[:, np.flatnonzero(R.pairs[x])].all(axis=1)
    return mat


def test_residual_matches_loop_formulas():
    rng = random.Random(27)
    for _ in range(150):
        W = random_poset(rng, rng.randrange(0, 5))
        X = random_poset(rng, rng.randrange(0, 5))
        Y = random_poset(rng, rng.randrange(0, 5))
        F = random_relation(rng, W, Y, p=rng.choice([0.2, 0.5, 0.9]))
        R = random_relation(rng, X, Y, p=rng.choice([0.0, 0.3, 0.7]))
        if X.n:
            mat = R.pairs.copy()
            mat[rng.randrange(X.n)] = False
            R = Relation(X, Y, mat)
        S = residual(F, R)
        assert (S.dom, S.cod) == (W, X)
        assert np.array_equal(S.pairs, loop_residual(F, R))
        assert np.array_equal(S.pairs, column_residual(F, R))
        # an empty row of R gives an all-true column
        assert S.pairs[:, ~R.pairs.any(axis=1)].all()
        # largest: R S ⊆ F, and adding any missing pair breaks it
        assert compose(R, S).leq(F)
        for w, x in np.argwhere(~S.pairs):
            bigger = S.pairs.copy()
            bigger[w, x] = True
            assert not compose(R, Relation(W, X, bigger)).leq(F)


def test_residual_with_dense_complement_at_300():
    # ~F is dense, so most entries of the product have 256 or more witnesses
    rng = np.random.default_rng(29)
    P = FinPoset.discrete(300)
    fmat = rng.random((300, 300)) < 0.05
    fmat[0, :256] = False
    rmat = rng.random((300, 300)) < 0.9
    rmat[0] = False
    rmat[1] = np.arange(300) < 256
    F, R = Relation(P, P, fmat), Relation(P, P, rmat)
    witnesses = (~fmat).astype(np.int64) @ rmat.T.astype(np.int64)
    assert witnesses[0, 1] == 256 and (witnesses >= 256).mean() > 0.5
    S = residual(F, R)
    assert np.array_equal(S.pairs, column_residual(F, R))
    assert not S.pairs[0, 1] and S.pairs[:, 0].all()
    assert compose(R, S).leq(F)


def test_residual_rejects_mismatch():
    with pytest.raises(DomainMismatch):
        residual(identity_I(C3), identity_I(C2))


def test_kernel_identity():
    rng = random.Random(28)
    assert kernel_identity_check(MonotoneMap.identity(C3))
    assert kernel_identity_check(MonotoneMap(C3, C2, [1, 1, 1]))
    for _ in range(100):
        X = random_poset(rng, rng.randrange(1, 5))
        Y = random_poset(rng, rng.randrange(1, 5))
        assert kernel_identity_check(random_monotone(rng, X, Y))


def test_exact_fork_identity_map():
    p = MonotoneMap.identity(C3)
    report = exact_fork_identities(p, identity_I(C3))
    assert all(report.values())


def test_exact_fork_quotient_of_discrete():
    pt = terminal()
    f0 = MonotoneMap(pt, D2, [0])
    f1 = MonotoneMap(pt, D2, [1])
    p = coinserter(f0, f1)
    E = compose(hypograph(p), hypergraph(p))
    report = exact_fork_identities(p, E)
    assert all(report.values()), report


def test_exact_fork_random_coinserters():
    rng = random.Random(30)
    for _ in range(60):
        W = random_poset(rng, rng.randrange(1, 3))
        X = random_poset(rng, rng.randrange(1, 5))
        p = coinserter(random_monotone(rng, W, X), random_monotone(rng, W, X))
        E = compose(hypograph(p), hypergraph(p))
        report = exact_fork_identities(p, E)
        assert all(report.values()), report


def test_exact_fork_rejects_non_fork():
    with pytest.raises(NotExactFork):
        exact_fork_identities(MonotoneMap(C2, C3, [0, 2]), identity_I(C2))


def test_membership_lemma_pointwise():
    rng = random.Random(32)
    for _ in range(40):
        X = random_poset(rng, rng.randrange(1, 4))
        Y = random_poset(rng, rng.randrange(1, 4))
        Z = random_poset(rng, rng.randrange(1, 4))
        R = random_relation(rng, X, Y)
        S = random_relation(rng, Y, Z)
        SR = compose(S, R)
        for x in range(X.n):
            for z in range(Z.n):
                exists = any(R.pairs[x, y] and S.pairs[y, z] for y in range(Y.n))
                assert SR.pairs[x, z] == exists


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 4), (3, 0), (1, 1), (5, 7), (40, 33)])
def test_pair_list_matches_argwhere(rows, cols):
    rng = np.random.default_rng(rows * 100 + cols)
    X, Y = FinPoset.discrete(rows), FinPoset.discrete(cols)
    for p in (0.0, 0.3, 1.0):
        R = Relation(X, Y, rng.random((rows, cols)) < p)
        pairs = R.pair_list()
        assert pairs == [(int(x), int(y)) for x, y in np.argwhere(R.pairs)]
        assert all(type(x) is int and type(y) is int for x, y in pairs)
