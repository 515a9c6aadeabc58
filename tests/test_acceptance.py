"""End-to-end acceptance checks, one test per criterion.

Each test states its instance counts and time budget inline and checks
the law against an oracle that is independent of the implementation
under test (brute-force enumeration, set-theoretic recomputation, or a
constructive witness)."""

import io
import random
import time

import numpy as np
import pytest

from posrel import equivalence, exreg, harness, poset, relation
from posrel.cli import main as cli_main
from posrel.poset import FinPoset, MonotoneMap
from posrel.relation import Relation


def budget(started, limit):
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"over time budget: {elapsed:.1f}s >= {limit}s"


def gen_poset(rng, lo, hi):
    return harness.gen_poset(rng, rng.randrange(lo, hi + 1))


def gen_map(rng, X, Y):
    return harness.gen_map(rng, X, Y)


# -- criterion 1: regularity of the base category ----------------------------


def test_acceptance_1_finpos_regularity():
    started = time.perf_counter()
    rng = random.Random(101)

    # 300 factorizations: so followed by ff, composing back exactly
    for _ in range(300):
        X = gen_poset(rng, 1, 6)
        Y = gen_poset(rng, 1, 6)
        f = gen_map(rng, X, Y)
        e, m = poset.image_factorize(f)
        assert poset.classify_map(e).is_so
        assert poset.classify_map(m).is_ff
        assert e.then(m) == f

    # 100 cospans: pulling back a surjection gives a surjection
    for _ in range(100):
        X = gen_poset(rng, 1, 6)
        Y = gen_poset(rng, 1, 6)
        Z = gen_poset(rng, 1, 6)
        f0 = gen_map(rng, X, Z)
        e, _ = poset.image_factorize(f0)  # a guaranteed surjection onto image
        g = gen_map(rng, Y, e.cod)
        P, p0, p1 = poset.pullback(e, g)
        assert poset.classify_map(p1).is_so

    # 200 surjections: each is the coinserter of its kernel congruence,
    # with the universal property checked by enumerating all factorizations
    pool = [FinPoset.discrete(1), FinPoset.chain(2), FinPoset.discrete(2), FinPoset.chain(3)]
    for _ in range(200):
        X = gen_poset(rng, 1, 5)
        Y = gen_poset(rng, 1, 5)
        f = gen_map(rng, X, Y)
        e, _ = poset.image_factorize(f)
        K, k0, k1 = poset.kernel_congruence(e)
        q = poset.coinserter(k0, k1)
        # same identifications, and the full universal property
        assert [q.assign[x] for x in range(X.n)] == _relabel(e, q)
        assert poset.is_coinserter(k0, k1, e, pool)

    budget(started, 20)


def _relabel(e, q):
    """e's assignments renamed along the bijection matching q's classes."""
    rename = {}
    for x in range(e.dom.n):
        rename[e.assign[x]] = q.assign[x]
    return [rename[e.assign[x]] for x in range(e.dom.n)]


# -- criterion 2: relation laws ----------------------------------------------


def test_acceptance_2_relation_laws():
    started = time.perf_counter()
    rng = random.Random(102)

    for _ in range(500):
        X, Y, Z = (gen_poset(rng, 1, 5) for _ in range(3))
        P = harness.gen_relation(rng, X, Y)
        Q = harness.gen_relation(rng, Y, Z)
        S = harness.gen_relation(rng, X, Z)
        assert relation.check_modular_law(P, Q, S) == {}

    for _ in range(200):
        W, X, Y, Z = (gen_poset(rng, 1, 4) for _ in range(4))
        f = gen_map(rng, W, X)
        g = gen_map(rng, Z, Y)
        R = harness.gen_weakening_relation(rng, X, Y)
        S = harness.gen_weakening_relation(rng, X, Y)
        assert relation.check_map_distributivity(f, g, R, S)

    for _ in range(300):
        A, B, C, D = (gen_poset(rng, 1, 5) for _ in range(4))
        R = harness.gen_relation(rng, A, B)
        S = harness.gen_relation(rng, B, C)
        T = harness.gen_relation(rng, C, D)
        assert relation.compose(T, relation.compose(S, R)) == relation.compose(
            relation.compose(T, S), R
        )
        assert relation.compose(R, relation.delta(A)) == R
        assert relation.compose(relation.delta(B), R) == R
        W = harness.gen_weakening_relation(rng, A, B)
        assert relation.compose(W, relation.identity_I(A)) == W
        assert relation.compose(relation.identity_I(B), W) == W

    for _ in range(300):
        A, B, C = (gen_poset(rng, 1, 5) for _ in range(3))
        R = harness.gen_relation(rng, A, B)
        S = harness.gen_relation(rng, B, C)
        assert relation.opposite(relation.opposite(R)) == R
        assert relation.opposite(relation.compose(S, R)) == relation.compose(
            relation.opposite(R), relation.opposite(S)
        )

    budget(started, 15)


# -- criterion 3: the maps theorem -------------------------------------------


def _all_right_adjoints_exist(phi):
    """Exhaustive search over every candidate matrix for a right adjoint."""
    X, Y = phi.dom, phi.cod
    n, m = X.n, Y.n
    K = 1 << (m * n)
    bits = (np.arange(K, dtype=np.uint32)[:, None] >> np.arange(m * n)[None, :]) & 1
    cand = bits.astype(np.uint8).reshape(K, m, n)
    # weakening-closedness: closure equals the candidate
    closure = np.matmul(np.matmul(Y.leq.astype(np.uint8), cand), X.leq.astype(np.uint8))
    weakening = ((closure > 0) == (cand > 0)).all(axis=(1, 2))
    # unit: I_X included in psi . phi; counit: phi . psi included in I_Y
    unit_mat = np.matmul(phi.pairs.astype(np.uint8), cand) > 0
    unit = (unit_mat | ~X.leq).all(axis=(1, 2))
    counit_mat = np.matmul(cand, phi.pairs.astype(np.uint8)) > 0
    counit = (~counit_mat | Y.leq).all(axis=(1, 2))
    return bool((weakening & unit & counit).any())


def test_acceptance_3_maps_theorem():
    started = time.perf_counter()
    rng = random.Random(103)

    for _ in range(200):
        X = gen_poset(rng, 1, 5)
        Y = gen_poset(rng, 1, 5)
        f = gen_map(rng, X, Y)
        assert relation.extract_map(relation.hypergraph(f), relation.hypograph(f)) == f

    for _ in range(200):
        X = gen_poset(rng, 1, 4)
        Y = gen_poset(rng, 1, 4)
        phi = harness.gen_weakening_relation(rng, X, Y)
        exists = _all_right_adjoints_exist(phi)
        hypergraphs = {relation.hypergraph(g) for g in poset.all_monotone_maps(X, Y)}
        assert exists == (phi in hypergraphs)

    budget(started, 30)


# -- criterion 4: tabulations ------------------------------------------------


def test_acceptance_4_tabulations():
    started = time.perf_counter()
    rng = random.Random(104)

    for _ in range(200):
        A = harness.gen_exreg_object(rng, 4)
        B = harness.gen_exreg_object(rng, 4)
        raw = harness.gen_relation(rng, A.X, B.X)
        phi = relation.compose(B.core(), relation.compose(raw, A.core()))
        tab = exreg.tabulate(phi, A, B)  # internal assertions: phi = R1 R0°, meet law
        assert relation.compose(
            exreg.graph_of(tab.leg1), relation.opposite(exreg.graph_of(tab.leg0))
        ) == phi
        assert relation.meet(
            relation.compose(tab.leg0.upper, tab.leg0.lower),
            relation.compose(tab.leg1.upper, tab.leg1.lower),
        ) == tab.apex.E
        # the legs are jointly order-mono, which is exactly uniqueness of factors
        assert exreg.jointly_order_mono_pair(tab.leg0, tab.leg1)
        if tab.apex.X.n == 0:
            continue  # empty apex: only the empty cone exists, nothing to factor
        for _ in range(20):
            W = harness.gen_exreg_object(rng, 3)
            T = harness.gen_exreg_morphism(rng, W, tab.apex)
            S0 = exreg.compose_morphisms(tab.leg0, T)
            S1 = exreg.compose_morphisms(tab.leg1, T)
            H = exreg.tabulation_factor(tab, S0, S1)
            assert exreg.compose_morphisms(tab.leg0, H) == S0
            assert exreg.compose_morphisms(tab.leg1, H) == S1
            assert H == T  # uniqueness, concretely

    budget(started, 30)


# -- criterion 5: completion structure ---------------------------------------


def test_acceptance_5_completion_structure():
    started = time.perf_counter()
    rng = random.Random(105)

    for _ in range(200):
        A = harness.gen_exreg_object(rng, 4)
        B = harness.gen_exreg_object(rng, 4)
        R = harness.gen_exreg_morphism(rng, A, B)
        Q, M = exreg.factorize(R)  # asserts S0 = S1 and the class laws internally
        assert exreg.classify(Q).is_so
        assert exreg.classify(M).is_ff
        assert exreg.compose_morphisms(M, Q) == R

    for _ in range(100):
        A = harness.gen_exreg_object(rng, 3)
        B = harness.gen_exreg_object(rng, 3)
        C = harness.gen_exreg_object(rng, 3)
        R0 = harness.gen_exreg_morphism(rng, A, C)
        Qpart, _ = exreg.factorize(R0)
        S = harness.gen_exreg_morphism(rng, B, Qpart.tgt)
        tab = exreg.limit("pullback", Qpart, S)
        assert exreg.classify(tab.leg1).is_so

    for _ in range(200):
        A = harness.gen_exreg_object(rng, 4)
        B = harness.gen_exreg_object(rng, 4)
        R = harness.gen_exreg_morphism(rng, A, B)
        cls = exreg.classify(R)
        E, F = A.E, B.E
        assert cls.is_ff == (relation.compose(R.upper, R.lower) == E)
        so_eq = relation.compose(R.lower, R.upper) == F
        gr = exreg.graph_of(R)
        assert cls.is_so == so_eq
        assert so_eq == (relation.compose(gr, relation.opposite(gr)) == B.core())

    budget(started, 30)


# -- criterion 6: exactness --------------------------------------------------


def test_acceptance_6_exactness():
    started = time.perf_counter()
    rng = random.Random(106)
    pool_posets = [FinPoset.discrete(1), FinPoset.chain(2), FinPoset.discrete(2)]

    for _ in range(200):
        obj = harness.gen_exreg_object(rng, 4)
        R = exreg.ExRegObject.from_pairs(
            obj.X,
            obj.E.pair_list()
            + [(rng.randrange(obj.X.n), rng.randrange(obj.X.n)) for _ in range(2)],
        ).E
        q, m = exreg.split_congruence(obj, R.pairs)
        assert relation.compose(m.rel, q.lower) == R
        assert exreg.classify(q).is_so
        assert relation.compose(q.upper, q.lower) == R

        pres = exreg.canonical_presentation(obj)
        # comma: the kernel is the comma of the quotient with itself
        tab = exreg.limit("comma", pres.quotient, pres.quotient)
        QK, _ = equivalence.quotient_realize(pres.kernel)
        QT, _ = equivalence.quotient_realize(tab.apex)
        assert poset.are_isomorphic(QK, QT)
        # coinserter: enumerate every morphism out of the carrier that
        # oversees the pair, and demand a unique factorization
        for Zp in pool_posets:
            Z = exreg.gamma_object(Zp)
            for g in equivalence.all_morphisms(exreg.gamma_object(obj.X), Z):
                if not exreg.hom_leq(
                    exreg.compose_morphisms(g, pres.e0),
                    exreg.compose_morphisms(g, pres.e1),
                ):
                    continue
                factors = [
                    v
                    for v in equivalence.all_morphisms(obj, Z)
                    if exreg.compose_morphisms(v, pres.quotient) == g
                ]
                assert len(factors) == 1

    budget(started, 20)


# -- criterion 7: the completion of finite sets is finite posets --------------


def _brute_force_morphisms(A, B):
    """All morphisms A -> B found by exhaustive lower-leg search.

    Candidate lower legs are all |X| x |Y| matrices, filtered in bulk by
    the bimodule law; the right adjoint of each survivor is then derived
    and validated.  Independent of the realization bijection."""
    E, F = A.E, B.E
    n, m = A.X.n, B.X.n
    K = 1 << (n * m)
    bits = (np.arange(K, dtype=np.uint32)[:, None] >> np.arange(n * m)[None, :]) & 1
    cand = bits.astype(np.uint8).reshape(K, n, m)
    closed = np.matmul(np.matmul(E.pairs.astype(np.uint8), cand), F.pairs.astype(np.uint8))
    bimodule = ((closed > 0) == (cand > 0)).all(axis=(1, 2))
    out = []
    for idx in np.flatnonzero(bimodule):
        lower = Relation(A.X, B.X, cand[idx] > 0)
        try:
            upper = exreg.derive_right_adjoint(A, B, lower)
        except relation.NotAMap:
            continue
        out.append(exreg.validate_morphism(A, B, lower, upper))
    return out


def test_acceptance_7_set_completion_is_posets():
    started = time.perf_counter()
    rng = random.Random(107)

    # 100 sampled pairs of discrete-carrier objects with carriers <= 4
    for _ in range(100):
        nA, nB = rng.randrange(1, 5), rng.randrange(1, 5)
        DA, DB = FinPoset.discrete(nA), FinPoset.discrete(nB)
        A = harness.gen_congruence(rng, DA)
        B = harness.gen_congruence(rng, DB)
        morphisms = _brute_force_morphisms(A, B)
        PA, _ = equivalence.quotient_realize(A)
        PB, _ = equivalence.quotient_realize(B)
        maps = poset.all_monotone_maps(PA, PB)
        realized = [equivalence.realize_morphism(R) for R in morphisms]
        # bijective on objects of the hom-poset ...
        assert len(set(realized)) == len(morphisms)
        assert set(realized) == set(maps)
        # ... and an order-isomorphism
        for R, rR in zip(morphisms, realized):
            for S, rS in zip(morphisms, realized):
                assert exreg.hom_leq(R, S) == rR.leq(rS)

    # the full catalogue on <= 5 elements is realized from discrete carriers
    catalogue = equivalence.all_posets_up_to(5)
    assert sum(1 for P in catalogue if P.n == 5) == 63
    for Y in catalogue:
        obj = exreg.ExRegObject(FinPoset.discrete(Y.n), Y.leq)
        Q, _ = equivalence.quotient_realize(obj)
        assert poset.are_isomorphic(Q, Y)

    budget(started, 60)


# -- criterion 8: the internal-poset comparison ------------------------------


def test_acceptance_8_ord_commutation():
    started = time.perf_counter()
    rng = random.Random(108)

    for _ in range(60):
        A = gen_poset(rng, 0, 4)
        B = gen_poset(rng, 0, 4)
        OA = equivalence.OrdObject.from_poset(A)
        OB = equivalence.OrdObject.from_poset(B)
        H_ord, ord_maps = equivalence.ord_hom_poset(OA, OB)
        H_pos, pos_maps = poset.hom_poset(A, B)
        assert sorted(ord_maps) == sorted(m.assign for m in pos_maps)
        assert poset.are_isomorphic(H_ord, H_pos)
        assert equivalence.ord_product(OA, OB).to_poset() == poset.product(A, B)[0]
        if A.n and B.n:
            f = gen_map(rng, A, B)
            g = gen_map(rng, A, B)
            sub, keep = equivalence.ord_inserter(OA, OB, f.assign, g.assign)
            m = poset.inserter(f, g)
            assert keep == list(m.assign) and sub.to_poset() == m.dom
            M, e_assign, image = equivalence.ord_image_factorize(OA, OB, f.assign)
            e, mm = poset.image_factorize(f)
            assert M.to_poset() == e.cod and tuple(e_assign) == e.assign
            assert image == list(mm.assign)

    report = equivalence.commutation_check(4)
    assert report.passed, report.render()

    budget(started, 30)


# -- criterion 9: determinism of the harness ---------------------------------


def test_acceptance_9_harness_determinism():
    started = time.perf_counter()

    def run():
        out, err = io.StringIO(), io.StringIO()
        code = cli_main(
            ["harness", "run", "all", "--trials", "100", "--seed", "1"],
            stdout=out,
            stderr=err,
        )
        return code, out.getvalue()

    code_a, text_a = run()
    code_b, text_b = run()
    assert code_a == 0 and code_b == 0
    assert text_a.encode() == text_b.encode()
    assert "total: 19 suite(s), 0 failure(s)" in text_a

    budget(started, 120)
