import itertools
import random

import numpy as np
import pytest

from posrel import poset
from posrel.harness import gen_map
from posrel.poset import (
    BLAS_MADDS,
    MAX_MAPS,
    AntisymmetryViolation,
    FinPoset,
    MonotoneMap,
    NotMonotone,
    TooLarge,
    all_monotone_maps,
    are_isomorphic,
    bool_mat,
    canonical_certificate,
    classify_map,
    coinserter,
    comma,
    equalizer,
    equalizer_via_inserters,
    find_order_iso,
    hom_poset,
    image_factorize,
    inserter,
    is_coinserter,
    is_comma_square,
    is_comma_square_by_cones,
    is_pullback_square,
    jointly_order_mono,
    kernel_congruence,
    make_poset,
    pair_order,
    pair_span,
    pointwise_order,
    poset_reflection,
    power,
    power_via_inserters,
    product,
    pullback,
    subposet,
    terminal,
    transitive_closure,
)
from posrel.relation import Relation, compose_categorical


C2 = FinPoset.chain(2)
C3 = FinPoset.chain(3)
D2 = FinPoset.discrete(2)
DIAMOND = make_poset("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


def random_poset(rng, n):
    mat = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                mat[i, j] = True
    return FinPoset(transitive_closure(mat))


def random_monotone(rng, X, Y):
    maps = all_monotone_maps(X, Y)
    return maps[rng.randrange(len(maps))]


def test_make_poset_chain():
    P = make_poset(["a", "b"], [("a", "b")])
    assert P.n == 2
    assert (P.leq == np.array([[1, 1], [0, 1]], dtype=bool)).all()
    assert P.labels == ("a", "b")


def test_make_poset_closes_transitively():
    P = make_poset("xyz", [("x", "y"), ("y", "z")])
    assert P.leq[0, 2]


def test_make_poset_rejects_cycle():
    with pytest.raises(AntisymmetryViolation):
        make_poset("ab", [("a", "b"), ("b", "a")])


@pytest.mark.parametrize(
    "build",
    [
        lambda labels: FinPoset(C3.leq, labels),
        lambda labels: FinPoset.from_covers(3, [(0, 1), (1, 2)], labels),
        lambda labels: FinPoset.discrete(3, labels),
        lambda labels: FinPoset.chain(3, labels),
    ],
    ids=["FinPoset", "from_covers", "discrete", "chain"],
)
def test_every_constructor_refuses_a_label_count_other_than_its_size(build):
    for labels in (["a"], [], "abcd"):
        with pytest.raises(ValueError, match=rf"^expected 3 labels, got {len(labels)}$"):
            build(labels)
    assert build("xyz").labels == ("x", "y", "z")
    assert build(None).labels is None


def test_a_0d_order_matrix_is_refused_as_not_square():
    with pytest.raises(ValueError, match=r"^order matrix must be square, got \(\)$"):
        FinPoset(np.array(True))


def outcome(build):
    """The order matrix ``build()`` returns, or the class and message of what it raises."""
    try:
        return build().leq.tolist()
    except ValueError as exc:
        return type(exc), str(exc)


def assert_from_covers_matches_squaring(mask):
    """``from_covers`` closes the True cells of ``mask`` as the squaring closure and
    the validating constructor do: the same matrix, or the same error.  ``closure``
    is the squaring closure on every mask, cyclic ones included, and leaves the
    mask as it was."""
    n = len(mask)
    pairs = cells(mask)
    before = mask.copy()
    want = outcome(lambda: FinPoset(transitive_closure(mask)))
    assert outcome(lambda: FinPoset.from_covers(n, pairs)) == want
    closed = poset.closure(mask)
    assert closed.dtype == bool and np.array_equal(closed, transitive_closure(mask))
    assert np.array_equal(mask, before)
    sym = closed & closed.T & ~np.eye(n, dtype=bool)
    if isinstance(want, list):
        assert not sym.any()
    else:
        # the only error of a closed mask is its first 2-cycle in row-major order
        i, j = np.argwhere(sym)[0].tolist()
        assert want == (AntisymmetryViolation, str(AntisymmetryViolation.between(i, j)))


def test_from_covers_matches_squaring_on_every_mask_of_at_most_3_elements():
    # 1 + 2 + 16 + 512 masks: self-loops, cycles and the empty poset included
    count = 0
    for n in range(4):
        for bits in itertools.product([False, True], repeat=n * n):
            assert_from_covers_matches_squaring(np.array(bits, bool).reshape(n, n))
            count += 1
    assert count == 531


def test_from_covers_matches_squaring_on_seeded_masks_with_planted_cycles():
    rng = np.random.default_rng(2301)
    for trial in range(120):
        n = int(rng.integers(0, 41))
        # a random order of the elements, with pairs going up it, plus self-loops
        rank = rng.permutation(n)
        density = rng.choice([0.0, 1 / (n + 1), 3 / (n + 1), 0.3])
        mask = (rng.random((n, n)) < density) & (rank[:, None] < rank[None, :])
        mask |= np.diag(rng.random(n) < 0.2)
        if n >= 2 and trial % 3:
            # close a cycle of two or more elements by one pair down the order
            x, y = rng.choice(n, 2, replace=False)
            path = sorted([x, y], key=lambda e: rank[e])
            mask[path[0], path[1]] = mask[path[1], path[0]] = True
        assert_from_covers_matches_squaring(mask)


def test_closure_keeps_the_identity_and_closes_a_3_cycle():
    assert np.array_equal(poset.closure(np.eye(3, dtype=bool)), np.eye(3, dtype=bool))
    closed = poset.closure(np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], bool))
    assert np.array_equal(closed, np.ones((3, 3), dtype=bool))


def test_closure_matches_squaring_on_a_permuted_2048_chain_and_its_cycle():
    n = poset.MAX_ELEMENTS
    perm = np.random.default_rng(2401).permutation(n)
    mask = np.zeros((n, n), dtype=bool)
    mask[perm[:-1], perm[1:]] = True
    assert np.array_equal(poset.closure(mask), transitive_closure(mask))
    mask[perm[-1], perm[0]] = True
    closed = poset.closure(mask)
    assert np.array_equal(closed, transitive_closure(mask))
    assert closed.all()


@pytest.mark.parametrize("up", [True, False])
def test_closure_matches_squaring_on_every_pair_of_a_400_chain(up):
    mask = np.triu(np.ones((400, 400), dtype=bool), 1)
    if not up:
        mask = mask.T
    assert int(mask.sum()) == 79800
    assert np.array_equal(poset.closure(mask), transitive_closure(mask))


@pytest.mark.parametrize("n", [1, 2, 7, 60, 300, 1200, poset.MAX_ELEMENTS])
def test_closure_matches_squaring_on_seeded_cyclic_relations(n):
    rng = np.random.default_rng(2601 + n)
    # sparse random digraphs, whose components range from single elements to one giant one
    for density in (0.5 / n, 1 / n, 2 / n):
        mask = rng.random((n, n)) < density
        assert np.array_equal(poset.closure(mask), transitive_closure(mask))
    # a chain in a random order with back pairs: long cycles inside an order
    perm = rng.permutation(n)
    mask = np.zeros((n, n), dtype=bool)
    mask[perm[:-1], perm[1:]] = True
    back = rng.integers(0, n, (2, 3))
    mask[perm[back.max(0)], perm[back.min(0)]] = True
    assert np.array_equal(poset.closure(mask), transitive_closure(mask))


def test_harness_generators_draw_and_close_as_with_squaring():
    from posrel.harness import gen_congruence, gen_poset

    def gen_poset_by_squaring(rng, n, p=0.35):
        mat = np.zeros((n, n), dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    mat[i, j] = True
        return transitive_closure(mat)

    def gen_congruence_by_squaring(rng, X):
        pairs = [(rng.randrange(X.n), rng.randrange(X.n)) for _ in range(2)] if X.n else []
        return transitive_closure(X.leq | poset.pair_mask((X.n, X.n), pairs))

    for seed in range(200):
        rng, ref = random.Random(seed), random.Random(seed)
        n = seed % 9
        X = gen_poset(rng, n)
        assert np.array_equal(X.leq, gen_poset_by_squaring(ref, n))
        obj = gen_congruence(rng, X)
        assert np.array_equal(obj.E.pairs, gen_congruence_by_squaring(ref, X))
        assert rng.getstate() == ref.getstate()


def test_closing_a_2048_chain_from_covers_makes_no_bool_mat_call(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append((np.shape(a), np.shape(b)))
        return bool_mat(a, b)

    monkeypatch.setattr(poset, "bool_mat", counting)
    n = poset.MAX_ELEMENTS
    P = FinPoset.from_covers(n, [(i, i + 1) for i in range(n - 1)])
    assert np.array_equal(P.leq, np.triu(np.ones((n, n), dtype=bool)))
    assert calls == []


def reference_finposet(leq):
    """A verbatim copy of ``FinPoset.__init__``'s checks as they were when they
    tested transitivity by squaring; returns the checked matrix."""
    leq = np.asarray(leq, dtype=bool)
    n = leq.shape[0]
    if leq.shape != (n, n):
        raise ValueError(f"order matrix must be square, got {leq.shape}")
    if not leq[np.diag_indices(n)].all():
        raise ValueError("order matrix is not reflexive")
    sym = leq & leq.T
    sym[np.diag_indices(n)] = False
    if sym.any():
        # argmax of a boolean array is its first True cell, found without listing the others
        raise AntisymmetryViolation.between(*divmod(int(sym.argmax()), n))
    if (bool_mat(leq, leq) & ~leq).any():
        raise ValueError("order matrix is not transitive")
    return leq


def assert_checks_as_the_squaring_constructor(leq):
    before = np.array(leq, copy=True)
    want = outcome(lambda: FinPoset._trusted(reference_finposet(leq)))
    assert outcome(lambda: FinPoset(leq)) == want
    assert np.array_equal(leq, before)


def test_finposet_checks_as_the_squaring_constructor_on_every_matrix_of_at_most_3_elements():
    count = 0
    for n in range(4):
        for bits in itertools.product([False, True], repeat=n * n):
            assert_checks_as_the_squaring_constructor(np.array(bits, bool).reshape(n, n))
            count += 1
    assert count == 531
    for shape in [(2, 3), (3, 2), (0, 1), (3,)]:
        assert_checks_as_the_squaring_constructor(np.ones(shape, dtype=bool))


@pytest.mark.parametrize("n", [4, 9, 40, 120, 300])
def test_finposet_checks_as_the_squaring_constructor_on_seeded_matrices(n):
    rng = np.random.default_rng(2700 + n)
    eye = np.eye(n, dtype=bool)
    for density in (1 / n, 3 / n, 0.3):
        # pairs going up a random order of the elements: antisymmetric, rarely transitive
        rank = rng.permutation(n)
        up = ((rng.random((n, n)) < density) & (rank[:, None] < rank[None, :])) | eye
        closed = transitive_closure(up)
        candidates = [up, closed]
        strict, missing = closed & ~eye, ~closed & (rank[:, None] < rank[None, :])
        # the closure with one strict pair taken out, one pair up the order put in, or one
        # strict pair reversed, up to three times each
        changes = ((strict, False, False), (missing, True, False), (strict, True, True))
        for cells, keep, flip in changes:
            found = np.argwhere(cells)
            for i, j in found[rng.choice(len(found), min(3, len(found)), replace=False)]:
                changed = closed.copy()
                changed[(j, i) if flip else (i, j)] = keep
                candidates.append(changed)
        unreflexive = closed.copy()
        k = rng.integers(n)
        unreflexive[k, k] = False
        candidates.append(unreflexive)
        for leq in candidates:
            assert_checks_as_the_squaring_constructor(leq)


def reference_covers(self):
    """A verbatim copy of ``FinPoset.covers`` as it was when it squared the strict order."""
    lt = self.leq & ~np.eye(self.n, dtype=bool)
    rows, cols = np.nonzero(lt & ~bool_mat(lt, lt))
    return list(zip(rows.tolist(), cols.tolist()))


def assert_covers_as_by_squaring(P):
    got = P.covers()
    assert got == reference_covers(P)
    assert all(type(i) is int and type(j) is int for i, j in got)


def test_covers_match_squaring_on_the_catalogue_and_relabellings():
    from posrel.equivalence import all_posets_up_to

    rng = np.random.default_rng(2702)
    for P in all_posets_up_to(6):
        assert_covers_as_by_squaring(P)
        perm = rng.permutation(P.n)
        assert_covers_as_by_squaring(FinPoset(P.leq[np.ix_(perm, perm)]))


@pytest.mark.parametrize("n", [1, 7, 60, 300, 1200, poset.MAX_ELEMENTS])
def test_covers_match_squaring_on_seeded_orders(n):
    rng = np.random.default_rng(2703 + n)
    for density in (1 / n, 4 / n, 0.5):
        rank = rng.permutation(n)
        up = (rng.random((n, n)) < density) & (rank[:, None] < rank[None, :])
        assert_covers_as_by_squaring(FinPoset._trusted(transitive_closure(up)))


def test_covers_match_squaring_on_large_chains_products_and_bipartite_orders():
    n = poset.MAX_ELEMENTS
    up = FinPoset.chain(n)
    assert_covers_as_by_squaring(up)
    assert_covers_as_by_squaring(FinPoset(up.leq.T))
    assert_covers_as_by_squaring(product(FinPoset.chain(40), FinPoset.chain(40))[0])
    # the complete bipartite order of 1024 below 1024: a million covers
    half = n // 2
    leq = np.eye(n, dtype=bool)
    leq[:half, half:] = True
    assert_covers_as_by_squaring(FinPoset(leq))
    assert len(FinPoset._trusted(leq).covers()) == half * half


@pytest.mark.parametrize("pair", [(-1, 0), (0, -1), (3, 0)])
def test_pair_constructors_refuse_an_index_outside_the_carrier(pair):
    with pytest.raises(ValueError, match=r"outside a 3 x 3 matrix"):
        FinPoset.from_covers(3, [(0, 1), pair])
    with pytest.raises(ValueError, match=r"outside a 3 x 3 matrix"):
        make_poset("abc", [("a", "b"), pair])


def test_pair_mask_takes_any_iterable_of_pairs():
    assert not poset.pair_mask((2, 3), []).any()
    assert cells(poset.pair_mask((2, 3), iter([(1, 2), (0, 0), (1, 2)]))) == [(0, 0), (1, 2)]
    assert cells(poset.pair_mask((2, 3), [(np.int64(1), 0)])) == [(1, 0)]
    with pytest.raises(ValueError, match=r"pair \(1, 3\) is outside a 2 x 3 matrix"):
        poset.pair_mask((2, 3), iter([(1, 2), (1, 3)]))


def test_order_matrix_is_frozen():
    with pytest.raises(ValueError):
        C2.leq[0, 1] = False


def test_monotone_map_rejects_order_breaking():
    with pytest.raises(NotMonotone):
        MonotoneMap(C2, C2, [1, 0])


def labelled_posets(n):
    """Every order matrix on n elements, in bit order; not up to iso."""
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for bits in range(1 << len(off)):
        mat = np.eye(n, dtype=bool)
        for k, (i, j) in enumerate(off):
            mat[i, j] = bits >> k & 1
        try:
            out.append(FinPoset(mat))
        except ValueError:
            pass
    return out


SMALL_POSETS = [P for n in range(4) for P in labelled_posets(n)]


@pytest.mark.parametrize("k", [255, 256, 257])
def test_bool_mat_is_exact_at_256_witnesses(k):
    # a uint8 count of k witnesses wraps to 0 at k = 256
    out = bool_mat(np.ones((1, k), dtype=bool), np.ones((k, 1), dtype=bool))
    assert out.dtype == bool and out.tolist() == [[True]]


def test_transitivity_check_sees_256_middle_elements():
    # 0 < 1..256 < 257 but not 0 <= 257: 256 paths from 0 to 257
    leq = np.eye(258, dtype=bool)
    leq[0, 1:257] = True
    leq[1:257, 257] = True
    with pytest.raises(ValueError, match="not transitive"):
        FinPoset(leq)


def _witnessed(a, b):
    """Reference product: the exact int64 count of witnesses is positive."""
    return (a.astype(np.int64) @ b.astype(np.int64)) > 0


@pytest.mark.parametrize(
    "m, k, n",
    [(1, 1, 1), (3, 5, 2), (6, 6, 6), (20, 20, 20), (8, 32, 32), (9, 40, 30), (64, 64, 64), (130, 7, 130)],
)
def test_bool_mat_matches_witness_counts_on_both_routes(m, k, n):
    # 20³ = 8000 stays on numpy's bool matmul; 8 * 32 * 32 = BLAS_MADDS is the first sgemm size
    rng = np.random.default_rng(m * k * n)
    for density in (0.0, 0.05, 0.3, 1.0):
        a, b = rng.random((m, k)) < density, rng.random((k, n)) < density
        out = bool_mat(a, b)
        assert out.dtype == bool and out.shape == (m, n)
        assert (out == _witnessed(a, b)).all()


@pytest.mark.parametrize(
    "a_shape, b_shape",
    [
        ((3, 4, 5), (5, 2)),  # a stack times one matrix
        ((4, 5), (3, 5, 2)),  # one matrix times a stack
        ((3, 4, 5), (3, 5, 2)),  # stacks of one length
        ((2, 1, 4, 5), (1, 3, 5, 2)),  # batches that broadcast to (2, 3)
        ((40, 8, 8), (8, 8)),  # 512 per matrix, 20480 over the stack: sgemm
        ((8, 8), (40, 8, 8)),
        ((40, 8, 8), (40, 8, 8)),
        ((0, 3, 3), (3, 3)),
        ((2, 0, 0), (0, 0)),
    ],
)
def test_bool_mat_of_stacks_matches_witness_counts(a_shape, b_shape):
    rng = np.random.default_rng(len(a_shape) * 100 + a_shape[0])
    for density in (0.0, 0.2, 1.0):
        a, b = rng.random(a_shape) < density, rng.random(b_shape) < density
        out = bool_mat(a, b)
        want = _witnessed(a, b)
        assert out.dtype == bool and out.shape == want.shape
        assert (out == want).all()


@pytest.mark.parametrize("n", [5, 20, 21, 64, 200])
def test_bool_mat_of_a_square_matches_witness_counts(n):
    # 21³ is the first square product at BLAS_MADDS or above
    assert (n**3 >= BLAS_MADDS) == (n > 20)
    rng = random.Random(n)
    for leq in (random_poset(rng, n).leq, np.random.default_rng(n).random((n, n)) < 0.2):
        assert (bool_mat(leq, leq) == _witnessed(leq, leq)).all()


@pytest.mark.parametrize("m, k, n", [(0, 0, 0), (0, 5, 3), (4, 0, 3), (4, 5, 0), (0, 9000, 2), (3, 0, 9000)])
def test_bool_mat_of_zero_size_operands(m, k, n):
    out = bool_mat(np.ones((m, k), dtype=bool), np.ones((k, n), dtype=bool))
    assert out.dtype == bool and out.shape == (m, n) and not out.any()


@pytest.mark.parametrize("witnesses", [0, 1, 256, 257])
def test_bool_mat_on_the_sgemm_route_counts_every_witness(witnesses):
    # (1, 8192) @ (8192, 1) is exactly BLAS_MADDS multiply-adds, so it runs on sgemm
    k = BLAS_MADDS
    a = np.zeros((1, k), dtype=bool)
    a[0, np.random.default_rng(witnesses).choice(k, witnesses, replace=False)] = True
    out = bool_mat(a, np.ones((k, 1), dtype=bool))
    assert out.dtype == bool and out.tolist() == [[witnesses > 0]]


def _warshall(mat):
    """Reference closure: Warshall's loop over intermediate elements."""
    n = mat.shape[0]
    out = mat | np.eye(n, dtype=bool)
    for k in range(n):
        out |= np.outer(out[:, k], out[k, :])
    return out


@pytest.mark.parametrize("n", [0, 1, 2, 5, 13, 40, 90])
def test_transitive_closure_matches_warshall(n):
    # random relations with cycles close to preorders, as coinserter relies on
    rng = np.random.default_rng(n)
    for density in (0.0, 1 / (n + 1), 3 / (n + 1), 0.5):
        mat = rng.random((n, n)) < density
        before = mat.copy()
        out = transitive_closure(mat)
        assert out.dtype == bool and (out == _warshall(mat)).all()
        assert (mat == before).all()


def test_monotone_map_messages_are_pinned():
    cases = [
        (C2, C2, [1, 0], NotMonotone, "0 <= 1 in domain but 1 !<= 0 in codomain"),
        (C3, C3, [2, 1, 0], NotMonotone, "0 <= 1 in domain but 2 !<= 1 in codomain"),
        (C2, C2, [0, 2], ValueError, "image index 2 out of range"),
        (C2, C2, [-1, 0], ValueError, "image index -1 out of range"),
        (D2, C2, [0, 5], ValueError, "image index 5 out of range"),
    ]
    for X, Y, assign, exc, message in cases:
        with pytest.raises(exc) as info:
            MonotoneMap(X, Y, assign)
        assert str(info.value) == message


def test_monotone_map_reports_first_violation_row_major():
    # every function from a labelled poset of at most 2 elements into one of at most 3
    for X in SMALL_POSETS:
        for Y in SMALL_POSETS:
            if X.n > 2:
                continue
            for assign in itertools.product(range(Y.n), repeat=X.n):
                want = None
                for i, j in np.argwhere(X.leq):
                    a, b = assign[i], assign[j]
                    if not Y.leq[a, b]:
                        want = f"{i} <= {j} in domain but {a} !<= {b} in codomain"
                        break
                if want is None:
                    assert MonotoneMap(X, Y, assign).assign == assign
                else:
                    with pytest.raises(NotMonotone) as info:
                        MonotoneMap(X, Y, assign)
                    assert str(info.value) == want


def test_equal_posets_built_apart_are_equal():
    P = FinPoset.chain(3)
    Q = FinPoset(np.triu(np.ones((3, 3), dtype=bool)), labels="xyz")
    assert P is not Q and P == Q and hash(P) == hash(Q)
    assert P == P and not P != Q
    assert P != FinPoset.discrete(3) and P != C2 and P != "chain"


def test_classify_discrete_onto_chain():
    f = MonotoneMap(D2, C2, [0, 1])
    c = classify_map(f)
    assert not c.is_ff and c.is_so and not c.is_iso


def test_classify_embedding():
    f = MonotoneMap(C2, C3, [0, 2])
    c = classify_map(f)
    assert c.is_ff and not c.is_so


def test_classify_iso():
    f = MonotoneMap(C2, C2, [0, 1])
    assert classify_map(f).is_iso


def test_classify_map_matches_double_loop():
    # every monotone map between labelled posets of at most 3 elements
    count = 0
    for X in SMALL_POSETS:
        for Y in SMALL_POSETS:
            for f in all_monotone_maps(X, Y):
                is_ff = all(
                    X.leq[i, j] or not Y.leq[f.assign[i], f.assign[j]]
                    for i in range(X.n)
                    for j in range(X.n)
                )
                c = classify_map(f)
                assert (c.is_ff, c.is_so) == (is_ff, set(f.assign) == set(range(Y.n)))
                count += 1
    assert count > 1000


def test_ff_implies_injective():
    # order-reflection forces injectivity; verify over a sample
    rng = random.Random(7)
    for _ in range(50):
        X = random_poset(rng, rng.randrange(1, 5))
        Y = random_poset(rng, rng.randrange(1, 5))
        maps = all_monotone_maps(X, Y)
        if not maps:
            continue
        f = maps[rng.randrange(len(maps))]
        if classify_map(f).is_ff:
            assert len(set(f.assign)) == X.n


def test_product_of_chains_is_diamond():
    P, p0, p1 = product(C2, C2)
    assert P.n == 4
    assert are_isomorphic(P, DIAMOND)
    assert jointly_order_mono(p0, p1)


def test_product_universal_property():
    P, p0, p1 = product(C2, C3)
    for u0 in all_monotone_maps(DIAMOND, C2):
        for u1 in all_monotone_maps(DIAMOND, C3):
            h = MonotoneMap(DIAMOND, P, [a * C3.n + b for a, b in zip(u0.assign, u1.assign)])
            assert h.then(p0) == u0 and h.then(p1) == u1


def test_inserter_of_identity_pair_is_everything():
    i = MonotoneMap.identity(C3)
    m = inserter(i, i)
    assert m.dom == C3 and m.assign == (0, 1, 2)


def test_inserter_picks_out_below_diagonal():
    f = MonotoneMap(C3, C3, [0, 1, 2])
    g = MonotoneMap(C3, C3, [1, 1, 1])
    m = inserter(f, g)
    # f(x) <= g(x) fails only at x = 2
    assert m.assign == (0, 1)
    assert classify_map(m).is_ff


def test_equalizer_via_inserters_matches_direct():
    rng = random.Random(11)
    for _ in range(60):
        X = random_poset(rng, rng.randrange(0, 5))
        Y = random_poset(rng, rng.randrange(1, 5))
        f = random_monotone(rng, X, Y)
        g = random_monotone(rng, X, Y)
        direct = equalizer(f, g)
        double = equalizer_via_inserters(f, g)
        assert set(direct.assign) == set(double.assign)
        assert are_isomorphic(direct.dom, double.dom)


def test_power_chain_by_chain():
    # monotone maps C2 -> C2 under pointwise order form a 3-chain
    P, maps = power(C2, C2)
    assert P.n == 3
    assert are_isomorphic(P, C3)
    assert [m.assign for m in maps] == [(0, 0), (0, 1), (1, 1)]


def test_power_via_inserters_agrees():
    rng = random.Random(3)
    for _ in range(25):
        X = random_poset(rng, rng.randrange(1, 4))
        P = random_poset(rng, rng.randrange(1, 4))
        direct, _ = power(X, P)
        built = power_via_inserters(X, P)
        assert are_isomorphic(direct, built)


def test_hom_poset_discrete_domain_is_product():
    H, _ = hom_poset(D2, C2)
    Prod, _, _ = product(C2, C2)
    assert are_isomorphic(H, Prod)


def test_comma_of_identities_on_chain():
    i = MonotoneMap.identity(C2)
    C, c0, c1 = comma(i, i)
    pts = {(c0.assign[k], c1.assign[k]) for k in range(C.n)}
    assert pts == {(0, 0), (0, 1), (1, 1)}
    assert is_comma_square(i, i, c0, c1)


def test_kernel_congruence_of_collapse():
    f = MonotoneMap(D2, terminal(), [0, 0])
    K, k0, k1 = kernel_congruence(f)
    pts = {(k0.assign[k], k1.assign[k]) for k in range(K.n)}
    assert pts == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_comma_square_checker_agrees_with_cone_enumeration():
    rng = random.Random(5)
    stages = [terminal(), C2, D2]
    for _ in range(12):
        X = random_poset(rng, rng.randrange(1, 4))
        Y = random_poset(rng, rng.randrange(1, 4))
        Z = random_poset(rng, rng.randrange(1, 4))
        f = random_monotone(rng, X, Z)
        g = random_monotone(rng, Y, Z)
        C, c0, c1 = comma(f, g)
        assert is_comma_square(f, g, c0, c1)
        assert is_comma_square_by_cones(f, g, c0, c1, stages)


def test_square_checkers_tell_commas_from_pullbacks_and_from_unordered_apexes():
    rng = random.Random(2402)
    i = MonotoneMap.identity(C2)
    cases = [(i, i)]  # the comma has the pair (0, 1), the pullback does not
    for _ in range(30):
        X, Y, Z = (random_poset(rng, rng.randrange(1, 4)) for _ in range(3))
        cases.append((random_monotone(rng, X, Z), random_monotone(rng, Y, Z)))
    differ = unordered = 0
    for f, g in cases:
        squares = [comma(f, g), pullback(f, g)]
        cells_of = [{(s0.assign[c], s1.assign[c]) for c in range(S.n)} for S, s0, s1 in squares]
        differ += cells_of[0] != cells_of[1]
        for (S, s0, s1), cells_here in zip(squares, cells_of):
            assert is_comma_square(f, g, s0, s1) == (cells_here == cells_of[0])
            assert is_pullback_square(f, g, s0, s1) == (cells_here == cells_of[1])
            # the same legs out of the discrete order on the apex
            D = FinPoset.discrete(S.n)
            d0, d1 = MonotoneMap(D, s0.cod, s0.assign), MonotoneMap(D, s1.cod, s1.assign)
            unordered += not S.is_discrete()
            assert is_comma_square(f, g, d0, d1) == (cells_here == cells_of[0] and S.is_discrete())
            assert is_pullback_square(f, g, d0, d1) == (cells_here == cells_of[1] and S.is_discrete())
    assert differ and unordered


def test_cone_enumeration_rejects_squares_that_are_not_the_comma():
    i = MonotoneMap.identity(C2)
    # the pullback misses the cone (0 <= 1)
    _, p0, p1 = pullback(i, i)
    assert not is_comma_square_by_cones(i, i, p0, p1, [terminal(), C2])
    # the comma's legs out of its carrier with the discrete order are not jointly order-monic
    C, c0, c1 = comma(i, i)
    D = FinPoset.discrete(C.n)
    d0, d1 = MonotoneMap(D, C2, c0.assign), MonotoneMap(D, C2, c1.assign)
    assert not is_comma_square_by_cones(i, i, d0, d1, [terminal()])


POINT_0, POINT_1 = MonotoneMap(terminal(), D2, [0]), MonotoneMap(terminal(), D2, [1])


@pytest.mark.parametrize("f0, f1, q", [
    (POINT_0, POINT_1, MonotoneMap.identity(D2)),
    (POINT_0, POINT_1, MonotoneMap(D2, C2, [0, 0])),
    (POINT_0, POINT_0, MonotoneMap(D2, terminal(), [0, 0])),
], ids=["identity-inserts-nothing", "not-surjective", "collapses-too-much"])
def test_coinserter_check_rejects_maps_that_are_not_the_coinserter(f0, f1, q):
    assert not is_coinserter(f0, f1, q, [C2])


def test_pullback_of_chain_over_point():
    f = MonotoneMap(C2, terminal(), [0, 0])
    P, p0, p1 = pullback(f, f)
    assert P.n == 4
    assert is_pullback_square(f, f, p0, p1)
    Prod, _, _ = product(C2, C2)
    assert are_isomorphic(P, Prod)


def test_image_factorize_collapse_then_embed():
    f = MonotoneMap(D2, C2, [0, 1])
    e, m = image_factorize(f)
    assert classify_map(m).is_ff
    assert e.is_surjective()
    assert e.then(m) == f
    # the image carries the codomain order, not the domain's
    assert e.cod.leq[0, 1]


def test_image_factorize_random_roundtrip():
    rng = random.Random(17)
    for _ in range(60):
        X = random_poset(rng, rng.randrange(1, 5))
        Y = random_poset(rng, rng.randrange(1, 5))
        f = random_monotone(rng, X, Y)
        e, m = image_factorize(f)
        assert e.then(m) == f
        assert e.is_surjective()
        assert classify_map(m).is_ff


def test_poset_reflection_of_symmetric_pair():
    pre = np.array([[1, 1], [1, 1]], dtype=bool)
    Q, class_of = poset_reflection(pre)
    assert Q.n == 1 and class_of == [0, 0]


def test_coinserter_inserting_order_on_discrete():
    pt = terminal()
    f0 = MonotoneMap(pt, D2, [0])
    f1 = MonotoneMap(pt, D2, [1])
    q = coinserter(f0, f1)
    assert q.cod == C2
    assert q.assign == (0, 1)
    assert is_coinserter(f0, f1, q, [C2, D2, C3])


def test_coinserter_collapsing_chain():
    pt = terminal()
    f0 = MonotoneMap(pt, C2, [1])
    f1 = MonotoneMap(pt, C2, [0])
    q = coinserter(f0, f1)
    assert q.cod.n == 1


def test_coinserter_universal_property_random():
    rng = random.Random(23)
    pool = [terminal(), C2, D2, C3]
    for _ in range(20):
        W = random_poset(rng, rng.randrange(1, 3))
        X = random_poset(rng, rng.randrange(1, 4))
        f0 = random_monotone(rng, W, X)
        f1 = random_monotone(rng, W, X)
        q = coinserter(f0, f1)
        assert is_coinserter(f0, f1, q, pool)


def test_coinserter_matches_the_pair_loop():
    rng = random.Random(24)
    for _ in range(60):
        W = random_poset(rng, rng.randrange(0, 4))
        X = random_poset(rng, rng.randrange(1, 6))
        f0, f1 = random_monotone(rng, W, X), random_monotone(rng, W, X)
        pre = X.leq.copy()
        for c in range(W.n):
            pre[f0.assign[c], f1.assign[c]] = True
        Q, class_of = poset_reflection(transitive_closure(pre))
        q = coinserter(f0, f1)
        assert (q.cod, q.assign) == (Q, tuple(class_of))


def test_subposet_inclusion_is_ff():
    S, incl = subposet(DIAMOND, [0, 3])
    assert classify_map(incl).is_ff
    assert are_isomorphic(S, C2)


def test_find_order_iso_positive_and_negative():
    iso = find_order_iso(DIAMOND, DIAMOND)
    assert iso is not None and classify_map(iso).is_iso
    assert find_order_iso(C3, DIAMOND) is None
    P, _, _ = product(C2, C2)
    assert find_order_iso(P, DIAMOND) is not None


def relabel(P, perm):
    """The poset on the same carrier with element i renamed perm[i]."""
    inv = np.argsort(perm)
    return FinPoset(P.leq[np.ix_(inv, inv)])


def test_certificate_equality_matches_find_order_iso():
    rng = random.Random(71)
    posets = []
    for _ in range(1000):
        # sparse orders on 5-7 elements often share their signature unisomorphically
        n = rng.randrange(5, 8) if rng.random() < 0.8 else rng.randrange(0, 5)
        mat = np.array([[j > i and rng.random() < 0.3 for j in range(n)] for i in range(n)])
        X = FinPoset(transitive_closure(mat.reshape(n, n)))
        perm = list(range(n))
        rng.shuffle(perm)
        Y = relabel(X, perm)
        assert find_order_iso(X, Y) is not None
        assert canonical_certificate(X) == canonical_certificate(Y)
        posets += [X, Y]
    # the hard pairs: equal (down-set size, up-set size) signatures
    by_signature = {}
    for P in posets:
        sig = (P.n, tuple(sorted(zip(P.leq.sum(axis=0), P.leq.sum(axis=1)))))
        by_signature.setdefault(sig, []).append(P)
    certificate = {P: canonical_certificate(P) for P in posets}
    verdicts = []
    for group in by_signature.values():
        for X, Y in itertools.combinations(group, 2):
            iso = find_order_iso(X, Y) is not None
            assert (certificate[X] == certificate[Y]) == iso
            verdicts.append(iso)
    assert verdicts.count(False) >= 20


def reference_find_order_iso(X, Y):
    """``find_order_iso`` as it was when it recursed once per element."""
    if X.n != Y.n:
        return None
    sig_x, sig_y = (
        list(zip(P.leq.sum(axis=0).tolist(), P.leq.sum(axis=1).tolist())) for P in (X, Y)
    )
    if sorted(sig_x) != sorted(sig_y):
        return None
    by_sig = {}
    for j, key in enumerate(sig_y):
        by_sig.setdefault(key, []).append(j)
    leq_x, leq_y = X.leq.tolist(), Y.leq.tolist()
    assign = [None] * X.n
    used = [False] * Y.n

    def backtrack(i):
        if i == X.n:
            return True
        for j in by_sig[sig_x[i]]:
            if used[j]:
                continue
            for k in range(i):
                if leq_x[k][i] != leq_y[assign[k]][j] or leq_x[i][k] != leq_y[j][assign[k]]:
                    break
            else:
                assign[i] = j
                used[j] = True
                if backtrack(i + 1):
                    return True
                used[j] = False
        return False

    if backtrack(0):
        return MonotoneMap(X, Y, assign)
    return None


def reference_linear_extension(poset):
    """``linear_extension`` as it was before Kahn's algorithm."""
    remaining = set(range(poset.n))
    out = []
    while remaining:
        for i in sorted(remaining):
            if all(j == i or j not in remaining or not poset.leq[j, i] for j in range(poset.n)):
                out.append(i)
                remaining.remove(i)
                break
        else:  # pragma: no cover - impossible for a valid poset
            raise RuntimeError("cycle in order matrix")
    return out


def shuffled(rng, P):
    perm = list(range(P.n))
    rng.shuffle(perm)
    return relabel(P, perm)


def test_find_order_iso_returns_the_references_map():
    from posrel.equivalence import all_posets_up_to_iso

    rng = random.Random(2501)
    pairs = [
        (X, shuffled(rng, Y))
        for n in range(6)
        for X, Y in itertools.product(all_posets_up_to_iso(n), repeat=2)
    ]
    for _ in range(600):
        X = random_poset(rng, rng.randrange(0, 10))
        pairs.append((X, shuffled(rng, X if rng.random() < 0.5 else random_poset(rng, X.n))))
    verdicts = set()
    for X, Y in pairs:
        got, want = (f(X, Y) for f in (find_order_iso, reference_find_order_iso))
        assert (got is None) == (want is None)
        assert got is None or got.assign == want.assign
        verdicts.add(got is None)
    assert verdicts == {True, False}


def test_find_order_iso_takes_a_chain_past_the_recursion_limit():
    C = FinPoset.chain(poset.MAX_ELEMENTS)
    assert are_isomorphic(C, C)


def test_linear_extension_is_the_references_order():
    from posrel.equivalence import all_posets_up_to_iso

    rng = random.Random(2502)
    posets = [P for n in range(7) for P in all_posets_up_to_iso(n)]
    posets += [shuffled(rng, P) for P in posets]
    posets += [shuffled(rng, random_poset(rng, rng.randrange(0, 10))) for _ in range(300)]
    for P in posets:
        assert poset.linear_extension(P) == reference_linear_extension(P)


def test_certificate_separates_sizes_and_keeps_the_empty_poset():
    E = FinPoset.discrete(0)
    assert canonical_certificate(E) == (0, b"")
    assert canonical_certificate(FinPoset.discrete(1)) != canonical_certificate(E)
    assert canonical_certificate(C2) != canonical_certificate(D2)


def test_all_monotone_maps_raises_past_the_budget(monkeypatch):
    assert MAX_MAPS == 2**13
    # three monotone C2 -> C2 fill a budget of three; D2 -> C2 has four
    monkeypatch.setattr(poset, "MAX_MAPS", 3)
    assert len(all_monotone_maps(C2, C2)) == 3
    assert len(power(C2, C2)[1]) == 3
    for enumerate_maps in (all_monotone_maps, hom_poset, lambda X, Y: power(Y, X)):
        with pytest.raises(TooLarge, match="monotone maps from 2 to 2 elements exceed the limit of 3"):
            enumerate_maps(D2, C2)


def test_all_monotone_maps_counts():
    assert len(all_monotone_maps(C2, C2)) == 3
    assert len(all_monotone_maps(D2, D2)) == 4
    assert len(all_monotone_maps(C3, C2)) == 4
    assert len(all_monotone_maps(FinPoset.discrete(0), C2)) == 1


def test_empty_poset_everywhere():
    E = FinPoset.discrete(0)
    P, _, _ = product(E, C2)
    assert P.n == 0
    f = MonotoneMap(E, C2, [])
    e, m = image_factorize(f)
    assert e.cod.n == 0
    assert classify_map(f).is_ff and not classify_map(f).is_so


def loop_pair_order(A, B, pairs):
    """Reference: the componentwise order written out pair by pair."""
    k = len(pairs)
    out = np.zeros((k, k), dtype=bool)
    for a, (x, y) in enumerate(pairs):
        for b, (x2, y2) in enumerate(pairs):
            out[a, b] = A[x, x2] and B[y, y2]
    return out


def cells(mask):
    """The True cells of a boolean matrix as index pairs, row-major."""
    rows, cols = np.nonzero(mask)
    return list(zip(rows.tolist(), cols.tolist()))


def test_pair_order_and_span_match_double_loop():
    rng = random.Random(31)
    for trial in range(60):
        X = random_poset(rng, rng.randrange(0, 5))
        Y = random_poset(rng, rng.randrange(0, 5))
        density = 0.0 if trial % 5 == 0 else 0.5  # every fifth mask is empty
        mask = np.array([[rng.random() < density for _ in range(Y.n)] for _ in range(X.n)], bool)
        mask = mask.reshape(X.n, Y.n)
        pairs = cells(mask)
        want = loop_pair_order(X.leq, Y.leq, pairs)
        assert np.array_equal(pair_order(X.leq, Y.leq, mask), want)
        P, p0, p1 = pair_span(X, Y, mask)
        assert np.array_equal(P.leq, want)
        assert p0.cod == X and p1.cod == Y
        assert list(zip(p0.assign, p1.assign)) == pairs
        # any square matrices, not only orders (tabulate feeds it congruences)
        A = np.array([[rng.random() < 0.5 for _ in range(X.n)] for _ in range(X.n)], bool)
        B = np.array([[rng.random() < 0.5 for _ in range(Y.n)] for _ in range(Y.n)], bool)
        A, B = A.reshape(X.n, X.n), B.reshape(Y.n, Y.n)
        assert np.array_equal(pair_order(A, B, mask), loop_pair_order(A, B, pairs))


def fancy_pair_order(A, B, mask):
    """Reference: ``pair_order`` by 2-D fancy indexing."""
    xs, ys = np.nonzero(mask)
    return A[xs[:, None], xs] & B[ys[:, None], ys]


def test_pair_order_matches_fancy_indexing():
    rng = np.random.default_rng(2303)
    for trial in range(60):
        m, k = rng.integers(0, 12, size=2)
        A = rng.random((m, m)) < 0.5
        B = rng.random((k, k)) < 0.5
        # the empty mask, the all-True one, and random ones between
        mask = rng.random((m, k)) < [0.0, 1.0, 0.3, 0.7][trial % 4]
        got = pair_order(A, B, mask)
        want = fancy_pair_order(A, B, mask)
        assert got.dtype == bool and got.shape == want.shape and (got == want).all()


def test_pair_span_of_no_pairs_is_empty():
    assert pair_order(C2.leq, D2.leq, np.zeros((2, 2), bool)).shape == (0, 0)
    P, p0, p1 = pair_span(C2, D2, np.zeros((2, 2), bool))
    assert P.n == 0 and p0.assign == () and p1.assign == ()


@pytest.mark.parametrize(
    "mask",
    [
        [(1, 0)],  # a pair list once read as a 1-element carrier
        [(0, 0), (0, 0)],  # and this one as an empty carrier
        np.zeros((2, 3), bool),
        np.zeros((3, 2), bool),
        np.eye(2, dtype=int),
    ],
    ids=["pair-list", "repeated-pairs", "wide", "tall", "int-mask"],
)
def test_pair_order_refuses_anything_but_a_boolean_mask_of_the_carrier_shape(mask):
    with pytest.raises(ValueError, match=r"boolean array of shape \(2, 2\)"):
        pair_order(C2.leq, C2.leq, mask)
    with pytest.raises(ValueError, match=r"boolean array of shape \(2, 2\)"):
        pair_span(C2, C2, mask)


# -- the size limit of pair carriers --------------------------------------------


@pytest.fixture
def pair_order_sizes(monkeypatch):
    """The cell counts of the masks ``poset.pair_order`` is called on, by a recording stand-in."""
    sizes = []

    def recording(A, B, mask):
        sizes.append(int(np.count_nonzero(mask)))
        return pair_order(A, B, mask)

    monkeypatch.setattr(poset, "pair_order", recording)
    return sizes


def constant_into_a_point(n):
    return MonotoneMap(FinPoset.chain(n), terminal(), [0] * n)


def full_on_a_chain(n):
    return Relation.full(FinPoset.chain(n), FinPoset.chain(n))


@pytest.mark.parametrize(
    "build",
    [
        lambda: product(FinPoset.chain(46), FinPoset.chain(46)),
        lambda: pullback(constant_into_a_point(46), constant_into_a_point(46)),
        lambda: comma(constant_into_a_point(46), constant_into_a_point(46)),
        lambda: kernel_congruence(constant_into_a_point(46)),
        lambda: power_via_inserters(FinPoset.chain(46), D2),
        lambda: compose_categorical(full_on_a_chain(46), full_on_a_chain(46)),
    ],
    ids=["product", "pullback", "comma", "kernel_congruence", "power_via_inserters",
         "compose_categorical"],
)
def test_a_pair_carrier_past_the_limit_is_refused_before_its_order_is_built(pair_order_sizes, build):
    # 46 * 46 = 2116 cells, past the limit of 2048
    assert poset.MAX_ELEMENTS == 2048
    with pytest.raises(TooLarge, match=r"^apex of 2116 elements exceeds the limit of 2048$"):
        build()
    assert pair_order_sizes == []


def test_a_pair_carrier_of_exactly_the_limit_is_built(pair_order_sizes):
    P, p0, p1 = product(FinPoset.chain(32), FinPoset.chain(64))
    assert pair_order_sizes == [poset.MAX_ELEMENTS] and P.n == poset.MAX_ELEMENTS
    assert p0.assign[-1] == 31 and p1.assign[-1] == 63


# -- pair carriers from masks against the pair-list code they replaced ---------


def list_pair_order(A, B, pairs):
    """Reference: ``pair_order`` on a list of index pairs."""
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    return A[np.ix_(xs, xs)] & B[np.ix_(ys, ys)]


def list_pair_span(X, Y, pairs):
    """Reference: ``pair_span`` on a list of distinct pairs."""
    P = FinPoset._trusted(list_pair_order(X.leq, Y.leq, pairs))
    p0 = MonotoneMap._trusted(P, X, [x for x, _ in pairs])
    p1 = MonotoneMap._trusted(P, Y, [y for _, y in pairs])
    return P, p0, p1


def list_comma(f, g):
    """Reference: the comma's pair list, by comprehension."""
    pairs = [
        (x, y)
        for x in range(f.dom.n)
        for y in range(g.dom.n)
        if f.cod.leq[f.assign[x], g.assign[y]]
    ]
    return list_pair_span(f.dom, g.dom, pairs)


def list_pullback(f, g):
    """Reference: the pullback's pair list, by comprehension."""
    pairs = [
        (x, y)
        for x in range(f.dom.n)
        for y in range(g.dom.n)
        if f.assign[x] == g.assign[y]
    ]
    return list_pair_span(f.dom, g.dom, pairs)


def assert_same_span(got, want):
    """Equal carriers, bit for bit, and equal projections of Python ints."""
    (P, p0, p1), (Q, q0, q1) = got, want
    assert np.array_equal(P.leq, Q.leq) and P == Q
    assert (p0.cod, p0.assign) == (q0.cod, q0.assign)
    assert (p1.cod, p1.assign) == (q1.cod, q1.assign)
    assert all(type(a) is int for a in p0.assign + p1.assign)


def check_limits_against_lists(f, g):
    assert_same_span(comma(f, g), list_comma(f, g))
    assert_same_span(pullback(f, g), list_pullback(f, g))


# Every poset of at most 2 elements, and each 3-element poset up to iso
PAIR_POSETS = [P for n in range(3) for P in labelled_posets(n)] + list(
    {canonical_certificate(P): P for P in labelled_posets(3)}.values()
)


def test_pair_span_matches_the_pair_list_reference_exhaustive():
    # every mask with at most 6 cells: a 3 x 3 mask is left to the seeded cases
    for X in PAIR_POSETS:
        for Y in PAIR_POSETS:
            if X.n * Y.n == 9:
                continue
            for bits in range(1 << (X.n * Y.n)):
                flat = [bits >> k & 1 for k in range(X.n * Y.n)]
                mask = np.array(flat, bool).reshape(X.n, Y.n)
                pairs = cells(mask)
                assert np.array_equal(
                    pair_order(X.leq, Y.leq, mask), list_pair_order(X.leq, Y.leq, pairs)
                )
                assert_same_span(pair_span(X, Y, mask), list_pair_span(X, Y, pairs))


def test_comma_and_pullback_match_the_pair_list_references_exhaustive():
    # empty domains and codomains included; domains of at most 4 elements together
    for Z in PAIR_POSETS:
        for X in PAIR_POSETS:
            for Y in PAIR_POSETS:
                if X.n + Y.n > 4:
                    continue
                for f in all_monotone_maps(X, Z):
                    for g in all_monotone_maps(Y, Z):
                        check_limits_against_lists(f, g)


def test_pair_carriers_match_the_pair_list_references_random():
    rng = random.Random(41)
    for _ in range(300):
        Z = random_poset(rng, rng.randrange(1, 9))
        X, Y = (random_poset(rng, rng.randrange(0, 9)) for _ in range(2))
        check_limits_against_lists(gen_map(rng, X, Z), gen_map(rng, Y, Z))
        mask = np.array([rng.random() < 0.4 for _ in range(X.n * Y.n)], bool).reshape(X.n, Y.n)
        assert_same_span(pair_span(X, Y, mask), list_pair_span(X, Y, cells(mask)))


def test_pointwise_order_matches_monotone_map_leq():
    rng = random.Random(37)
    E = FinPoset.discrete(0)
    cases = [(E, C2), (C2, E), (E, E), (DIAMOND, C3), (C3, DIAMOND)]
    cases += [(random_poset(rng, rng.randrange(0, 4)), random_poset(rng, rng.randrange(0, 4)))
              for _ in range(30)]
    for X, Y in cases:
        maps = all_monotone_maps(X, Y)
        want = np.array([[f.leq(g) for g in maps] for f in maps], dtype=bool)
        want = want.reshape(len(maps), len(maps))
        assert np.array_equal(pointwise_order(maps, Y.leq), want)
    # empty domain: one map, below itself; empty codomain: no maps at all
    assert np.array_equal(pointwise_order(all_monotone_maps(E, C2), C2.leq), [[True]])
    assert pointwise_order(all_monotone_maps(C2, E), E.leq).shape == (0, 0)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 30])
def test_covers_match_argwhere(n):
    rng = random.Random(n)
    for _ in range(5):
        P = random_poset(rng, n)
        lt = P.leq & ~np.eye(n, dtype=bool)
        below = (lt.astype(int) @ lt.astype(int)) > 0  # i < k < j for some k
        covers = P.covers()
        assert covers == [(int(i), int(j)) for i, j in np.argwhere(lt & ~below)]
        assert all(type(i) is int and type(j) is int for i, j in covers)
