"""Every submatrix the package reads off an order along index lists, by
``poset.comma_mask`` (``M.take(rows, 0).take(cols, -1)``), equals the
``M[np.ix_(rows, cols)]`` form, on empty index lists and on seeded random ones:
the helper itself, and each restriction, kernel, comma and leg built on it."""

import random

import numpy as np

from posrel.poset import (
    FinPoset,
    MonotoneMap,
    all_monotone_maps,
    comma,
    comma_mask,
    inserter,
    pair_order,
    pointwise_order,
    poset_reflection,
    subposet,
    transitive_closure,
)
from posrel.exreg import ExRegObject
from posrel.equivalence import kernel_object, morphism_from_map, quotient_realize

from test_poset import random_monotone, random_poset
from test_exreg import random_object

EMPTY = FinPoset.discrete(0)
SEEDS = range(40)


def ix(M, rows, cols):
    return M[np.ix_(list(rows), list(cols))]


def same(got, want):
    return got.dtype == want.dtype == bool and got.shape == want.shape and (got == want).all()


def random_mask(rng, rows, cols, p):
    return np.array([rng.random() < p for _ in range(rows * cols)], bool).reshape(rows, cols)


def random_preorder(rng, n):
    return transitive_closure(random_mask(rng, n, n, 0.3))


def random_elements(rng, n):
    return [x for x in range(n) if rng.random() < 0.5]


def test_comma_mask_against_ix():
    M = random_mask(random.Random(1908), 4, 4, 0.5)
    empty = np.array([], dtype=np.intp)
    for rows, cols in [([], []), ((), ()), (range(0), range(0)), (empty, empty),
                       ([], (1, 3)), ((2, 0, 2), []), (range(1, 4), empty),
                       ((3, 3, 0), [1]), (range(4), np.array([2, 0, 2])), (np.array([1]), range(4))]:
        assert same(comma_mask(M, rows, cols), ix(M, rows, cols))
    assert same(comma_mask(EMPTY.leq, (), []), ix(EMPTY.leq, [], []))
    rng = random.Random(1909)
    for _ in SEEDS:
        n = rng.randrange(1, 6)
        M = random_mask(rng, n, n, 0.5)
        rows, cols = ([rng.randrange(n) for _ in range(rng.randrange(0, 7))] for _ in range(2))
        assert same(comma_mask(M, rows, cols), ix(M, rows, cols))
        assert same(comma_mask(M, tuple(rows), np.array(cols, dtype=np.intp)), ix(M, rows, cols))


def test_comma_mask_of_stacked_rows_and_columns_has_their_shapes_in_turn():
    rng = random.Random(1910)
    M = random_mask(rng, 5, 5, 0.5)
    rows = np.array([[rng.randrange(5) for _ in range(3)] for _ in range(2)])
    cols = np.array([rng.randrange(5) for _ in range(4)])
    out = comma_mask(M, rows, cols)
    assert out.shape == (2, 3, 4)
    for a in range(2):
        assert same(out[a], ix(M, rows[a], cols))
    out = comma_mask(M, cols, rows)
    assert out.shape == (4, 2, 3)
    for a in range(2):
        assert same(out[:, a], ix(M, cols, rows[a]))
    assert comma_mask(M, np.zeros((2, 0), np.intp), cols).shape == (2, 0, 4)
    assert comma_mask(M, (), np.zeros((0, 3), np.intp)).shape == (0, 0, 3)


def check_subposet(X, elements):
    sub, incl = subposet(X, elements)
    assert same(sub.leq, ix(X.leq, sorted(elements), sorted(elements)))
    assert incl.assign == tuple(sorted(elements))


def test_subposet_against_ix():
    check_subposet(FinPoset.chain(3), [])
    check_subposet(EMPTY, [])
    rng = random.Random(1901)
    for _ in SEEDS:
        X = random_poset(rng, rng.randrange(0, 7))
        check_subposet(X, random_elements(rng, X.n))


def test_inserter_keeping_nothing_against_ix():
    X, Y = FinPoset.discrete(2), FinPoset.chain(2)
    top, bottom = MonotoneMap(X, Y, [1, 1]), MonotoneMap(X, Y, [0, 0])
    incl = inserter(top, bottom)
    assert incl.assign == ()
    assert same(incl.dom.leq, ix(X.leq, [], []))


def check_pair_order(A, B, mask):
    xs, ys = np.nonzero(mask)
    assert same(pair_order(A, B, mask), ix(A, xs, xs) & ix(B, ys, ys))


def test_pair_order_against_ix():
    check_pair_order(np.eye(2, dtype=bool), np.eye(3, dtype=bool), np.zeros((2, 3), bool))
    check_pair_order(np.zeros((0, 0), bool), np.eye(2, dtype=bool), np.zeros((0, 2), bool))
    rng = random.Random(1902)
    for _ in SEEDS:
        A, B = (random_preorder(rng, rng.randrange(0, 6)) for _ in range(2))
        check_pair_order(A, B, random_mask(rng, len(A), len(B), 0.5))


def check_comma(f, g):
    P, p0, p1 = comma(f, g)
    mask = ix(f.cod.leq, f.assign, g.assign)
    xs, ys = np.nonzero(mask)
    assert same(P.leq, ix(f.dom.leq, xs, xs) & ix(g.dom.leq, ys, ys))
    assert (p0.assign, p1.assign) == (tuple(xs.tolist()), tuple(ys.tolist()))


def test_comma_against_ix():
    Y = FinPoset.chain(2)
    out_of_empty = MonotoneMap(EMPTY, Y, [])
    into_y = MonotoneMap(FinPoset.discrete(2), Y, [0, 1])
    check_comma(out_of_empty, into_y)
    check_comma(into_y, out_of_empty)
    check_comma(out_of_empty, out_of_empty)
    rng = random.Random(1903)
    for _ in SEEDS:
        X, Z, Y = (random_poset(rng, rng.randrange(0, 5)) for _ in range(3))
        if Y.n == 0:
            X = Z = EMPTY
        check_comma(random_monotone(rng, X, Y), random_monotone(rng, Z, Y))


def check_reflection(pre):
    Q, class_of = poset_reflection(pre)
    reps = [class_of.index(c) for c in range(Q.n)]
    assert same(Q.leq, ix(pre, reps, reps))


def test_poset_reflection_against_ix():
    check_reflection(np.zeros((0, 0), bool))
    check_reflection(np.ones((3, 3), bool))
    rng = random.Random(1904)
    for _ in SEEDS:
        check_reflection(random_preorder(rng, rng.randrange(0, 7)))


def check_pointwise(maps, Y):
    want = np.ones((len(maps), len(maps)), bool)
    for i in range(maps[0].dom.n if maps else 0):
        col = [m.assign[i] for m in maps]
        want &= ix(Y.leq, col, col)
    assert same(pointwise_order(maps, Y.leq), want)


def test_pointwise_order_against_ix():
    check_pointwise([], FinPoset.chain(2))
    check_pointwise(all_monotone_maps(EMPTY, FinPoset.chain(2)), FinPoset.chain(2))
    rng = random.Random(1905)
    for _ in SEEDS:
        X, Y = random_poset(rng, rng.randrange(0, 4)), random_poset(rng, rng.randrange(1, 4))
        maps = all_monotone_maps(X, Y)
        check_pointwise(rng.sample(maps, rng.randrange(0, len(maps) + 1)), Y)


def check_morphism_from_map(src, tgt, r):
    R = morphism_from_map(src, tgt, r)
    p, q = quotient_realize(src)[1], quotient_realize(tgt)[1]
    rx = [r.assign[c] for c in p.assign]
    assert same(R.lower.pairs, ix(r.cod.leq, rx, q.assign))
    assert same(R.upper.pairs, ix(r.cod.leq, q.assign, rx))


def test_morphism_from_map_against_ix():
    empty, point = ExRegObject(EMPTY, EMPTY.leq), ExRegObject(FinPoset.discrete(1), [[True]])
    for src, tgt in [(empty, empty), (empty, point)]:
        (r,) = all_monotone_maps(quotient_realize(src)[0], quotient_realize(tgt)[0])
        check_morphism_from_map(src, tgt, r)
    rng = random.Random(1906)
    for _ in SEEDS:
        src, tgt = random_object(rng, 4, 0), random_object(rng, 4, 1)
        r = random_monotone(rng, quotient_realize(src)[0], quotient_realize(tgt)[0])
        check_morphism_from_map(src, tgt, r)


def check_kernel_object(e):
    assert same(kernel_object(e).E.pairs, ix(e.cod.leq, e.assign, e.assign))


def test_kernel_object_against_ix():
    check_kernel_object(MonotoneMap(EMPTY, FinPoset.chain(2), []))
    check_kernel_object(MonotoneMap(EMPTY, EMPTY, []))
    rng = random.Random(1907)
    for _ in SEEDS:
        X, Y = random_poset(rng, rng.randrange(0, 5)), random_poset(rng, rng.randrange(1, 5))
        check_kernel_object(random_monotone(rng, X, Y))
