"""A cycle is named from its closure's own rows: ``first_cycle`` gives the 2-cycle
that the validating constructor's ``leq & leq.T`` scan named, so ``FinPoset(leq)``
(which scans only a cyclic matrix), ``from_covers`` and the ``.poset`` read (which
build no ``FinPoset`` for a cycle) refuse what their earlier forms
(``cycles_before.py``) refused, with the same class, message and line, and build
the same posets.  The public constructors refuse a poset past ``MAX_ELEMENTS``
before they build anything of its size."""

import numpy as np
import pytest

import cycles_before
from posrel import poset
from posrel.formats import ParseError, _close_poset, parse_poset
from posrel.poset import (
    AntisymmetryViolation,
    FinPoset,
    TooLarge,
    _bit_rows,
    _close_rows,
    first_cycle,
    transitive_closure,
)


def built(make, *args):
    """What ``make(*args)`` gives: the poset's size, order, labels and kept rows, or
    the class, message and line of the error it raises, and the class of its cause."""
    try:
        P = make(*args)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None), type(exc.__cause__)
    return P.n, P.leq.tobytes(), P.labels, P._rows


def every_matrix(n):
    """Every n x n boolean matrix, as one (2 ** (n * n), n, n) stack."""
    bits = np.arange(1 << (n * n))[:, None] >> np.arange(n * n)
    return (bits & 1).astype(bool).reshape(1 << (n * n), n, n)


def cells(mask):
    return [tuple(c) for c in np.argwhere(mask).tolist()]


def assert_reads_as_before(n, pairs, labels=None):
    """``_close_poset`` builds or refuses the pairs, read at lines 2, 3, ..., as before."""
    rows, cols = [i for i, _ in pairs], [j for _, j in pairs]
    nos = range(2, 2 + len(pairs))
    want = built(cycles_before._close_poset, n, rows, cols, nos, labels, "x.poset")
    assert built(_close_poset, n, rows, cols, nos, labels, "x.poset") == want


def test_first_cycle_is_the_validating_constructors_on_every_closed_mask_of_at_most_4_elements():
    # a closed mask is a preorder: 1 + 1 + 4 + 29 + 355 of them
    closed = [
        leq
        for n in range(5)
        for leq in every_matrix(n)
        if leq.diagonal().all() and _close_rows(_bit_rows(leq))[0] == _bit_rows(leq)
    ]
    assert len(closed) == 390
    for leq in closed:
        pair = first_cycle(_bit_rows(leq))
        try:
            cycles_before.FinPoset(leq)
        except AntisymmetryViolation as exc:
            assert pair is not None and str(AntisymmetryViolation.between(*pair)) == str(exc)
        else:
            assert pair is None


def test_finposet_checks_as_before_on_every_4x4_matrix():
    count = 0
    for leq in every_matrix(4):
        assert built(FinPoset, leq) == built(cycles_before.FinPoset, leq)
        count += 1
    assert count == 65536


def test_from_covers_and_the_poset_read_close_as_before_on_every_4_element_mask_without_loops():
    # a pair (i, i) changes no closure; leaving them out keeps this to 4096 masks
    loopless = [mask for mask in every_matrix(4) if not mask.diagonal().any()]
    assert len(loopless) == 4096
    for k, mask in enumerate(loopless):
        pairs = cells(mask)
        labels = "abcd" if k % 2 else None
        assert built(FinPoset.from_covers, 4, pairs, labels) == built(
            cycles_before.FinPoset.from_covers, 4, pairs, labels
        )
        # up the numbering and down it, so a cycle closes at other lines
        assert_reads_as_before(4, pairs, labels)
        assert_reads_as_before(4, pairs[::-1])


@pytest.mark.parametrize("n", [2, 5, 17, 60, 150, 300])
def test_constructors_and_the_read_match_their_earlier_forms_on_seeded_cases(n):
    rng = np.random.default_rng(3400 + n)
    eye = np.eye(n, dtype=bool)
    for trial in range(12):
        # pairs going up a random order of the elements, with a few pairs down it that close
        # cycles of two or more elements, listed in a random order
        rank = rng.permutation(n)
        density = rng.choice([1 / n, 3 / n, 0.2])
        mask = (rng.random((n, n)) < density) & (rank[:, None] < rank[None, :])
        for _ in range(trial % 4):
            x, y = rng.choice(n, 2, replace=False)
            mask[max(x, y, key=lambda e: rank[e]), min(x, y, key=lambda e: rank[e])] = True
        pairs = cells(mask)
        pairs = [pairs[k] for k in rng.permutation(len(pairs))]
        assert built(FinPoset.from_covers, n, pairs) == built(cycles_before.FinPoset.from_covers, n, pairs)
        assert_reads_as_before(n, pairs)
        # the closure, and the closure with one pair taken out, put in or reversed
        closed = transitive_closure(mask)
        candidates = [closed, mask | eye]
        for keep, flip in ((False, False), (True, False), (True, True)):
            i, j = rng.choice(n, 2, replace=False)
            changed = closed.copy()
            changed[(j, i) if flip else (i, j)] = keep
            candidates.append(changed)
        for leq in candidates:
            assert built(FinPoset, leq) == built(cycles_before.FinPoset, leq)


def test_a_cycle_builds_no_validating_poset(monkeypatch):
    calls = []
    init = FinPoset.__init__
    monkeypatch.setattr(FinPoset, "__init__", lambda *args: calls.append(1) or init(*args))
    with pytest.raises(AntisymmetryViolation, match="^elements 1 and 2 form a 2-cycle$"):
        FinPoset.from_covers(4, [(0, 1), (1, 2), (2, 3), (3, 1)])
    n = 64
    text = f"poset {n}\n" + "".join(f"{i} < {i + 1}\n" for i in range(n - 1))
    for back, named in (("40 < 3\n", "3 and 4"), (f"{n - 1} < 0\n", "0 and 1"), (f"{n - 1} < 62\n", "62 and 63")):
        with pytest.raises(ParseError, match=f"^c.poset:{n + 1}: elements {named} form a 2-cycle$"):
            parse_poset(text + back, "c.poset")
    assert calls == []
    # the stand-in counts the validating constructor's calls
    FinPoset(np.eye(2, dtype=bool))
    assert calls == [1]


def test_a_cyclic_matrix_is_refused_for_its_first_2_cycle_else_as_not_transitive():
    leq = np.triu(np.ones((5, 5), dtype=bool))
    leq[4, 2] = leq[3, 1] = True
    with pytest.raises(AntisymmetryViolation, match="^elements 1 and 3 form a 2-cycle$"):
        FinPoset(leq)
    # a 3-cycle with no 2-cycle in the matrix: its closure is cyclic, but it is not transitive
    leq = np.eye(3, dtype=bool) | np.roll(np.eye(3, dtype=bool), 1, axis=1)
    with pytest.raises(ValueError, match="^order matrix is not transitive$"):
        FinPoset(leq)


@pytest.mark.parametrize(
    "build",
    [
        lambda n: FinPoset(np.eye(n, dtype=bool)),
        lambda n: FinPoset.from_covers(n, []),
        FinPoset.discrete,
        FinPoset.chain,
    ],
    ids=["FinPoset", "from_covers", "discrete", "chain"],
)
def test_the_public_constructors_refuse_a_poset_past_the_limit_before_building_it(monkeypatch, build):
    monkeypatch.setattr(poset, "MAX_ELEMENTS", 3)
    assert build(3).n == 3
    made = []
    for name in ("_bit_rows", "close_rows_with"):
        monkeypatch.setattr(poset, name, lambda *args, name=name: made.append(name))
    monkeypatch.setattr(FinPoset, "_trusted", lambda *args: made.append("_trusted"))
    with pytest.raises(TooLarge, match="^poset of 4 elements exceeds the limit of 3$"):
        build(4)
    assert made == []
