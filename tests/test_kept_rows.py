"""Posets keep their up-set bit rows, and the constructions that close an order
plus some pairs start from them: ``gen_poset``, ``ExRegObject.from_pairs``,
``coinserter`` and the ``.exreg`` object read build what their earlier matrix
forms (``rows_before.py``) built, and index lists are checked at the boundary."""

import itertools
import random

import numpy as np
import pytest

import rows_before
from posrel import poset
from posrel.equivalence import all_posets_up_to_iso
from posrel.exreg import ExRegObject
from posrel.formats import parse_exreg, parse_poset
from posrel.harness import SIMPLEST_FLOAT, ChoiceStream, gen_poset
from posrel.poset import (
    FinPoset,
    MonotoneMap,
    _bit_rows,
    coinserter,
    pair_span,
    poset_reflection,
    subposet,
    transitive_closure,
    up_rows,
)
from posrel.relation import meet, opposite

from test_poset import labelled_posets, random_poset

CATALOGUE = [P for n in range(5) for P in all_posets_up_to_iso(n)]


def short_pair_lists(n):
    """Every list of at most two pairs of elements of an n-element poset."""
    cells = list(itertools.product(range(n), repeat=2))
    return [[]] + [[a] for a in cells] + [[a, b] for a in cells for b in cells]


def packed(P):
    return tuple(_bit_rows(P.leq))


# -- gen_poset ------------------------------------------------------------------


@pytest.mark.parametrize("n", range(5))
def test_gen_poset_builds_as_its_reference_on_every_edge_pattern(n):
    edges = n * (n - 1) // 2
    for pattern in range(1 << edges):
        # 0.0 draws an edge and the simplest float none, whatever p in (0, 1)
        draws = [0.0 if pattern >> k & 1 else SIMPLEST_FLOAT for k in range(edges)]
        new, old = ChoiceStream(replay=draws), ChoiceStream(replay=draws)
        P = gen_poset(new, n)
        assert P == rows_before.gen_poset(old, n)
        assert new.draws == old.draws == draws
        assert P._rows == packed(P)


def test_gen_poset_draws_and_builds_as_its_reference_on_seeded_draws():
    for n in range(13):
        for seed in range(8):
            for p in (0.1, 0.35, 0.7):
                new, old = ChoiceStream(f"{n}:{seed}"), ChoiceStream(f"{n}:{seed}")
                P = gen_poset(new, n, p)
                assert P == rows_before.gen_poset(old, n, p)
                assert new.draws == old.draws
                assert P._rows == packed(P)


# -- from_pairs and coinserter ----------------------------------------------------


def test_from_pairs_closes_as_its_reference_over_the_catalogue():
    for X in CATALOGUE:
        for pairs in short_pair_lists(X.n):
            got = ExRegObject.from_pairs(X, pairs)
            assert got.E == rows_before.from_pairs(ExRegObject, X, pairs).E


def test_from_pairs_closes_as_its_reference_past_four_pairs_an_element():
    # past 4 n pairs the pairs are packed as a mask's rows rather than ORed in one by one
    rng = random.Random(3201)
    for _ in range(300):
        X = random_poset(rng, rng.randrange(1, 7))
        pairs = [(rng.randrange(X.n), rng.randrange(X.n)) for _ in range(rng.randrange(6 * X.n))]
        got = ExRegObject.from_pairs(X, pairs)
        assert got.E == rows_before.from_pairs(ExRegObject, X, pairs).E


def test_coinserter_closes_as_its_reference_over_the_catalogue():
    for X in CATALOGUE:
        for pairs in short_pair_lists(X.n):
            # a discrete domain makes every assignment monotone
            D = FinPoset.discrete(len(pairs))
            f0 = MonotoneMap(D, X, [i for i, _ in pairs])
            f1 = MonotoneMap(D, X, [j for _, j in pairs])
            got = coinserter(f0, f1)
            assert got == rows_before.coinserter(f0, f1)
            assert all(type(a) is int for a in got.assign)


def test_pairs_inside_the_order_give_the_order_with_no_closure_pass(monkeypatch, tmp_path):
    X = FinPoset.chain(3)
    D = FinPoset.discrete(2)
    (tmp_path / "c.poset").write_text("poset 3\n0 < 1\n1 < 2\n")
    passes = []
    close_rows = poset._close_rows
    monkeypatch.setattr(poset, "_close_rows", lambda succ: passes.append(succ) or close_rows(succ))
    assert ExRegObject.from_pairs(X, [(0, 2), (1, 1)]).E.pairs is X.leq
    assert coinserter(MonotoneMap(D, X, [0, 1]), MonotoneMap(D, X, [2, 1])).cod == X
    assert passes == []
    # the one pass closes the .poset file's pairs, ORed into the discrete order's rows
    obj = parse_exreg("object c.poset\ncong 0 ~ 1\n", str(tmp_path / "o.exreg"))
    assert obj.E.pairs is obj.X.leq
    assert passes == [[0b011, 0b110, 0b100]]


def test_an_object_file_with_a_pair_outside_the_order_still_closes(tmp_path):
    (tmp_path / "c.poset").write_text("poset 3\n0 < 1\n1 < 2\n")
    path = str(tmp_path / "o.exreg")
    obj = parse_exreg("object c.poset\ncong 2 ~ 0\n", path)
    assert obj.E.pairs.all()
    obj = parse_exreg("object c.poset\n# loose\ncong 1 ~ 0\n", path)
    assert obj.E.pairs.tolist() == [[True, True, True], [True, True, True], [False, False, True]]


# -- the kept rows ------------------------------------------------------------------


def handed_over(P):
    """P's rows, which the construction that built it must have kept."""
    assert P._rows is not None
    return P._rows


def lazily_packed(P):
    """P's rows, which a construction that closes nothing packs on first use."""
    assert P._rows is None
    return up_rows(P)


def test_the_kept_rows_are_the_packed_order_on_every_route():
    rng = random.Random(3202)
    built = []
    for P in [P for n in range(4) for P in labelled_posets(n)] + [
        random_poset(rng, rng.randrange(40)) for _ in range(20)
    ]:
        built += [
            (handed_over, FinPoset(P.leq)),
            (lazily_packed, FinPoset._trusted(P.leq)),
            (handed_over, FinPoset.from_covers(P.n, P.covers())),
            (handed_over, parse_poset(f"poset {P.n}\n" + "".join(f"{i} < {j}\n" for i, j in P.covers()))),
            # a label line sends the text to the line reader
            (handed_over, parse_poset(f"poset {P.n}\n" + "".join(f"{j} < {i}\n" for i, j in P.covers())
                                      + ("label 0 a\n" if P.n else ""))),
            (lazily_packed, pair_span(P, P, P.leq)[0]),
        ]
        pre = transitive_closure(P.leq | (np.arange(P.n)[:, None] % 2 == np.arange(P.n) % 2))
        built.append((lazily_packed, poset_reflection(pre)[0]))
    for n in range(13):
        built.append((handed_over, gen_poset(random.Random(n), n)))
    for rows_of, P in built:
        assert rows_of(P) == packed(P)
        assert up_rows(P) is P._rows


def test_monotone_maps_are_walked_on_the_kept_rows(monkeypatch):
    # both ends keep their rows: the walk reads the domain's as well as the codomain's
    X, Y = FinPoset.from_covers(2, [(0, 1)]), FinPoset.from_covers(3, [(0, 1), (0, 2)])
    monkeypatch.setattr(poset, "_bit_rows", lambda mat: pytest.fail("rows packed again"))
    assert [f.assign for f in poset.all_monotone_maps(X, Y)] == [(0, 0), (0, 1), (0, 2), (1, 1), (2, 2)]


def test_core_is_kept_on_its_object():
    obj = ExRegObject.from_pairs(FinPoset.chain(3), [(2, 1)])
    core = obj.core()
    assert core == meet(obj.E, opposite(obj.E))
    assert obj.core() is core


# -- indices at the boundary ---------------------------------------------------------


def test_an_index_that_is_not_an_integer_is_refused():
    C = FinPoset.chain(2)
    with pytest.raises(ValueError, match=r"^image index 0\.9 is not an integer$"):
        MonotoneMap(C, C, [0.9, 1.2])
    with pytest.raises(ValueError, match=r"^element 0\.5 is not an integer$"):
        subposet(C, [0.5, 1.7])
    with pytest.raises(ValueError, match=r"^pair index 1\.0 is not an integer$"):
        ExRegObject.from_pairs(C, [(1.0, 0)])
    with pytest.raises(ValueError, match=r"^pair index '1' is not an integer$"):
        FinPoset.from_covers(2, [(0, "1")])


def test_integers_of_every_kind_are_taken_as_python_ints():
    C = FinPoset.chain(3)
    f = MonotoneMap(C, C, np.array([0, 1, 2]))
    assert f.assign == (0, 1, 2) and all(type(a) is int for a in f.assign)
    sub, incl = subposet(C, np.array([2, 0]))
    assert incl.assign == (0, 2) and all(type(a) is int for a in incl.assign)
    obj = ExRegObject.from_pairs(C, [(np.int64(2), np.uint8(0))])
    assert obj.E.pairs.all()


@pytest.mark.parametrize("pair", [(0, 2), (2, 0), (-1, 0), (0, -1)])
def test_a_pair_out_of_range_keeps_its_message(pair):
    C = FinPoset.chain(2)
    message = rf"^pair \({pair[0]}, {pair[1]}\) is outside a 2 x 2 matrix$"
    with pytest.raises(ValueError, match=message):
        ExRegObject.from_pairs(C, [(0, 1), pair])
    with pytest.raises(ValueError, match=message):
        FinPoset.from_covers(2, [pair])
