"""Every way from pairs to an order enters ``_close_rows`` through ``close_rows_with``:
``from_covers``, the ``.poset`` read, ``close_over`` (behind ``from_pairs``,
``coinserter`` and the ``.exreg`` object read) and ``gen_poset`` build what their
earlier forms (``closing_before.py``) built, with one closure pass each and none
when the order already holds every pair.  The monotone-map walk reads the domain's
kept rows, and the constructors refuse what they cannot build."""

import itertools
import random

import numpy as np
import pytest

import closing_before
from posrel import poset
from posrel.equivalence import all_posets_up_to_iso
from posrel.exreg import ExRegObject, NotCongruence
from posrel.formats import ParseError, _close_poset, parse_exreg, parse_poset
from posrel.harness import SIMPLEST_FLOAT, ChoiceStream, gen_poset
from posrel.poset import (
    FinPoset,
    MonotoneMap,
    TooLarge,
    all_monotone_maps,
    close_over,
    close_rows_with,
    closure,
    coinserter,
    hom_poset,
    linear_extension,
    make_poset,
    power,
    shortest_cyclic_prefix,
    walk_monotone_maps,
)

from test_poset import random_poset

CATALOGUE = [P for n in range(5) for P in all_posets_up_to_iso(n)]


def pair_lists(n, longest):
    """Every list of at most ``longest`` pairs of elements of an n-element carrier."""
    cells = list(itertools.product(range(n), repeat=2))
    return [list(c) for k in range(longest + 1) for c in itertools.product(cells, repeat=k)]


def small_pair_lists():
    """(n, pairs) for every list of at most three pairs on n <= 3, and of two on n = 4."""
    return [(n, pairs) for n in range(5) for pairs in pair_lists(n, 3 if n < 4 else 2)]


def seeded_pair_lists(seed, count):
    """(n, pairs) for n up to 40: under 2 n pairs or past 4 n (where they are packed as
    a mask), half of them turned up the numbering so that they close no cycle."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randrange(1, 41)
        m = rng.randrange(2 * n) if rng.random() < 0.5 else rng.randrange(4 * n + 1, 6 * n + 2)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
        if rng.random() < 0.5:
            pairs = [(min(p), max(p)) for p in pairs]
        out.append((n, pairs))
    return out


def built(make, *args):
    """What ``make(*args)`` gives: the poset's size, order, labels and kept rows, or
    the class, message and line of the error it raises."""
    try:
        P = make(*args)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)
    return P.n, P.leq.tobytes(), P.labels, P._rows


def columns(pairs):
    return [i for i, _ in pairs], [j for _, j in pairs]


# -- from_covers, the .poset read and shortest_cyclic_prefix ----------------------------


def test_from_covers_builds_as_its_reference():
    cases = small_pair_lists() + seeded_pair_lists(3301, 400)
    for n, pairs in cases:
        labels = [f"e{k}" for k in range(n)] if len(pairs) % 2 else None
        got = built(FinPoset.from_covers, n, pairs, labels)
        assert got == built(closing_before.FinPoset.from_covers, n, pairs, labels)
    assert {len(pairs) > 4 * n for n, pairs in cases} == {True, False}


def test_a_poset_read_closes_as_its_reference():
    kinds = set()
    for n, pairs in small_pair_lists() + seeded_pair_lists(3302, 400):
        rows, cols = columns(pairs)
        nos = [3 * k + 2 for k in range(len(pairs))]
        labels = [f"e{k}" for k in range(n)] if len(pairs) % 2 else None
        # the line reader hands over lists, the array reader numpy columns
        for r, c in ((rows, cols), (np.array(rows, np.intp), np.array(cols, np.intp))):
            got = built(_close_poset, n, r, c, nos, labels, "p.poset")
            assert got == built(closing_before._close_poset, n, r, c, nos, labels, "p.poset")
            kinds.add(got[0] if isinstance(got[0], type) else "ok")
    assert kinds == {"ok", ParseError}


def test_the_shortest_cyclic_prefix_is_its_references():
    seen = 0
    for n, pairs in small_pair_lists() + seeded_pair_lists(3303, 400):
        rows, cols = columns(pairs)
        leq, up, closing = closing_before.shortest_cyclic_prefix(n, rows, cols)
        reach, cyclic = close_rows_with([1 << v for v in range(n)], rows, cols)
        assert cyclic == (closing is not None)
        if not cyclic:
            assert list(reach) == up
            continue
        seen += 1
        assert shortest_cyclic_prefix(reach, rows, cols) == (up, closing)
        assert np.array_equal(poset._bool_rows(up), leq)
    assert seen > 100


def test_a_cyclic_file_is_refused_at_the_line_its_reference_gives():
    rng = random.Random(3304)
    for _ in range(200):
        n = rng.randrange(2, 30)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(1, 5 * n))]
        body = "".join(f"{i} < {j}\n" for i, j in pairs)
        # the array reader takes the bare lines, the line reader those after a comment
        for text in (f"poset {n}\n{body}", f"poset {n}\n# pairs\n{body}"):
            nos = [k + text.count("\n", 0, text.index(body)) + 1 for k in range(len(pairs))]
            want = built(closing_before._close_poset, n, *columns(pairs), nos, None, "c.poset")
            assert built(parse_poset, text, "c.poset") == want


# -- close_over -----------------------------------------------------------------------


def assert_closes_over_as_its_reference(X, pairs):
    for r, c in (columns(pairs), tuple(np.array(col, np.intp) for col in columns(pairs))):
        got, want = close_over(X, r, c), closing_before.close_over(X, r, c)
        assert np.array_equal(got, want)
        assert (got is X.leq) == (want is X.leq)


def test_close_over_closes_as_its_reference():
    for X in CATALOGUE:
        for pairs in pair_lists(X.n, 2):
            assert_closes_over_as_its_reference(X, pairs)
    rng = random.Random(3305)
    for _ in range(300):
        X = random_poset(rng, rng.randrange(1, 30))
        m = rng.randrange(2 * X.n) if rng.random() < 0.5 else rng.randrange(4 * X.n + 1, 6 * X.n)
        pairs = [(rng.randrange(X.n), rng.randrange(X.n)) for _ in range(m)]
        if rng.random() < 0.3:
            pairs = [(i, j) for i, j in pairs if X.leq[i, j]]  # inside the order: no pass
        assert_closes_over_as_its_reference(X, pairs)


# -- gen_poset ----------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(5))
def test_gen_poset_draws_and_builds_as_its_reference_on_every_edge_pattern(n):
    edges = n * (n - 1) // 2
    for pattern in range(1 << edges):
        # 0.0 draws an edge and the simplest float none, whatever p in (0, 1)
        draws = [0.0 if pattern >> k & 1 else SIMPLEST_FLOAT for k in range(edges)]
        new, old = ChoiceStream(replay=draws), ChoiceStream(replay=draws)
        assert built(gen_poset, new, n) == built(closing_before.gen_poset, old, n)
        assert new.draws == old.draws == draws


def test_gen_poset_draws_and_builds_as_its_reference_on_seeded_draws():
    for n in range(13):
        for seed in range(8):
            for p in (0.1, 0.35, 0.7):
                new, old = ChoiceStream(f"{n}:{seed}"), ChoiceStream(f"{n}:{seed}")
                assert built(gen_poset, new, n, p) == built(closing_before.gen_poset, old, n, p)
                assert new.draws == old.draws


# -- one pass per route ---------------------------------------------------------------------


def test_every_route_makes_one_closure_pass_and_none_inside_the_order(monkeypatch, tmp_path):
    passes = []
    close_rows = poset._close_rows
    monkeypatch.setattr(
        poset, "_close_rows", lambda succ: passes.append(len(succ)) or close_rows(succ)
    )

    def count(make, *args):
        del passes[:]
        make(*args)
        return len(passes)

    C = FinPoset.chain(3)
    D = FinPoset.discrete(2)
    (tmp_path / "c.poset").write_text("poset 3\n0 < 1\n1 < 2\n")
    (tmp_path / "d.poset").write_text("poset 3\n")
    exreg = str(tmp_path / "o.exreg")
    up = [(0, 1), (1, 2)] * 7  # 14 pairs: past 4 n, packed as a mask
    inside = [(0, 2), (1, 1)] * 7
    assert [
        count(FinPoset.from_covers, 3, [(0, 1)]),
        count(FinPoset.from_covers, 3, up),
        count(parse_poset, "poset 3\n0 < 1\n"),
        count(parse_poset, "poset 3\n# line reader\n0 < 1\n"),
        count(ExRegObject.from_pairs, C, [(2, 0)]),
        count(ExRegObject.from_pairs, C, [(2, 0)] * 13),
        count(coinserter, MonotoneMap(D, C, [2, 1]), MonotoneMap(D, C, [0, 0])),
        count(parse_exreg, "object d.poset\ncong 0 ~ 1\n", exreg),
        count(gen_poset, ChoiceStream(replay=[0.0]), 2),
    ] == [1] * 9
    # d.poset closes no pair; c.poset's one pass is the read of its own pairs
    assert [
        count(FinPoset.from_covers, 3, []),
        count(FinPoset.from_covers, 3, [(0, 0), (2, 2)] * 7),
        count(parse_poset, "poset 3\n"),
        count(ExRegObject.from_pairs, C, inside[:2]),
        count(ExRegObject.from_pairs, C, inside),
        count(coinserter, MonotoneMap(D, C, [0, 1]), MonotoneMap(D, C, [2, 1])),
        count(parse_exreg, "object d.poset\ncong 1 ~ 1\n", exreg),
        count(parse_exreg, "object c.poset\ncong 0 ~ 2\n", exreg) - 1,
        count(gen_poset, ChoiceStream(replay=[SIMPLEST_FLOAT]), 2),
    ] == [0] * 9


def test_rows_that_hold_every_pair_are_returned_themselves():
    up = (0b111, 0b110, 0b100)
    for pairs in ([], [(0, 2)], [(0, 1), (1, 2)] * 7):
        closed, cyclic = close_rows_with(up, *columns(pairs))
        assert closed is up and not cyclic
    closed, cyclic = close_rows_with(up, [2], [0])
    assert closed == [0b111] * 3 and cyclic


# -- the monotone-map walk --------------------------------------------------------------------


def walk_cases():
    rng = random.Random(3306)
    posets = [P for n in range(6) for P in all_posets_up_to_iso(n)]
    posets += [random_poset(rng, rng.randrange(0, 12)) for _ in range(200)]
    return rng, posets


def test_linear_extension_is_its_references_order():
    _, posets = walk_cases()
    for P in posets + [FinPoset.chain(300), FinPoset.discrete(300)]:
        assert linear_extension(P) == closing_before.linear_extension(P)


def test_the_walk_lists_and_draws_the_maps_as_its_reference():
    rng, posets = walk_cases()
    codomains = [P for P in posets if P.n <= 5]
    for X in [P for P in posets if P.n <= 4]:
        Y = rng.choice(codomains)
        first, want = (
            [f.assign for f in walk(X, Y, lambda options: options.pop(0))]
            for walk in (walk_monotone_maps, closing_before.walk_monotone_maps)
        )
        assert first == want
        assert [f.assign for f in all_monotone_maps(X, Y)] == sorted(first)
        seed = rng.random()
        drawn = []
        for walk in (walk_monotone_maps, closing_before.walk_monotone_maps):
            picks = random.Random(seed)
            maps = walk(X, Y, lambda options: options.pop(picks.randrange(len(options))))
            drawn.append(([f.assign for f in itertools.islice(maps, 5)], picks.getstate()))
        assert drawn[0] == drawn[1]


# -- the boundary ----------------------------------------------------------------------------------


def test_from_covers_takes_its_size_as_an_index():
    assert FinPoset.from_covers(np.int64(2), [(0, 1)]) == FinPoset.chain(2)
    # and so do discrete and chain
    for build in (lambda n: FinPoset.from_covers(n, []), FinPoset.discrete, FinPoset.chain):
        assert build(np.int64(3)) == build(3)
        with pytest.raises(ValueError, match=r"^element count must be at least 0, got -1$"):
            build(-1)
        with pytest.raises(ValueError, match=r"^element count 2\.5 is not an integer$"):
            build(2.5)


def test_make_poset_names_an_unknown_or_repeated_label():
    with pytest.raises(ValueError, match=r"^unknown label 'c'$"):
        make_poset("ab", [("a", "c")])
    with pytest.raises(ValueError, match=r"^label 'a' is listed twice$"):
        make_poset("aa", [("a", "a")])
    with pytest.raises(ValueError, match=r"^label 'b' is listed twice$"):
        make_poset(["a", "b", "b"], [])
    assert make_poset("ab", [("a", 1)]) == FinPoset.chain(2)
    # a numpy index is an index, not a label
    assert make_poset("ab", [(np.int64(0), np.uint8(1))]) == FinPoset.chain(2)


def test_a_power_past_the_carrier_limit_is_refused_before_its_order(monkeypatch):
    C2 = FinPoset.chain(2)
    # three monotone C2 -> C2 fill a limit of three
    monkeypatch.setattr(poset, "MAX_ELEMENTS", 3)
    assert power(C2, C2)[0].n == 3
    monkeypatch.setattr(poset, "MAX_ELEMENTS", 2)
    monkeypatch.setattr(poset, "pointwise_order", lambda maps, leq: pytest.fail("order built"))
    for build in (power, hom_poset):
        with pytest.raises(TooLarge, match=r"^power of 3 maps exceeds the limit of 2$"):
            build(C2, C2)


def test_an_object_is_transitive_exactly_when_it_equals_its_closure():
    rng = np.random.default_rng(3307)
    verdicts = set()
    for X in CATALOGUE:
        for _ in range(20):
            E = X.leq | (rng.random((X.n, X.n)) < 0.3)
            transitive = np.array_equal(closure(E), E)
            verdicts.add(transitive)
            if transitive:
                assert ExRegObject(X, E).E.pairs.tolist() == E.tolist()
            else:
                with pytest.raises(NotCongruence, match="^congruence is not transitive$"):
                    ExRegObject(X, E)
    assert verdicts == {True, False}
