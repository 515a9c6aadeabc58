"""The poset catalogue on up-set bit rows: ``_extensions`` hands each candidate over
as rows, ``_row_colours`` and ``_least_order`` refine and certify those rows, and a
``FinPoset`` is built only for the first candidate of each class.  The colours, the
certificate bytes and the catalogue are those of the numpy-era versions kept in
``catalogue_before.py``, on every candidate up to n = 7, on seeded relabellings at
n = 8 and on antichains and chains up to 9."""

import hashlib
import itertools
import random

import numpy as np
import pytest

import catalogue_before
from posrel import equivalence, poset
from posrel.equivalence import all_functions, all_posets_up_to, all_posets_up_to_iso
from posrel.poset import FinPoset, MonotoneMap, _bit_rows, _bool_rows, _extensions, canonical_certificate


def down_sets(P):
    """Every down-set of P as a mask, in increasing order, by testing every subset."""
    return [
        k for k in range(1 << P.n)
        if all(P.leq[j, i] <= (k >> j & 1) for i in range(P.n) if k >> i & 1 for j in range(P.n))
    ]


def extended(P, k):
    """P with a new maximal element above the down-set with mask k."""
    leq = np.eye(P.n + 1, dtype=bool)
    leq[:P.n, :P.n] = P.leq
    leq[:P.n, P.n] = [k >> i & 1 for i in range(P.n)]
    return leq


def assert_as_before(leq, up, down):
    """The rows are those of ``leq``, and the colours and the certificate are the
    numpy-era ones."""
    assert up == _bit_rows(leq) and down == _bit_rows(leq.T)
    assert poset._row_colours(up, down) == catalogue_before._refined_colours(leq)
    Q = FinPoset._trusted(leq, None, up)
    assert canonical_certificate(Q) == catalogue_before.canonical_certificate(Q)


@pytest.mark.parametrize("n", range(1, 8))
def test_every_candidate_gets_the_colours_and_certificate_it_had(n):
    for P in all_posets_up_to_iso(n - 1):
        candidates = list(_extensions(P))
        masks = down_sets(P)
        assert len(candidates) == len(masks)
        for (up, down), k in zip(candidates, masks):
            assert_as_before(extended(P, k), up, down)


@pytest.mark.parametrize("n", range(7))
def test_catalogue_is_the_one_built_before(n):
    got, want = all_posets_up_to_iso(n), catalogue_before._one_point_extensions(n)
    assert [P.leq.tobytes() for P in got] == [P.leq.tobytes() for P in want]
    assert all(P._rows == tuple(_bit_rows(P.leq)) for P in got)


def test_catalogue_at_7_is_pinned():
    catalogue = all_posets_up_to_iso(7)
    certificates = b"".join(canonical_certificate(P)[1] for P in catalogue)
    representatives = b"".join(P.leq.tobytes() for P in catalogue)
    assert hashlib.sha256(certificates).hexdigest() == (
        "b801b6db70fd16d846be3819c083e3e10a98c0e1d57a26ee8469d2af80f62cfc"
    )
    assert hashlib.sha256(representatives).hexdigest() == (
        "ccba9751a94b5fe51583e7272a0a9b6de3c2d756f4fabb8200c347c6200685ba"
    )


def test_relabelled_candidates_at_8_get_the_colours_and_certificate_they_had():
    rng = random.Random(3508)
    parents = all_posets_up_to_iso(7)
    for _ in range(150):
        P = rng.choice(parents)
        leq = extended(P, rng.choice(down_sets(P)))
        perm = rng.sample(range(8), 8)
        leq = leq[np.ix_(perm, perm)]
        assert_as_before(leq, _bit_rows(leq), _bit_rows(leq.T))


@pytest.mark.parametrize("n", range(10))
def test_antichains_and_chains_get_the_certificate_they_had(n):
    for P in (FinPoset.discrete(n), FinPoset.chain(n)):
        assert_as_before(P.leq, list(poset.up_rows(P)), _bit_rows(P.leq.T))


def crown(k, missing):
    """k minimal elements, each below every one of k maximal elements but ``missing``
    of them (the next ones, cyclically): the crown for missing = 1, k 2-chains side by
    side for missing = k - 1."""
    pairs = [(i, k + (i + d) % k) for i in range(k) for d in range(missing, k)]
    return FinPoset.from_covers(2 * k, pairs)


@pytest.mark.parametrize("k, missing", [(3, 1), (4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (5, 4)])
def test_classes_without_twins_get_the_certificate_they_had(k, missing):
    P = crown(k, missing)
    perm = random.Random(k * 10 + missing).sample(range(2 * k), 2 * k)
    for leq in (P.leq, P.leq[np.ix_(perm, perm)]):
        assert_as_before(leq, _bit_rows(leq), _bit_rows(leq.T))


@pytest.mark.parametrize("n, covers", [
    # an n = 8 candidate, and an order found among seeded random ones: the certificate
    # is wrong if the search places a cell of one twin group without splitting the
    # cells after it by its up-set
    (8, [(0, 2), (0, 5), (1, 3), (1, 4), (2, 4), (3, 5), (4, 6), (5, 7)]),
    (11, [(0, 3), (0, 9), (1, 6), (1, 9), (2, 3), (2, 5), (2, 7), (3, 6), (4, 5), (4, 6),
          (5, 9), (6, 8), (9, 10)]),
])
def test_a_cell_placed_whole_in_the_search_splits_the_cells_after_it(n, covers):
    P = FinPoset.from_covers(n, covers)
    rng = random.Random(3511)
    for _ in range(20):
        perm = rng.sample(range(n), n)
        leq = P.leq[np.ix_(perm, perm)]
        assert_as_before(leq, _bit_rows(leq), _bit_rows(leq.T))


def test_a_class_of_twins_is_read_in_one_labelling(monkeypatch):
    calls = []
    labelled = poset._labelled_matrix
    monkeypatch.setattr(poset, "_labelled_matrix", lambda *a: calls.append(a) or labelled(*a))
    identity = np.packbits(np.eye(9, dtype=bool)).tobytes()
    assert canonical_certificate(FinPoset.discrete(9)) == (9, identity)
    assert len(calls) == 1
    # two 2-chains side by side: the bottoms are one class, the tops another, no twins
    # among them; either bottom placed first gives the least row, and the rest follows
    calls.clear()
    canonical_certificate(FinPoset.from_covers(4, [(0, 2), (1, 3)]))
    assert len(calls) == 2


def test_one_poset_is_built_per_class(monkeypatch):
    built = []
    trusted = FinPoset._trusted.__func__
    monkeypatch.setattr(
        FinPoset, "_trusted", classmethod(lambda cls, *a: built.append(a) or trusted(cls, *a))
    )
    # the level itself, uncached; the levels below it come from the cache
    assert len(equivalence._one_point_extensions.__wrapped__(5)) == 63
    assert len(built) == 63


@pytest.mark.parametrize("n", range(10))
def test_bool_rows_inverts_bit_rows(n):
    rng = np.random.default_rng(3500 + n)
    seeded = [rng.random((n, n)) < 0.4 for _ in range(20)]
    for mat in [np.eye(n, dtype=bool), np.ones((n, n), bool)] + seeded:
        rows = _bit_rows(mat)
        got = _bool_rows(rows)
        assert got.dtype == bool and got.shape == (n, n) and (got == mat).all()
        assert _bit_rows(got) == rows


@pytest.mark.parametrize("build", [all_posets_up_to_iso, all_posets_up_to])
def test_catalogue_takes_its_size_as_an_index_before_the_cache(build, monkeypatch):
    assert list(build(np.int64(3))) == list(build(3))
    monkeypatch.setattr(equivalence, "_one_point_extensions", lambda n: pytest.fail("cache read"))
    with pytest.raises(ValueError, match="^element count must be at least 0, got -1$"):
        build(-1)
    with pytest.raises(ValueError, match=r"^element count 2\.0 is not an integer$"):
        build(2.0)


def test_all_functions_refuses_a_domain_that_is_not_discrete_and_validates_no_map(monkeypatch):
    with pytest.raises(ValueError, match="^all_functions needs a discrete domain$"):
        all_functions(FinPoset.chain(2), FinPoset.discrete(1))
    A, B = FinPoset.discrete(3), FinPoset.chain(3)
    want = [MonotoneMap(A, B, assign).assign for assign in itertools.product(range(3), repeat=3)]
    monkeypatch.setattr(MonotoneMap, "__init__", lambda *a: pytest.fail("validating constructor"))
    got = all_functions(A, B)
    assert [f.assign for f in got] == want
    assert len(got) == 27 and all(f.dom is A and f.cod is B for f in got)
