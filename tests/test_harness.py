import hashlib
import random
import re

import numpy as np
import pytest

from posrel import equivalence, exreg, harness, poset, relation
from posrel.poset import MAX_ELEMENTS, FinPoset, MonotoneMap, TooLarge
from posrel.relation import Relation
from posrel.harness import (
    SIMPLEST_FLOAT,
    SUITES,
    ChoiceStream,
    UnknownSuite,
    gen_congruence,
    gen_exreg_morphism,
    gen_exreg_object,
    gen_map,
    gen_poset,
    gen_relation,
    gen_weakening_relation,
    run_suite,
)


LAWS = [
    "modular-law",
    "map-distributivity",
    "kernel-identity",
    "maps-theorem",
    "r4-redundancy",
    "pasting",
    "kernel-coinserter-duality",
    "coinserters-are-so",
    "effective-splitting",
    "quotient-bijection",
    "tabulation",
    "jointly-mono",
    "classification",
    "exreg-limits",
    "exreg-factorization",
    "so-stability",
    "exactness",
    "presentation",
    "universal-property",
]


def test_every_law_has_a_suite():
    assert sorted(SUITES) == sorted(LAWS)


def test_gen_poset_zero_is_empty():
    assert gen_poset(random.Random(0), 0).n == 0


def test_gen_poset_is_deterministic():
    a = gen_poset(random.Random(9), 5)
    b = gen_poset(random.Random(9), 5)
    assert a == b


def test_gen_congruence_example():
    D2 = FinPoset.discrete(2)
    rng = random.Random(0)
    # force a specific pair through the public closure constructor instead
    from posrel.exreg import ExRegObject

    obj = ExRegObject.from_pairs(D2, [(0, 1)])
    expected = np.eye(2, dtype=bool)
    expected[0, 1] = True
    assert (obj.E.pairs == expected).all()


def test_generators_produce_valid_instances():
    rng = random.Random(31)
    for _ in range(30):
        X = gen_poset(rng, rng.randrange(1, 6))
        Y = gen_poset(rng, rng.randrange(1, 6))
        assert gen_map(rng, X, Y) is not None
        assert gen_weakening_relation(rng, X, Y).is_weakening
        gen_relation(rng, X, Y)
        gen_congruence(rng, X)
        obj = gen_exreg_object(rng, 4)
        assert obj.E.is_weakening


def test_gen_exreg_morphism_roundtrips():
    from posrel.equivalence import morphism_from_map, realize_morphism

    rng = random.Random(33)
    for _ in range(20):
        A = gen_exreg_object(rng, 4)
        B = gen_exreg_object(rng, 4)
        R = gen_exreg_morphism(rng, A, B)
        assert morphism_from_map(R.src, R.tgt, realize_morphism(R)) == R


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("nonsense", 1, 0)


def test_zero_trials_vacuous_pass():
    report = run_suite("modular-law", 0, 7)
    assert report.passed and report.trials == 0


def test_modular_law_suite_clean():
    assert run_suite("modular-law", 60, 7).passed


def test_maps_theorem_suite_clean():
    assert run_suite("maps-theorem", 40, 7).passed


@pytest.mark.parametrize("name", sorted(SUITES))
def test_each_suite_short_run_clean(name):
    report = run_suite(name, 10, 1234)
    assert report.passed, report.render()


def test_reports_are_deterministic():
    a = run_suite("kernel-identity", 25, 5).render()
    b = run_suite("kernel-identity", 25, 5).render()
    assert a == b


def test_tabulation_trial_lists_each_hom_set_once(monkeypatch):
    calls = []
    all_morphisms = harness.equivalence.all_morphisms

    def counting(src, tgt):
        calls.append((src, tgt))
        return all_morphisms(src, tgt)

    monkeypatch.setattr(harness.equivalence, "all_morphisms", counting)
    report = harness.run_suite("tabulation", 20, 1)
    assert not report.failures
    assert len(calls) == 2 * 20  # hom(W, A) and hom(W, B) once per trial


def test_run_all_covers_registry():
    reports = [run_suite(name, 2, 3) for name in sorted(SUITES)]
    assert [r.name for r in reports] == sorted(SUITES)
    assert all(r.passed for r in reports)


# -- shrinking ----------------------------------------------------------------
#
# Fixture suites are registered in SUITES for one test each; every failure
# message states its instance, so the shrunk line shows what was reached.


@pytest.fixture
def fixture_suite(monkeypatch):
    def register(trial):
        monkeypatch.setitem(harness.SUITES, "shrink-fixture", ("fixture", trial))
        return "shrink-fixture"

    return register


def _has_chain(Q):
    return bool((Q.leq & ~np.eye(Q.n, dtype=bool)).any())


def _messages(report):
    """(original message without its seed tag, shrunk line) per failure."""
    return [(message.split("] ", 1)[1], shrunk) for _, message, shrunk in report.failures]


def test_shrink_requires_failing_input(fixture_suite):
    # a failure that does not recur on the recording re-run gets no shrunk line
    runs = []

    def fails_once(rng, cap):
        runs.append(rng.random())
        return "first run fails" if len(runs) == 1 else None

    report = run_suite(fixture_suite(fails_once), 1, 11)
    assert report.failures == [(0, "[seed 11:0] first run fails", None)]
    assert "shrunk" not in report.render()


def test_shrink_removes_isolated_point(fixture_suite):
    # failure: the poset contains a 2-chain; every other point is noise
    def chain(rng, cap):
        X = gen_poset(rng, rng.randrange(1, cap + 1))
        return f"chain in a {X.n}-element poset" if _has_chain(X) else None

    failures = _messages(run_suite(fixture_suite(chain), 40, 11))
    assert len(failures) >= 10
    assert any(message != "chain in a 2-element poset" for message, _ in failures)
    assert all(shrunk.endswith(" draws: chain in a 2-element poset") for _, shrunk in failures)


def test_shrink_minimal_unchanged(fixture_suite):
    # a 2-chain takes one draw, which neither deletion nor simplification keeps failing
    def chain_of_two(rng, cap):
        X = gen_poset(rng, 2)
        return f"chain {X.covers()}" if _has_chain(X) else None

    failures = _messages(run_suite(fixture_suite(chain_of_two), 20, 11))
    assert failures
    assert all(shrunk == f"1 draws: {message}" for message, shrunk in failures)


def test_shrink_relation_pairs(fixture_suite):
    D3 = FinPoset.discrete(3)

    def mentions_01(rng, cap):
        R = gen_relation(rng, D3, D3)
        return f"pairs {R.pair_list()}" if R.pairs[0, 1] else None

    failures = _messages(run_suite(fixture_suite(mentions_01), 30, 11))
    assert failures
    assert any(message != "pairs [(0, 1)]" for message, _ in failures)
    assert all(shrunk.endswith(" draws: pairs [(0, 1)]") for _, shrunk in failures)


def test_shrink_dict_components(fixture_suite):
    # a poset and a relation shrink together in one trial
    D2 = FinPoset.discrete(2)

    def poset_and_pair(rng, cap):
        X = gen_poset(rng, rng.randrange(1, cap + 1))
        R = gen_relation(rng, D2, D2)
        if X.n >= 2 and R.pairs[0, 0]:
            return f"{X.n} elements, pairs {R.pair_list()}"
        return None

    failures = _messages(run_suite(fixture_suite(poset_and_pair), 30, 11))
    assert failures
    assert any(message != "2 elements, pairs [(0, 0)]" for message, _ in failures)
    assert all(shrunk.endswith(" draws: 2 elements, pairs [(0, 0)]") for _, shrunk in failures)


class LargeFailure(Exception):
    pass


class SmallFailure(Exception):
    pass


def test_shrink_keeps_the_failure_kind(fixture_suite):
    # every trial fails, one way from 4 elements on and another way below:
    # a shrunk line stays with the exception class, or the returned message, it began with
    def by_size(rng, cap):
        X = gen_poset(rng, rng.randrange(1, cap + 1))
        if X.n >= 4:
            raise LargeFailure(f"{X.n} elements")
        raise SmallFailure(f"{X.n} elements")

    failures = _messages(run_suite(fixture_suite(by_size), 20, 11))
    assert len(failures) == 20
    large = [shrunk for message, shrunk in failures if message.startswith("LargeFailure")]
    assert any(message == "LargeFailure: 5 elements" for message, _ in failures)
    assert large and all(s.endswith(" draws: LargeFailure: 4 elements") for s in large)
    small = [shrunk for message, shrunk in failures if message.startswith("SmallFailure")]
    assert small and all(s.endswith(" draws: SmallFailure: 1 elements") for s in small)

    def returns_when_large(rng, cap):
        X = gen_poset(rng, rng.randrange(1, cap + 1))
        if X.n >= 4:
            return f"{X.n} elements"
        raise SmallFailure(f"{X.n} elements")

    failures = _messages(run_suite(fixture_suite(returns_when_large), 20, 11))
    large = [shrunk for message, shrunk in failures if not message.startswith("SmallFailure")]
    assert large and all(s.endswith(" draws: 4 elements") for s in large)


def test_choice_stream_records_the_seeded_stream():
    ref, rng = random.Random("7:3"), ChoiceStream("7:3")
    draw = [
        lambda r: r.random(),
        lambda r: r.randrange(1, 6),
        lambda r: r.randrange(37),
        lambda r: r.getrandbits(9),
        lambda r: r.choice("abcde"),
    ]
    script = [draw[k % len(draw)] for k in range(200)]
    expected = [step(ref) for step in script]
    assert [step(rng) for step in script] == expected
    replay = ChoiceStream(replay=rng.draws)
    assert [step(replay) for step in script] == expected
    assert replay.draws == rng.draws


def test_choice_stream_replays_the_simplest_draw_for_an_unusable_one():
    rng = ChoiceStream(replay=[0.5, 3, 99, 0.25, 7])
    assert rng.getrandbits(4) == 0  # wrong kind
    assert rng.random() == SIMPLEST_FLOAT  # wrong kind
    assert rng.getrandbits(4) == 0  # too wide for 4 bits
    assert rng.random() == 0.25
    assert rng.getrandbits(3) == 7
    assert rng.random() == SIMPLEST_FLOAT and rng.getrandbits(3) == 0  # run out
    assert rng.draws == [0, SIMPLEST_FLOAT, 0, 0.25, 7, SIMPLEST_FLOAT, 0]
    assert SIMPLEST_FLOAT < 1.0 and SIMPLEST_FLOAT + 2.0**-53 == 1.0


def _forking_two_workers(monkeypatch):
    """``--jobs 2`` runs on two forked workers, which inherit the suites registered here."""
    import concurrent.futures
    import functools
    import multiprocessing
    import os

    monkeypatch.setattr(
        concurrent.futures,
        "ProcessPoolExecutor",
        functools.partial(
            concurrent.futures.ProcessPoolExecutor,
            mp_context=multiprocessing.get_context("fork"),
        ),
    )
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def test_failing_report_is_identical_across_runs_and_jobs(fixture_suite, monkeypatch):
    from test_formats_cli import run_cli

    D3 = FinPoset.discrete(3)

    def mentions_01(rng, cap):
        R = gen_relation(rng, D3, D3)
        return f"pairs {R.pair_list()}" if R.pairs[0, 1] else None

    fixture_suite(mentions_01)
    _forking_two_workers(monkeypatch)
    argv = ["harness", "run", "all", "--trials", "4", "--seed", "11"]
    first = run_cli(*argv)
    assert first[0] == 1 and "    shrunk: " in first[1]
    assert run_cli(*argv)[:2] == first[:2]
    assert run_cli(*argv, "--jobs", "2")[:2] == first[:2]


def _dropping_last_pair(make):
    def planted(*args):
        out = make(*args)
        pairs = out.pairs.copy()
        hits = np.argwhere(pairs)
        if len(hits):
            pairs[tuple(hits[-1])] = False
        return Relation(out.dom, out.cod, pairs)

    return planted


def test_planted_compose_bug_shrinks_to_small_carriers(fixture_suite, monkeypatch):
    # shaped like the modular-law suite, with the carrier sizes in the message
    def modular_law(rng, cap):
        X, Y, Z = (gen_poset(rng, rng.randrange(1, cap + 1)) for _ in range(3))
        P = gen_relation(rng, X, Y)
        Q = gen_relation(rng, Y, Z)
        S = gen_relation(rng, X, Z)
        if relation.check_modular_law(P, Q, S):
            return f"carriers {X.n} {Y.n} {Z.n}"
        return None

    monkeypatch.setattr(relation, "compose", _dropping_last_pair(relation.compose))
    report = run_suite(fixture_suite(modular_law), 40, 3)
    shrunk = [line for _, _, line in report.failures]
    assert len(shrunk) >= 10
    assert all(line is not None and " draws: carriers " in line for line in shrunk)
    largest = [max(map(int, line.split("carriers ")[1].split())) for line in shrunk]
    assert sum(n <= 3 for n in largest) * 2 >= len(largest)


def test_planted_compose_bug_fails_modular_law_with_its_witnesses(monkeypatch):
    monkeypatch.setattr(relation, "compose", _dropping_last_pair(relation.compose))
    failures = _messages(run_suite("modular-law", 20, 3))
    assert failures
    for message, _ in failures:
        assert re.fullmatch(r"modular law violated at \{'ML\*?': \(\d+, \d+\)(, 'ML\*': .*)?\}", message)


def test_planted_opposite_bug_fails_effective_splitting(monkeypatch):
    assert run_suite("effective-splitting", 20, 3).passed
    monkeypatch.setattr(relation, "opposite", _dropping_last_pair(relation.opposite))
    failures = _messages(run_suite("effective-splitting", 20, 3))
    assert len(failures) == 20
    identities = {"pE = p_*", "Ep° = p^*", "p_* E p^* = I_P", "p_* p^* = I_P", "p°p = E ∩ E°"}
    for message, shrunk in failures:
        assert set(message.split(", ")) <= identities
        assert shrunk.endswith(" draws: Ep° = p^*")


def test_exactness_trial_splits_the_closure_of_the_drawn_pairs(monkeypatch):
    # the congruence split is the one ExRegObject.from_pairs built from obj.E's
    # pair list and the two drawn pairs, from the same draws
    split = []
    real = harness.exreg.split_congruence
    monkeypatch.setattr(harness.exreg, "split_congruence", lambda obj, R: split.append(R) or real(obj, R))
    for seed in range(40):
        trial = ChoiceStream(seed)
        assert harness._trial_exactness(trial, 5) is None
        rng = ChoiceStream(seed)
        obj = gen_exreg_object(rng, 4)
        drawn = [(rng.randrange(obj.X.n), rng.randrange(obj.X.n)) for _ in range(2)]
        want = harness.exreg.ExRegObject.from_pairs(obj.X, obj.E.pair_list() + drawn).E.pairs
        assert np.array_equal(split[-1], want)
        assert trial.draws == rng.draws


def test_failure_reporting_includes_subseed():
    # a deliberately broken suite exercised through the public runner
    from posrel import harness

    def broken(rng, cap):
        return "always fails"

    harness.SUITES["broken-fixture"] = ("fixture", broken)
    try:
        report = run_suite("broken-fixture", 3, 99)
        assert not report.passed
        assert len(report.failures) == 3
        assert "[seed 99:0]" in report.failures[0][1]
        assert "broken-fixture" not in LAWS
    finally:
        del harness.SUITES["broken-fixture"]


def test_gen_map_past_the_enumeration_budget_draws_every_monotone_map(monkeypatch):
    X, Y = FinPoset.chain(2), FinPoset.chain(3)
    want = {f.assign for f in poset.all_monotone_maps(X, Y)}
    assert len(want) == 6  # of the 9 functions
    monkeypatch.setattr(poset, "MAX_MAPS", 2)
    rng = random.Random(5)
    drawn = [gen_map(rng, X, Y) for _ in range(200)]
    assert {f.assign for f in drawn} == want
    # a replay with no draws left gets the simplest, a constant map
    assert gen_map(ChoiceStream(replay=[]), X, Y).assign == (0, 0)


# -- the monotone-map sampler -------------------------------------------------


def _reversed(P):
    """P with its elements numbered backwards: a strict pair i < j becomes one with i > j."""
    return FinPoset(P.leq[::-1, ::-1])


def reference_gen_map(rng, X, Y):
    """``gen_map`` as it was before it shared ``poset.walk_monotone_maps``:
    the reference for its maps and for its exact sequence of draws."""
    order = poset.linear_extension(X)
    assign = [None] * X.n
    untried = []  # for each element of ``order`` given a value, the values not drawn yet
    while len(untried) < X.n:
        k = len(untried)
        x = order[k]
        below = [assign[j] for j in order[:k] if X.leq[j, x]]
        untried.append(np.flatnonzero(Y.leq[below].all(axis=0)).tolist())
        while untried and not untried[-1]:  # no value left here: redraw an earlier one
            untried.pop()
        if not untried:
            return None
        options = untried[-1]
        assign[order[len(untried) - 1]] = options.pop(rng.randrange(len(options)))
    return MonotoneMap(X, Y, assign)


def assert_same_as_reference(make_stream, X, Y):
    """gen_map and the reference give the same map from equal streams, and draw alike."""
    new, old = make_stream(), make_stream()
    f, g = gen_map(new, X, Y), reference_gen_map(old, X, Y)
    assert (f is None) == (g is None)
    assert f is None or f.assign == g.assign
    assert new.draws == old.draws


def test_gen_map_draws_valid_maps_without_enumerating(monkeypatch):
    def refuse(X, Y):
        raise AssertionError("gen_map enumerated a hom-set")

    monkeypatch.setattr(poset, "all_monotone_maps", refuse)
    rng = random.Random(41)
    for n in range(13):
        for _ in range(8):
            X = gen_poset(rng, n, p=rng.choice([0.1, 0.35, 0.7]))
            Y = gen_poset(rng, rng.randrange(1, 13), p=rng.choice([0.1, 0.35, 0.7]))
            if rng.random() < 0.5:
                X, Y = _reversed(X), _reversed(Y)
            f = gen_map(rng, X, Y)
            assert f.dom is X and f.cod is Y
            assert MonotoneMap(X, Y, f.assign) == f
            assert all(type(a) is int for a in f.assign)


def test_gen_map_reaches_every_map_of_small_hom_sets():
    from posrel.equivalence import all_posets_up_to
    from posrel.poset import all_monotone_maps

    posets = all_posets_up_to(3)
    posets += [R for P in posets if (R := _reversed(P)) != P]
    rng = random.Random(43)
    for X in posets:
        for Y in posets:
            want = {f.assign for f in all_monotone_maps(X, Y)}
            drawn = [gen_map(rng, X, Y) for _ in range(20 * len(want) + 1)]
            if want:
                assert {f.assign for f in drawn} == want
            else:  # from a non-empty poset to the empty one
                assert drawn == [None]


def test_gen_map_backtracks_out_of_dead_ends():
    from posrel.poset import all_monotone_maps

    # 1 and 2 below 0, into a 2-antichain: drawing different values for 1 and 2
    # leaves 0 with no value, so only the two constant maps remain
    X, Y = FinPoset.from_covers(3, [(1, 0), (2, 0)]), FinPoset.discrete(2)
    assert [f.assign for f in all_monotone_maps(X, Y)] == [(0, 0, 0), (1, 1, 1)]
    rng = random.Random(47)
    assert {gen_map(rng, X, Y).assign for _ in range(50)} == {(0, 0, 0), (1, 1, 1)}
    # the draws walk 1, 2, 0: 1 -> 0, 2 -> 1 is a dead end, 2 is redrawn as 0
    rng = ChoiceStream(replay=[0, 1])
    assert gen_map(rng, X, Y).assign == (0, 0, 0)
    assert rng.draws == [0, 1, 0, 0]
    for seed in range(50):
        assert_same_as_reference(lambda: ChoiceStream(seed), X, Y)
    for draws in ([], [0, 1], [1, 0], [0, 1, 1], [1, 0, 0, 1], [5, 7]):
        assert_same_as_reference(lambda: ChoiceStream(replay=draws), X, Y)


def test_gen_map_on_empty_posets():
    rng = random.Random(53)
    empty, two = FinPoset.discrete(0), FinPoset.chain(2)
    assert gen_map(rng, two, empty) is None
    assert gen_map(rng, empty, empty).assign == ()
    assert gen_map(rng, empty, two).assign == ()


def test_gen_map_replay_without_draws_takes_the_least_choices():
    rng = random.Random(59)
    for _ in range(30):
        X = gen_poset(rng, rng.randrange(0, 13))
        Y = _reversed(gen_poset(rng, rng.randrange(1, 13)))
        replay = ChoiceStream(replay=[])
        assert gen_map(replay, X, Y).assign == (0,) * X.n
        assert set(replay.draws) <= {0}
        assert len(replay.draws) == X.n  # one draw per element, none after the first map


def test_gen_map_draws_as_the_reference():
    rng = random.Random(67)
    for n in range(13):
        for _ in range(6):
            X = gen_poset(rng, n, p=rng.choice([0.1, 0.35, 0.7]))
            Y = gen_poset(rng, rng.randrange(0, 13), p=rng.choice([0.1, 0.35, 0.7]))
            for A, B in ((X, Y), (_reversed(X), _reversed(Y))):
                seed = rng.randrange(2**32)
                assert_same_as_reference(lambda: ChoiceStream(seed), A, B)
                recorded = ChoiceStream(seed)
                gen_map(recorded, A, B)
                cut = rng.randrange(len(recorded.draws) + 1)
                for draws in (recorded.draws, [], recorded.draws[:cut]):
                    assert_same_as_reference(lambda: ChoiceStream(replay=draws), A, B)


def test_planted_compose_bug_is_found_and_shrunk_at_bound_10(fixture_suite, monkeypatch):
    # shaped like the kernel-identity suite, with the carrier sizes in the message
    def kernel_identity(rng, cap):
        X = gen_poset(rng, rng.randrange(1, cap + 1))
        Y = gen_poset(rng, rng.randrange(1, cap + 1))
        if not relation.kernel_identity_check(gen_map(rng, X, Y)):
            return f"carriers {X.n} {Y.n}"
        return None

    assert run_suite(fixture_suite(kernel_identity), 20, 3, cap=10).passed
    monkeypatch.setattr(relation, "compose", _dropping_last_pair(relation.compose))
    report = run_suite(fixture_suite(kernel_identity), 20, 3, cap=10)
    failures = _messages(report)
    assert len(failures) == 20
    assert any(max(map(int, message.split()[1:])) > 3 for message, _ in failures)
    for _, shrunk in failures:
        assert shrunk is not None and " draws: carriers " in shrunk
        assert max(map(int, shrunk.split("carriers ")[1].split())) <= 3


# -- trial bodies that leave their laws to their constructions' cross-checks --
#
# Verbatim copies of six trial bodies as they were while they re-ran, on the
# same arguments, checks that their constructions cross-check themselves, or
# did other work twice: the references for the draws and outcomes of the
# bodies that replaced them.


def reference_trial_r4_redundancy(rng, cap):
    # every so-morphism is effective: the coinserter of its own kernel
    # congruence, up to the canonical comparison isomorphism
    X = gen_poset(rng, rng.randrange(1, cap + 1))
    Y = gen_poset(rng, rng.randrange(1, cap + 1))
    f = gen_map(rng, X, Y)
    e, _ = poset.image_factorize(f)
    K, k0, k1 = poset.kernel_congruence(e)
    q = poset.coinserter(k0, k1)
    if q.cod.n != e.cod.n:
        return "comparison carriers differ"
    h = [None] * q.cod.n
    for x in range(X.n):
        h[q.assign[x]] = e.assign[x]
    try:
        comparison = MonotoneMap(q.cod, e.cod, h)
    except poset.NotMonotone:
        return "comparison map is not monotone"
    if not poset.classify_map(comparison).is_iso or comparison.dom != q.cod:
        return "comparison map is not an isomorphism"
    if any(comparison.assign[q.assign[x]] != e.assign[x] for x in range(X.n)):
        return "comparison triangle does not commute"
    return None


def reference_trial_quotient_bijection(rng, cap):
    A = gen_exreg_object(rng, min(cap, 4))
    B = gen_exreg_object(rng, min(cap, 4))
    R = gen_exreg_morphism(rng, A, B)
    r = equivalence.realize_morphism(R)
    if equivalence.morphism_from_map(A, B, r) != R:
        return "morphism-to-map round trip failed"
    S = gen_exreg_morphism(rng, A, B)
    if exreg.hom_leq(R, S) != equivalence.realize_morphism(R).leq(
        equivalence.realize_morphism(S)
    ):
        return "hom order not preserved by realization"
    return None


def reference_trial_tabulation(rng, cap):
    A = gen_exreg_object(rng, 3)
    B = gen_exreg_object(rng, 3)
    raw = gen_relation(rng, A.X, B.X)
    phi = relation.compose(B.core(), relation.compose(raw, A.core()))
    tab = exreg.tabulate(phi, A, B)
    W = gen_exreg_object(rng, 3)
    to_B = equivalence.all_morphisms(W, B)
    for S0 in equivalence.all_morphisms(W, A):
        for S1 in to_B:
            cone = relation.compose(
                exreg.graph_of(S1), relation.opposite(exreg.graph_of(S0))
            )
            if not cone.leq(phi):
                continue
            H = exreg.tabulation_factor(tab, S0, S1)
            if exreg.compose_morphisms(tab.leg0, H) != S0:
                return "factorization does not recover the first leg"
            if exreg.compose_morphisms(tab.leg1, H) != S1:
                return "factorization does not recover the second leg"
    return None


def reference_trial_exreg_limits(rng, cap):
    A = gen_exreg_object(rng, 3)
    B = gen_exreg_object(rng, 3)
    C = gen_exreg_object(rng, 3)
    R = gen_exreg_morphism(rng, A, C)
    S = gen_exreg_morphism(rng, B, C)
    for kind, pos_ctor in (("pullback", poset.pullback), ("comma", poset.comma)):
        tab = exreg.limit(kind, R, S)
        rR, rS = equivalence.realize_morphism(R), equivalence.realize_morphism(S)
        P, _, _ = pos_ctor(rR, rS)
        Q, _ = equivalence.quotient_realize(tab.apex)
        if not poset.are_isomorphic(Q, P):
            return f"{kind} apex does not realize to the poset construction"
    prod = exreg.limit("product", A, B)
    QA, _ = equivalence.quotient_realize(A)
    QB, _ = equivalence.quotient_realize(B)
    P, _, _ = poset.product(QA, QB)
    Q, _ = equivalence.quotient_realize(prod.apex)
    if not poset.are_isomorphic(Q, P):
        return "product apex does not realize to the product of realizations"
    return None


def reference_trial_exreg_factorization(rng, cap):
    A = gen_exreg_object(rng, min(cap, 4))
    B = gen_exreg_object(rng, min(cap, 4))
    R = gen_exreg_morphism(rng, A, B)
    Q, M = exreg.factorize(R)
    if not exreg.classify(Q).is_so:
        return "first factor is not so"
    if not exreg.classify(M).is_ff:
        return "second factor is not ff"
    if exreg.compose_morphisms(M, Q) != R:
        return "factorization does not compose to the original"
    return None


def reference_trial_exactness(rng, cap):
    obj = gen_exreg_object(rng, min(cap, 4))
    n = obj.X.n
    extra = poset.pair_mask((n, n), [(rng.randrange(n), rng.randrange(n)) for _ in range(2)])
    # closed by squaring, so split_congruence checks R by another algorithm than R's own
    R = Relation(obj.X, obj.X, poset.transitive_closure(obj.E.pairs | extra))
    q, m = exreg.split_congruence(obj, R.pairs)
    if relation.compose(m.rel, q.lower) != R:
        return "legs do not compose to the congruence"
    if relation.compose(q.upper, q.lower) != R:
        return "kernel congruence of the quotient leg is not the congruence"
    if not exreg.classify(q).is_so:
        return "quotient leg is not so"
    return None


REFERENCE_TRIALS = {
    "r4-redundancy": reference_trial_r4_redundancy,
    "quotient-bijection": reference_trial_quotient_bijection,
    "tabulation": reference_trial_tabulation,
    "exreg-limits": reference_trial_exreg_limits,
    "exreg-factorization": reference_trial_exreg_factorization,
    "exactness": reference_trial_exactness,
}


@pytest.mark.parametrize("name", sorted(REFERENCE_TRIALS))
def test_trial_draws_and_decides_as_its_reference(name):
    _, trial = SUITES[name]
    for cap in range(1, 6):
        for seed in range(12):
            new, old = ChoiceStream(f"{cap}:{seed}"), ChoiceStream(f"{cap}:{seed}")
            assert trial(new, cap) == REFERENCE_TRIALS[name](old, cap)
            assert new.draws == old.draws


def test_tabulation_trial_factors_the_cones_of_its_reference(monkeypatch):
    factored = []
    tabulation_factor = exreg.tabulation_factor

    def recording(tab, S0, S1):
        factored.append((S0.lower.pairs.tobytes(), S1.lower.pairs.tobytes()))
        return tabulation_factor(tab, S0, S1)

    monkeypatch.setattr(exreg, "tabulation_factor", recording)
    _, trial = SUITES["tabulation"]
    total = 0
    for cap in range(1, 6):
        for seed in range(12):
            trial(ChoiceStream(f"{cap}:{seed}"), cap)
            new = factored.copy()
            factored.clear()
            reference_trial_tabulation(ChoiceStream(f"{cap}:{seed}"), cap)
            # the same included cones, each factored once, in the same order
            assert new == factored
            total += len(new)
            factored.clear()
    assert total


def test_run_all_factors_and_checks_as_many_morphisms_as_before(monkeypatch):
    calls = {"tabulation_factor": 0, "_check_morphism_laws": 0}
    for name in calls:
        def counting(*args, _name=name, _real=getattr(exreg, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(exreg, name, counting)
    # equivalence checks the laws of the morphisms it builds, in stacks, by its own import
    monkeypatch.setattr(equivalence, "_check_morphism_laws", exreg._check_morphism_laws)
    assert all(run_suite(name, 100, 1).passed for name in SUITES)
    # the counts of `harness run all --trials 100 --seed 1` before the stacked cone test
    assert calls == {"tabulation_factor": 390, "_check_morphism_laws": 1945}


def _factoring_the_tabulation_legs(tabulation_factor):
    """``tabulation_factor`` that factors the cone of the tabulation's own legs,
    whatever cone it is given: the identity of the apex."""
    return lambda tab, S0, S1: tabulation_factor(tab, tab.leg0, tab.leg1)


def _dropping_last_lower_pair(make):
    """``make`` with the last pair of its morphism's lower leg taken out, unchecked."""
    Morphism = exreg.ExRegMorphism
    drop = _dropping_last_pair(lambda rel: rel)

    def planted(*args):
        H = make(*args)
        return Morphism(H.src, H.tgt, drop(H.lower), H.upper)

    return planted


@pytest.mark.parametrize(
    "suite, name, plant, check",
    [
        ("exreg-factorization", "tabulation_factor", _factoring_the_tabulation_legs, "factorize"),
        ("tabulation", "validate_morphism", _dropping_last_lower_pair, "tabulation_factor"),
        ("exactness", "ExRegMorphism", _dropping_last_lower_pair, "split_congruence"),
    ],
)
def test_a_fault_in_a_construction_fails_its_suite_through_its_cross_checks(
    monkeypatch, suite, name, plant, check
):
    from test_formats_cli import run_cli

    argv = ["harness", "run", suite, "--trials", "20", "--seed", "1"]
    assert run_cli(*argv)[0] == 0
    monkeypatch.setattr(exreg, name, plant(getattr(exreg, name)))
    code, out, _ = run_cli(*argv)
    assert code == 1
    messages = [line.split("] ", 1)[1] for line in out.splitlines() if line.startswith("  trial ")]
    assert messages and all(m.startswith("CrossCheckFailed: ") for m in messages)
    assert any(m.startswith(f"CrossCheckFailed: {check}: ") for m in messages)


def test_a_bound_past_the_carrier_limit_is_refused_before_any_trial(fixture_suite):
    drawn = []
    name = fixture_suite(lambda rng, cap: drawn.append(cap))
    assert run_suite(name, 0, 1, MAX_ELEMENTS).passed
    with pytest.raises(TooLarge, match=f"bound {MAX_ELEMENTS + 1} exceeds the limit of {MAX_ELEMENTS}"):
        run_suite(name, 5, 1, MAX_ELEMENTS + 1)
    assert run_suite(name, 2, 1, 3).passed and drawn == [3, 3]


def test_a_bound_below_one_is_refused_before_any_trial(fixture_suite):
    drawn = []
    name = fixture_suite(lambda rng, cap: drawn.append(cap))
    # the least bound, as `harness run --bound` declares it
    assert run_suite(name, 1, 1, 1).passed and drawn == [1]
    for cap in (0, -1):
        with pytest.raises(poset.InputError, match=f"^bound must be at least 1, got {cap}$"):
            run_suite(name, 5, 1, cap)
    assert drawn == [1]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_refuses_a_bound_past_the_carrier_limit_with_exit_2(monkeypatch, jobs):
    from test_formats_cli import run_cli

    # a trial that runs fails at once, so none runs on an oversized carrier
    monkeypatch.setattr(harness, "SUITES", {name: ("", lambda rng, cap: "ran") for name in SUITES})
    _forking_two_workers(monkeypatch)
    code, out, err = run_cli("harness", "run", "all", "--bound", str(MAX_ELEMENTS + 1), "--jobs", jobs)
    assert (code, out) == (2, "")
    assert err == f"error: TooLarge: bound {MAX_ELEMENTS + 1} exceeds the limit of {MAX_ELEMENTS}\n"


@pytest.mark.parametrize("bound", [None, "5", "10", "12"])
def test_harness_run_all_stdout_is_pinned(bound):
    from test_formats_cli import run_cli

    # every suite passes at each bound, and a passing report carries no instance data
    argv = ["harness", "run", "all", "--trials", "100", "--seed", "1"]
    code, out, err = run_cli(*argv, *(["--bound", bound] if bound else []))
    assert code == 0, out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0922493dd299f41d0bc96b77d47b94bd22f9c9d7987c09b837407f72a9d2ed0f"
    )
