import argparse
import concurrent.futures
import gc
import hashlib
import io
import os
import random
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from posrel import formats, poset
from posrel.poset import FinPoset, MonotoneMap, are_isomorphic, transitive_closure
from posrel.relation import Relation
from posrel.exreg import ExRegObject, gamma_morphism, gamma_object
from posrel.formats import (
    MAX_ELEMENTS,
    ParseError,
    dot_poset,
    dot_relation,
    load_exreg,
    load_poset,
    load_rel,
    parse_poset,
    rel_refs,
    serialize_exreg_morphism,
    serialize_exreg_object,
    serialize_poset,
    serialize_rel,
)
from posrel.cli import main

from test_poset import random_monotone, random_poset

C2 = FinPoset.chain(2)
D2 = FinPoset.discrete(2)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# -- formats ------------------------------------------------------------------


def test_poset_roundtrip_random():
    rng = random.Random(19)
    for _ in range(40):
        P = random_poset(rng, rng.randrange(0, 7))
        assert parse_poset(serialize_poset(P)) == P


def test_poset_labels_roundtrip():
    P = FinPoset.from_covers(2, [(0, 1)], labels=["lo", "hi"])
    Q = parse_poset(serialize_poset(P))
    assert Q.labels == ("lo", "hi")


@pytest.mark.parametrize("label", ["a b", "", "x#y", " a", "a\n", "a\u2028b", "#", 7])
def test_serialize_poset_refuses_a_label_that_would_not_read_back(label):
    P = FinPoset.from_covers(3, [(0, 1)], labels=["lo", label, "hi"])
    with pytest.raises(ValueError, match=f"^label {re.escape(repr(label))} of element 1 "):
        serialize_poset(P)


def test_serialize_poset_writes_labels_that_read_back_exactly():
    labels = ["é", 'a"b', "\\", "-1", "1", "x<y"]
    P = FinPoset.from_covers(6, [(0, 1), (2, 3)], labels=labels)
    assert parse_poset(serialize_poset(P)).labels == tuple(labels)


def test_poset_parse_errors_have_positions():
    with pytest.raises(ParseError) as exc:
        parse_poset("poset 2\n0 < 5\n", "bad.poset")
    assert "bad.poset:2" in str(exc.value)


def test_poset_cycle_rejected(tmp_path):
    path = write(tmp_path, "cycle.poset", "poset 2\n0 < 1\n1 < 0\n")
    with pytest.raises(ParseError):
        load_poset(path)


def test_rel_roundtrip(tmp_path):
    rng = random.Random(21)
    write(tmp_path, "a.poset", serialize_poset(C2))
    write(tmp_path, "b.poset", serialize_poset(D2))
    for _ in range(20):
        mat = np.array(
            [[rng.random() < 0.5 for _ in range(2)] for _ in range(2)], dtype=bool
        )
        R = Relation(C2, D2, mat)
        path = write(tmp_path, "r.rel", serialize_rel(R, "a.poset", "b.poset"))
        assert load_rel(path) == R


def test_exreg_object_roundtrip(tmp_path):
    write(tmp_path, "d2.poset", serialize_poset(D2))
    obj = ExRegObject.from_pairs(D2, [(0, 1)])
    path = write(tmp_path, "obj.exreg", serialize_exreg_object(obj, "d2.poset"))
    assert load_exreg(path) == obj


def test_exreg_morphism_roundtrip(tmp_path):
    rng = random.Random(23)
    for k in range(10):
        X = random_poset(rng, rng.randrange(1, 4))
        Y = random_poset(rng, rng.randrange(1, 4))
        f = random_monotone(rng, X, Y)
        R = gamma_morphism(f)
        write(tmp_path, f"x{k}.poset", serialize_poset(X))
        write(tmp_path, f"y{k}.poset", serialize_poset(Y))
        write(
            tmp_path,
            f"sx{k}.exreg",
            serialize_exreg_object(R.src, f"x{k}.poset"),
        )
        write(
            tmp_path,
            f"sy{k}.exreg",
            serialize_exreg_object(R.tgt, f"y{k}.poset"),
        )
        path = write(
            tmp_path,
            f"m{k}.exreg",
            serialize_exreg_morphism(R, f"sx{k}.exreg", f"sy{k}.exreg"),
        )
        assert load_exreg(path) == R


def test_comments_and_blank_lines_ignored():
    P = parse_poset("# chain\n\nposet 2\n0 < 1  # generator\n")
    assert P == C2


# Files the parse-error cases refer to: two carriers, a carrier with an error,
# two Γ-objects, an object file with an error and a morphism file.
REFERENCED_FILES = {
    "a.poset": "poset 2\n0 < 1\n",
    "d.poset": "poset 3\n",
    "bad.poset": "poset 2\n0 < 5\n",
    "o.exreg": "object d.poset\n",
    "c.exreg": "object a.poset\n",
    "bad.exreg": "object d.poset\ncong 0 ~ 9\n",
    "id.exreg": "morphism c.exreg c.exreg\nlower 0 ~ 0\nlower 0 ~ 1\nlower 1 ~ 1\n"
    "upper 0 ~ 0\nupper 0 ~ 1\nupper 1 ~ 1\n",
}

REL = "rel a.poset d.poset\n"  # a 2 x 3 relation
MOR = "morphism o.exreg c.exreg\n"  # lower legs 3 x 2, upper legs 2 x 3

# (case, parsed file, its text, (file, line, message) of the ParseError)
PARSE_ERRORS = [
    # parse_poset
    ("poset-empty", "x.poset", "", ("x.poset", 1, "empty poset file")),
    ("poset-only-comments", "x.poset", "# nothing\n\n  \n", ("x.poset", 1, "empty poset file")),
    ("poset-header-word", "x.poset", "\n# c\npose 2\n",
     ("x.poset", 3, "expected header 'poset <n>'")),
    ("poset-header-short", "x.poset", "poset\n", ("x.poset", 1, "expected header 'poset <n>'")),
    ("poset-header-long", "x.poset", "poset 2 3\n", ("x.poset", 1, "expected header 'poset <n>'")),
    ("poset-header-int", "x.poset", "poset two\n",
     ("x.poset", 1, "expected an integer, got 'two'")),
    ("poset-too-large", "x.poset", f"poset {MAX_ELEMENTS + 1}\n0 < x\n",
     ("x.poset", 1, f"poset of {MAX_ELEMENTS + 1} elements exceeds the limit of {MAX_ELEMENTS}")),
    ("poset-negative", "x.poset", "poset -1\n",
     ("x.poset", 1, "element count must be at least 0, got -1")),
    ("poset-negative-with-pair", "x.poset", "poset -1\n0 < 0\n",
     ("x.poset", 1, "element count must be at least 0, got -1")),
    ("poset-pair-first-int", "x.poset", "poset 2\ny < 0\n",
     ("x.poset", 2, "expected an integer, got 'y'")),
    ("poset-pair-second-int", "x.poset", "poset 2\n0 < 1.0\n",
     ("x.poset", 2, "expected an integer, got '1.0'")),
    ("poset-pair-both-ints", "x.poset", "poset 2\ny < z\n",
     ("x.poset", 2, "expected an integer, got 'y'")),
    ("poset-pair-high", "x.poset", "poset 2\n0 < 2\n", ("x.poset", 2, "element out of range 0..1")),
    ("poset-pair-negative", "x.poset", "poset 2\n-1 < 0\n",
     ("x.poset", 2, "element out of range 0..1")),
    ("poset-label-int", "x.poset", "poset 2\nlabel top 1\n",
     ("x.poset", 2, "expected an integer, got 'top'")),
    ("poset-label-range", "x.poset", "poset 2\nlabel 2 top\n",
     ("x.poset", 2, "element out of range 0..1")),
    ("poset-unrecognized", "x.poset", "poset 2\n0 <= 1\n",
     ("x.poset", 2, "unrecognized line '0 <= 1'")),
    ("poset-label-short", "x.poset", "poset 2\nlabel 0\n",
     ("x.poset", 2, "unrecognized line 'label 0'")),
    ("poset-cycle-at-last-line", "x.poset", "poset 2\n0 < 1\n1 < 0\n# end\n\n",
     ("x.poset", 3, "elements 0 and 1 form a 2-cycle")),
    ("poset-cycle-then-label", "x.poset", "poset 3\n0 < 1\n1 < 0\nlabel 2 top\n",
     ("x.poset", 3, "elements 0 and 1 form a 2-cycle")),
    ("poset-cycle-closed-mid-file", "x.poset",
     "poset 5\n0 < 1\n1 < 2\n3 < 4\n\n2 < 0  # closes\n4 < 3\n2 < 3\nlabel 0 a\n",
     ("x.poset", 6, "elements 0 and 1 form a 2-cycle")),
    ("poset-range-before-int", "x.poset", "poset 2\n0 < 5\n0 < x\n",
     ("x.poset", 2, "element out of range 0..1")),
    ("poset-int-before-range", "x.poset", "poset 2\n0 < x\n0 < 5\n",
     ("x.poset", 2, "expected an integer, got 'x'")),
    ("poset-unrecognized-before-range", "x.poset", "poset 2\nnope\n0 < 5\n",
     ("x.poset", 2, "unrecognized line 'nope'")),
    ("poset-tabs-and-comments", "x.poset", "poset\t2  # two\n0\t<\t1\n1\t<\t2\t# bad\n",
     ("x.poset", 3, "element out of range 0..1")),
    ("poset-tabs-unrecognized", "x.poset", "poset 2\n0\t<=\t1  # c\n",
     ("x.poset", 2, "unrecognized line '0\\t<=\\t1'")),
    # parse_rel
    ("rel-empty", "x.rel", "# nothing\n", ("x.rel", 1, "empty relation file")),
    ("rel-header-short", "x.rel", "rel a.poset\n",
     ("x.rel", 1, "expected header 'rel <domfile> <codfile>'")),
    ("rel-header-word", "x.rel", "\nrelation a.poset d.poset\n",
     ("x.rel", 2, "expected header 'rel <domfile> <codfile>'")),
    ("rel-dom-file", "x.rel", "rel bad.poset d.poset\n",
     ("bad.poset", 2, "element out of range 0..1")),
    ("rel-cod-file", "x.rel", "rel a.poset bad.poset\n0 ~ x\n",
     ("bad.poset", 2, "element out of range 0..1")),
    # a NUL in a referenced file name is refused at the header that names it
    ("rel-dom-nul", "x.rel", "# r\nrel a\0.poset d.poset\n",
     ("x.rel", 2, "file name holds a NUL byte")),
    ("rel-cod-nul", "x.rel", "rel a.poset a\0.poset\n", ("x.rel", 1, "file name holds a NUL byte")),
    ("rel-short-line", "x.rel", REL + "0 ~\n", ("x.rel", 2, "expected 'i ~ j', got '0 ~'")),
    ("rel-wrong-separator", "x.rel", REL + "0 - 1\n",
     ("x.rel", 2, "expected 'i ~ j', got '0 - 1'")),
    ("rel-first-int", "x.rel", REL + "x ~ 1\n", ("x.rel", 2, "expected an integer, got 'x'")),
    ("rel-second-int", "x.rel", REL + "0 ~ y\n", ("x.rel", 2, "expected an integer, got 'y'")),
    ("rel-dom-range", "x.rel", REL + "0 ~ 0\n2 ~ 0\n", ("x.rel", 3, "pair element out of range")),
    ("rel-cod-range", "x.rel", REL + "1 ~ 3\n", ("x.rel", 2, "pair element out of range")),
    ("rel-negative", "x.rel", REL + "0 ~ -1\n", ("x.rel", 2, "pair element out of range")),
    ("rel-range-before-int", "x.rel", REL + "0 ~ 3\nx ~ 0\n",
     ("x.rel", 2, "pair element out of range")),
    ("rel-int-before-shape", "x.rel", REL + "x ~ 0\n0 ~\n",
     ("x.rel", 2, "expected an integer, got 'x'")),
    ("rel-shape-before-range", "x.rel", REL + "0 ~ 0 ~ 0\n0 ~ 3\n",
     ("x.rel", 2, "expected 'i ~ j', got '0 ~ 0 ~ 0'")),
    ("rel-tabs-and-comments", "x.rel", "rel\ta.poset\td.poset # r\n1\t~\t2\n\n1\t~\t3 # bad\n",
     ("x.rel", 4, "pair element out of range")),
    # parse_exreg
    ("exreg-empty", "x.exreg", "\n\n", ("x.exreg", 1, "empty file")),
    ("exreg-header-word", "x.exreg", "thing d.poset\n",
     ("x.exreg", 1, "expected 'object <posetfile>' or 'morphism <src> <tgt>'")),
    ("exreg-object-short", "x.exreg", "# o\nobject\n",
     ("x.exreg", 2, "expected 'object <posetfile>' or 'morphism <src> <tgt>'")),
    ("exreg-object-long", "x.exreg", "object d.poset a.poset\n",
     ("x.exreg", 1, "expected 'object <posetfile>' or 'morphism <src> <tgt>'")),
    ("exreg-morphism-short", "x.exreg", "morphism o.exreg\n",
     ("x.exreg", 1, "expected 'object <posetfile>' or 'morphism <src> <tgt>'")),
    ("exreg-object-carrier-file", "x.exreg", "object bad.poset\n",
     ("bad.poset", 2, "element out of range 0..1")),
    ("exreg-object-nul", "x.exreg", "\nobject a\0.poset\n",
     ("x.exreg", 2, "file name holds a NUL byte")),
    ("exreg-source-nul", "x.exreg", "morphism o\0.exreg c.exreg\n",
     ("x.exreg", 1, "file name holds a NUL byte")),
    ("exreg-target-nul", "x.exreg", "# m\nmorphism o.exreg c.exreg\0\n",
     ("x.exreg", 2, "file name holds a NUL byte")),
    ("exreg-cong-first-int", "x.exreg", "object d.poset\ncong x ~ 1\n",
     ("x.exreg", 2, "expected an integer, got 'x'")),
    ("exreg-cong-second-int", "x.exreg", "object d.poset\ncong 0 ~ 0x1\n",
     ("x.exreg", 2, "expected an integer, got '0x1'")),
    ("exreg-cong-range", "x.exreg", "object d.poset\ncong 0 ~ 1\ncong 0 ~ 3\n",
     ("x.exreg", 3, "pair element out of range")),
    ("exreg-cong-negative", "x.exreg", "object d.poset\ncong -1 ~ 0\n",
     ("x.exreg", 2, "pair element out of range")),
    ("exreg-object-unrecognized", "x.exreg", "object d.poset\ncong 0 ~ 1\nfoo\nbar\n",
     ("x.exreg", 3, "unrecognized line 'foo'")),
    ("exreg-cong-separator", "x.exreg", "object d.poset\ncong 0 - 1\n",
     ("x.exreg", 2, "unrecognized line 'cong 0 - 1'")),
    ("exreg-object-with-legs", "x.exreg", "object d.poset\nlower 0 ~ 1\n",
     ("x.exreg", 2, "unrecognized line 'lower 0 ~ 1'")),
    ("exreg-cong-range-after-unrecognized", "x.exreg", "object d.poset\nfoo\ncong 0 ~ 3\n",
     ("x.exreg", 3, "pair element out of range")),
    ("exreg-cong-int-after-unrecognized", "x.exreg", "object d.poset\nfoo\ncong 0 ~ x\n",
     ("x.exreg", 3, "expected an integer, got 'x'")),
    ("exreg-cong-range-before-int", "x.exreg", "object d.poset\ncong 0 ~ 3\ncong x ~ 0\n",
     ("x.exreg", 2, "pair element out of range")),
    ("exreg-cong-tabs-and-comments", "x.exreg",
     "object\td.poset\t# o\n\ncong\t0\t~\t1  # ok\ncong\t2 ~\t3\n",
     ("x.exreg", 4, "pair element out of range")),
    ("exreg-source-file", "x.exreg", "morphism bad.exreg c.exreg\n",
     ("bad.exreg", 2, "pair element out of range")),
    ("exreg-target-file", "x.exreg", "morphism o.exreg bad.exreg\nlower x ~ 0\n",
     ("bad.exreg", 2, "pair element out of range")),
    ("exreg-morphism-endpoint", "x.exreg", "\nmorphism id.exreg c.exreg\n",
     ("x.exreg", 2, "morphism endpoints must be object files")),
    ("exreg-lower-first-int", "x.exreg", MOR + "lower x ~ 0\n",
     ("x.exreg", 2, "expected an integer, got 'x'")),
    ("exreg-lower-second-int", "x.exreg", MOR + "lower 0 ~ y\n",
     ("x.exreg", 2, "expected an integer, got 'y'")),
    ("exreg-lower-range", "x.exreg", MOR + "lower 0 ~ 0\nlower 0 ~ 2\n",
     ("x.exreg", 3, "pair element out of range")),
    ("exreg-lower-range-source", "x.exreg", MOR + "lower 3 ~ 0\n",
     ("x.exreg", 2, "pair element out of range")),
    ("exreg-upper-int", "x.exreg", MOR + "upper 0 ~ z\n",
     ("x.exreg", 2, "expected an integer, got 'z'")),
    ("exreg-upper-range", "x.exreg", MOR + "upper 2 ~ 0\n",
     ("x.exreg", 2, "pair element out of range")),
    ("exreg-upper-range-source", "x.exreg", MOR + "upper 0 ~ 3\n",
     ("x.exreg", 2, "pair element out of range")),
    ("exreg-morphism-unrecognized", "x.exreg", MOR + "lower 0 ~ 0\nupper 0 ~ 0\nfoo\nbar\n",
     ("x.exreg", 4, "unrecognized line 'foo'")),
    ("exreg-leg-separator", "x.exreg", MOR + "upper 0 < 0\n",
     ("x.exreg", 2, "unrecognized line 'upper 0 < 0'")),
    ("exreg-morphism-with-cong", "x.exreg", MOR + "cong 0 ~ 0\n",
     ("x.exreg", 2, "unrecognized line 'cong 0 ~ 0'")),
    # every lower line is read before any upper line, and every leg line
    # before an unrecognized line is reported
    ("exreg-lower-error-beats-earlier-upper-error", "x.exreg",
     MOR + "upper 5 ~ 0\nupper x ~ 0\nlower 0 ~ 5\n",
     ("x.exreg", 4, "pair element out of range")),
    ("exreg-lower-int-beats-earlier-upper-range", "x.exreg", MOR + "upper 5 ~ 0\nlower x ~ 0\n",
     ("x.exreg", 3, "expected an integer, got 'x'")),
    ("exreg-first-upper-error", "x.exreg", MOR + "upper 5 ~ 0\nupper x ~ 0\n",
     ("x.exreg", 2, "pair element out of range")),
    ("exreg-upper-error-beats-earlier-unrecognized", "x.exreg", MOR + "bogus\nupper 0 ~ x\n",
     ("x.exreg", 3, "expected an integer, got 'x'")),
    ("exreg-lower-error-beats-earlier-unrecognized", "x.exreg", MOR + "bogus\nlower 9 ~ 0\n",
     ("x.exreg", 3, "pair element out of range")),
    ("exreg-legs-tabs-and-comments", "x.exreg",
     "morphism\to.exreg  c.exreg\t# m\nlower\t0\t~\t0\n# gap\nupper\t1 ~ 3  # bad\n",
     ("x.exreg", 4, "pair element out of range")),
]


@pytest.mark.parametrize(
    "name, text, error", [case[1:] for case in PARSE_ERRORS], ids=[case[0] for case in PARSE_ERRORS]
)
def test_parse_errors_are_pinned(tmp_path, name, text, error):
    for ref, body in REFERENCED_FILES.items():
        write(tmp_path, ref, body)
    path = write(tmp_path, name, text)
    load = {".poset": load_poset, ".rel": load_rel, ".exreg": load_exreg}[os.path.splitext(name)[1]]
    with pytest.raises(ParseError) as exc:
        load(path)
    file, line, message = error
    assert str(exc.value) == f"{tmp_path / file}:{line}: {message}"
    assert (exc.value.path, exc.value.line_no) == (str(tmp_path / file), line)


@pytest.mark.parametrize("seed", range(4))
def test_poset_cycle_is_reported_at_the_pair_line_that_closes_it(seed):
    # oracle: add the pair lines one at a time until the order breaks
    rng = random.Random(seed)
    for _ in range(25):
        n = rng.randrange(2, 7)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(1, 12))]
        closing = None
        for k in range(1, len(pairs) + 1):
            try:
                FinPoset.from_covers(n, pairs[:k])
            except ValueError as exc:
                closing = (k + 1, str(exc))  # the header is line 1
                break
        text = f"poset {n}\n" + "".join(f"{i} < {j}\n" for i, j in pairs) + "label 0 z\n"
        if closing is None:
            assert parse_poset(text).n == n
        else:
            with pytest.raises(ParseError) as err:
                parse_poset(text, "x.poset")
            assert (err.value.line_no, str(err.value)) == (closing[0], f"x.poset:{closing[0]}: {closing[1]}")


def test_poset_cycle_line_and_message_match_the_squaring_closure_on_larger_files():
    # oracle: the first prefix of the pair lines whose squaring closure the
    # validating constructor refuses, and the 2-cycle it names
    rng = np.random.default_rng(2304)
    for _ in range(40):
        n = int(rng.integers(2, 41))
        rank = rng.permutation(n)
        pairs = [tuple(map(int, rng.choice(n, 2, replace=False))) for _ in range(2 * n)]
        # mostly pairs going up a random order, so cycles close late and are long
        pairs = [(i, j) if rank[i] < rank[j] or rng.random() < 0.1 else (j, i) for i, j in pairs]
        closing = None
        for k in range(1, len(pairs) + 1):
            try:
                FinPoset(transitive_closure(poset.pair_mask((n, n), pairs[:k])))
            except ValueError as exc:
                closing = (k + 1, str(exc))
                break
        text = f"poset {n}\n" + "".join(f"{i} < {j}\n" for i, j in pairs)
        if closing is None:
            assert parse_poset(text).n == n
            continue
        with pytest.raises(ParseError) as err:
            parse_poset(text, "x.poset")
        assert (err.value.line_no, str(err.value)) == (closing[0], f"x.poset:{closing[0]}: {closing[1]}")
        assert type(err.value.__cause__) is poset.AntisymmetryViolation


def test_a_cyclic_2048_chain_is_refused_without_squaring(monkeypatch):
    calls = []
    monkeypatch.setattr(poset, "bool_mat", lambda a, b: calls.append(1))
    n = MAX_ELEMENTS
    text = f"poset {n}\n" + "".join(f"{i} < {i + 1}\n" for i in range(n - 1)) + f"{n - 1} < 0\n"
    with pytest.raises(ParseError) as err:
        parse_poset(text, "cyc.poset")
    assert str(err.value) == f"cyc.poset:{n + 1}: elements 0 and 1 form a 2-cycle"
    assert calls == []


def test_a_cyclic_poset_read_builds_no_poset(monkeypatch):
    # the probes of the cycle search close and test their prefixes and build nothing
    calls = []
    fill = FinPoset._fill
    monkeypatch.setattr(FinPoset, "_fill", lambda *args: calls.append(1) or fill(*args))
    n = 64
    text = f"poset {n}\n" + "".join(f"{i} < {i + 1}\n" for i in range(n - 1))
    for back in ("40 < 3\n", f"{n - 1} < 0\n"):
        with pytest.raises(ParseError):
            parse_poset(text + back + "1 < 0\n")
    assert calls == []
    assert parse_poset(text).n == n and calls == [1]


def test_absolute_file_names_are_read_as_they_are(tmp_path):
    carrier = write(tmp_path, "a.poset", "poset 2\n0 < 1\n")
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    R = load_rel(write(elsewhere, "r.rel", f"rel {carrier} {carrier}\n0 ~ 1\n"))
    assert R.dom == C2 and R.cod == C2 and int(R.pairs.sum()) == 1
    assert load_exreg(write(elsewhere, "o.exreg", f"object {carrier}\n")).X == C2


def test_serializing_a_2048_chain_makes_no_bool_mat_call(monkeypatch):
    calls = []
    monkeypatch.setattr(poset, "bool_mat", lambda a, b: calls.append(1))
    n = MAX_ELEMENTS
    text = serialize_poset(FinPoset.chain(n))
    assert text == f"poset {n}\n" + "".join(f"{i} < {i + 1}\n" for i in range(n - 1))
    assert calls == []


def test_referenced_files_parse(tmp_path):
    # the files the error cases refer to are valid, apart from the bad ones
    for ref, body in REFERENCED_FILES.items():
        write(tmp_path, ref, body)
    assert load_rel(write(tmp_path, "r.rel", REL + "0 ~ 2\n")).pairs.sum() == 1
    assert load_exreg(str(tmp_path / "id.exreg")).src == load_exreg(str(tmp_path / "c.exreg"))


@pytest.mark.parametrize(
    "files, checked, line",
    [
        # a file that refers to itself, as source and as target
        ({"x.exreg": "morphism x.exreg c.exreg\n"}, "x.exreg", 1),
        ({"x.exreg": "# m\nmorphism c.exreg x.exreg\n"}, "x.exreg", 2),
        # a two-file cycle, reported in the file that is checked
        ({"x.exreg": "morphism o.exreg y.exreg\n", "y.exreg": "\nmorphism x.exreg o.exreg\n"},
         "x.exreg", 1),
        ({"x.exreg": "morphism o.exreg y.exreg\n", "y.exreg": "\nmorphism x.exreg o.exreg\n"},
         "y.exreg", 2),
        # a valid morphism file, and one whose own endpoints are missing
        ({"x.exreg": "morphism id.exreg c.exreg\n"}, "x.exreg", 1),
        ({"x.exreg": "morphism o.exreg z.exreg\n", "z.exreg": "morphism no.exreg no.exreg\n"},
         "x.exreg", 1),
    ],
)
def test_a_morphism_endpoint_is_refused_before_it_is_loaded(tmp_path, files, checked, line):
    for ref, body in {**REFERENCED_FILES, **files}.items():
        write(tmp_path, ref, body)
    path = str(tmp_path / checked)
    code, out, err = run_cli("exreg", "check", path)
    assert (code, out) == (2, "")
    assert err == f"error: ParseError: {path}:{line}: morphism endpoints must be object files\n"


@pytest.mark.parametrize(
    "files, checked, error",
    [
        ({"x.poset": b"poset 2\n\xff\n"}, "x.poset", ("x.poset", 2, "ff")),
        ({"x.rel": b"rel a.poset a.poset\r\n0 ~ 0\r\n\r\n# \xc3\xa9\n1 ~ \xe2\x82\n"}, "x.rel",
         ("x.rel", 5, "e2")),
        ({"x.exreg": b"\xfeobject a.poset\n"}, "x.exreg", ("x.exreg", 1, "fe")),
        # a file that the checked file refers to
        ({"x.rel": b"rel a.poset bin.poset\n", "bin.poset": b"\x00\xff"}, "x.rel",
         ("bin.poset", 1, "ff")),
        ({"x.exreg": b"object bin.poset\n", "bin.poset": b"poset 1\n\x80"}, "x.exreg",
         ("bin.poset", 2, "80")),
        ({"x.exreg": b"morphism c.exreg bin.exreg\n", "bin.exreg": b"\xc0\n"}, "x.exreg",
         ("bin.exreg", 1, "c0")),
    ],
    ids=["poset", "rel-crlf", "exreg", "rel-carrier", "object-carrier", "morphism-endpoint"],
)
def test_a_file_that_is_not_utf8_is_a_parse_error(tmp_path, files, checked, error):
    for ref, body in REFERENCED_FILES.items():
        write(tmp_path, ref, body)
    for ref, body in files.items():
        (tmp_path / ref).write_bytes(body)
    verb = os.path.splitext(checked)[1][1:]
    code, out, err = run_cli(verb, "check", str(tmp_path / checked))
    file, line, byte = error
    assert (code, out) == (2, "")
    assert err == f"error: ParseError: {tmp_path / file}:{line}: not UTF-8 text: byte 0x{byte}\n"


def run_cli_in_ascii_locale(*argv):
    """``python -m posrel.cli *argv`` in a subprocess under an ASCII locale."""
    import posrel

    src = os.path.dirname(os.path.dirname(os.path.abspath(posrel.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # neither UTF-8 mode nor locale coercion steps in
    env = dict(os.environ, PYTHONPATH=path, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    return subprocess.run(
        [sys.executable, "-m", "posrel.cli", *argv], capture_output=True, env=env, timeout=120
    )


def test_input_files_are_read_as_utf8_whatever_the_locale(tmp_path):
    (tmp_path / "c.poset").write_bytes("# ordre partiel é\nposet 2\n0 < 1\n".encode())
    proc = run_cli_in_ascii_locale("poset", "check", str(tmp_path / "c.poset"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"poset 2\n0 < 1\n", b"")


def test_output_is_written_as_utf8_whatever_the_locale(tmp_path):
    text = "poset 2\n0 < 1\nlabel 0 é\n"
    (tmp_path / "e.poset").write_bytes(text.encode())
    (tmp_path / "e.exreg").write_bytes(b"object e.poset\n")
    dot = dot_poset(load_poset(str(tmp_path / "e.poset"))).encode()
    assert "é".encode() in dot

    proc = run_cli_in_ascii_locale(
        "poset", "check", str(tmp_path / "e.poset"), "--dot", str(tmp_path / "check.dot"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, text.encode(), b"")
    assert (tmp_path / "check.dot").read_bytes() == dot

    proc = run_cli_in_ascii_locale("dot", str(tmp_path / "e.poset"), "-o", str(tmp_path / "o.dot"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert (tmp_path / "o.dot").read_bytes() == dot

    proc = run_cli_in_ascii_locale("dot", str(tmp_path / "e.poset"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, dot, b"")

    out_dir = tmp_path / "limit"
    e = str(tmp_path / "e.exreg")
    proc = run_cli_in_ascii_locale("limit", "product", e, e, "--out-dir", str(out_dir))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert (out_dir / "src0.poset").read_bytes() == text.encode()


def test_dot_outputs_mention_all_elements():
    text = dot_poset(FinPoset.from_covers(3, [(0, 1), (1, 2)]))
    assert text.count("->") == 2  # transitive edge reduced away
    rel_text = dot_relation(Relation.from_pairs(C2, D2, [(0, 0)]))
    assert "d0 -> c0" in rel_text


def test_dot_labels_escape_backslashes_and_double_quotes(tmp_path):
    P = parse_poset('poset 4\n0 < 1\nlabel 0 a"b\nlabel 1 c\\\nlabel 2 \\"\nlabel 3 é\n')
    nodes = ['n0 [label="a\\"b"];', 'n1 [label="c\\\\"];', 'n2 [label="\\\\\\""];', 'n3 [label="é"];']
    assert [line.strip() for line in dot_poset(P).splitlines()[2:6]] == nodes
    rel = dot_relation(Relation.full(P, FinPoset.from_covers(2, [], labels=['x"', "y"])))
    assert '  c0 [label="x\\""];' in rel.splitlines() and '  d1 [label="c\\\\"];' in rel.splitlines()
    # labels without either character are written as they are
    Q = FinPoset.from_covers(2, [(0, 1)], labels=["lo", "hi"])
    assert dot_poset(Q) == 'digraph poset {\n  rankdir=BT;\n  n0 [label="lo"];\n  n1 [label="hi"];\n  n0 -> n1;\n}\n'
    path = write(tmp_path, "q.poset", 'poset 1\nlabel 0 a"b\n')
    assert run_cli("dot", path) == (0, 'digraph poset {\n  rankdir=BT;\n  n0 [label="a\\"b"];\n}\n', "")



# -- serializers against the pair-loop serializers they replaced --------------


def _pairs(mat):
    return [(int(i), int(j)) for i, j in np.argwhere(mat)]


def loop_serialize_poset(P):
    lt = P.leq & ~np.eye(P.n, dtype=bool)
    out = [f"poset {P.n}"]
    for i, j in _pairs(lt & ~((lt.astype(int) @ lt.astype(int)) > 0)):
        out.append(f"{i} < {j}")
    if P.labels is not None:
        for i, lab in enumerate(P.labels):
            if lab != str(i):
                out.append(f"label {i} {lab}")
    return "\n".join(out) + "\n"


def loop_serialize_rel(R, dom_ref, cod_ref):
    out = [f"rel {dom_ref} {cod_ref}"]
    for i, j in _pairs(R.pairs):
        out.append(f"{i} ~ {j}")
    return "\n".join(out) + "\n"


def loop_serialize_exreg_object(obj, poset_ref):
    out = [f"object {poset_ref}"]
    for i, j in _pairs(obj.E.pairs):
        if not obj.X.leq[i, j]:
            out.append(f"cong {i} ~ {j}")
    return "\n".join(out) + "\n"


def loop_serialize_exreg_morphism(R, src_ref, tgt_ref):
    out = [f"morphism {src_ref} {tgt_ref}"]
    for i, j in _pairs(R.lower.pairs):
        out.append(f"lower {i} ~ {j}")
    for j, i in _pairs(R.upper.pairs):
        out.append(f"upper {j} ~ {i}")
    return "\n".join(out) + "\n"


def random_carrier(rng, n):
    """A seeded n-element poset of random density, some elements labelled."""
    p = rng.choice([0.0, 0.05, 0.3])
    mat = np.array([[i < j and rng.random() < p for j in range(n)] for i in range(n)], bool)
    labels = [rng.choice([str(i), f"x{i}", "top"]) for i in range(n)]
    return FinPoset(transitive_closure(mat), labels=labels if rng.random() < 0.5 else None)


def random_congruence_object(rng, X):
    count = rng.randrange(4) if X.n else 0
    pairs = [(rng.randrange(X.n), rng.randrange(X.n)) for _ in range(count)]
    return ExRegObject.from_pairs(X, pairs)


def check_serialized(tmp_path, name, text, oracle_text, load, value):
    assert text == oracle_text
    assert load(write(tmp_path, name, text)) == value


@pytest.mark.parametrize("seed", range(6))
def test_serializers_match_the_pair_loops_and_reparse(tmp_path, seed):
    from posrel.exreg import limit

    rng = random.Random(seed)
    sizes = [0, 1, rng.randrange(2, 10), rng.randrange(30, 61)]
    for k, n in enumerate(sizes):
        X = random_carrier(rng, n)
        check_serialized(tmp_path, f"x{k}.poset", serialize_poset(X), loop_serialize_poset(X),
                         load_poset, X)
        parsed = load_poset(str(tmp_path / f"x{k}.poset"))
        assert [parsed.label(i) for i in range(n)] == [X.label(i) for i in range(n)]
        obj = random_congruence_object(rng, X)
        check_serialized(tmp_path, f"o{k}.exreg", serialize_exreg_object(obj, f"x{k}.poset"),
                         loop_serialize_exreg_object(obj, f"x{k}.poset"), load_exreg, obj)
        m = rng.randrange(0, 61)
        Y = random_carrier(rng, m)
        write(tmp_path, f"y{k}.poset", serialize_poset(Y))
        R = Relation(X, Y, np.array([[rng.random() < 0.4 for _ in range(m)] for _ in range(n)],
                                    bool).reshape(n, m))
        check_serialized(tmp_path, f"r{k}.rel", serialize_rel(R, f"x{k}.poset", f"y{k}.poset"),
                         loop_serialize_rel(R, f"x{k}.poset", f"y{k}.poset"), load_rel, R)
        # Γ-morphisms: the rank map into a chain, and the identity into a
        # stronger order
        ranks = [int(r) - 1 for r in X.leq.sum(axis=0)]
        stronger = FinPoset(transitive_closure(X.leq | random_carrier(rng, n).leq))
        for target, assign in ((FinPoset.chain(max(n, 1)), ranks), (stronger, range(n))):
            f = gamma_morphism(MonotoneMap(X, target, assign))
            write(tmp_path, "g.exreg", serialize_exreg_object(f.src, f"x{k}.poset"))
            write(tmp_path, "t.poset", serialize_poset(target))
            write(tmp_path, "t.exreg", serialize_exreg_object(f.tgt, "t.poset"))
            check_serialized(tmp_path, f"f{k}.exreg",
                             serialize_exreg_morphism(f, "g.exreg", "t.exreg"),
                             loop_serialize_exreg_morphism(f, "g.exreg", "t.exreg"), load_exreg, f)
    # a product of objects with congruence: an apex of up to 49 elements with
    # its congruence, and legs that are not Γ-morphisms
    A = random_congruence_object(rng, random_carrier(rng, rng.randrange(2, 8)))
    B = random_congruence_object(rng, random_carrier(rng, rng.randrange(2, 8)))
    tab = limit("product", A, B)
    for name, obj in (("a", A), ("b", B), ("apex", tab.apex)):
        write(tmp_path, f"{name}.poset", serialize_poset(obj.X))
        check_serialized(tmp_path, f"{name}.exreg", serialize_exreg_object(obj, f"{name}.poset"),
                         loop_serialize_exreg_object(obj, f"{name}.poset"), load_exreg, obj)
    for leg, end in ((tab.leg0, "a"), (tab.leg1, "b")):
        check_serialized(tmp_path, "leg.exreg",
                         serialize_exreg_morphism(leg, "apex.exreg", f"{end}.exreg"),
                         loop_serialize_exreg_morphism(leg, "apex.exreg", f"{end}.exreg"),
                         load_exreg, leg)


def test_dot_relation_lists_every_pair_in_order():
    R = Relation(C2, FinPoset.discrete(3), np.array([[1, 0, 1], [0, 1, 1]], bool))
    assert dot_relation(R, "r") == (
        "digraph r {\n  rankdir=LR;\n"
        '  d0 [label="0"];\n  d1 [label="1"];\n'
        '  c0 [label="0"];\n  c1 [label="1"];\n  c2 [label="2"];\n'
        "  d0 -> c0;\n  d0 -> c2;\n  d1 -> c1;\n  d1 -> c2;\n}\n"
    )


# -- cli ----------------------------------------------------------------------


def test_cli_poset_check_ok(tmp_path):
    path = write(tmp_path, "c2.poset", "poset 2\n0 < 1\n")
    code, out, err = run_cli("poset", "check", path)
    assert code == 0
    assert out == "poset 2\n0 < 1\n"


def test_cli_poset_check_cycle_exits_2(tmp_path):
    path = write(tmp_path, "bad.poset", "poset 2\n0 < 1\n1 < 0\n")
    code, out, err = run_cli("poset", "check", path)
    assert code == 2
    assert "2-cycle" in err


def test_cli_poset_check_of_a_directory_exits_2(tmp_path):
    code, out, err = run_cli("poset", "check", str(tmp_path))
    assert code == 2
    assert err.startswith("error: IsADirectoryError: ") and err.count("\n") == 1
    assert out == ""


@pytest.mark.parametrize("verb, name, text", [
    (["rel", "check"], "r.rel", "rel a.poset a\0.poset\n0 ~ 1\n"),
    (["exreg", "check"], "o.exreg", "object a\0.poset\n"),
    (["exreg", "check"], "m.exreg", "morphism o.exreg o\0.exreg\n"),
])
def test_cli_refuses_a_file_name_holding_a_nul_with_exit_2(tmp_path, verb, name, text):
    write(tmp_path, "a.poset", "poset 2\n0 < 1\n")
    write(tmp_path, "o.exreg", "object a.poset\n")
    path = write(tmp_path, name, text)
    code, out, err = run_cli(*verb, path)
    assert (code, out) == (2, "")
    assert err == f"error: ParseError: {path}:1: file name holds a NUL byte\n"


def test_cli_rejects_an_oversized_poset_before_allocating(tmp_path):
    # a header alone: the size is checked before any n x n matrix is built
    path = write(tmp_path, "huge.poset", "poset 1000000000\n")
    code, out, err = run_cli("poset", "check", path)
    assert code == 2
    assert err == (
        f"error: ParseError: {path}:1: poset of 1000000000 elements"
        f" exceeds the limit of {MAX_ELEMENTS}\n"
    )
    assert out == ""


def test_cli_rel_check(tmp_path):
    write(tmp_path, "a.poset", "poset 2\n0 < 1\n")
    path = write(tmp_path, "r.rel", "rel a.poset a.poset\n0 ~ 0\n0 ~ 1\n1 ~ 1\n")
    code, out, err = run_cli("rel", "check", path)
    assert code == 0
    assert "weakening-closed: yes" in out


def test_cli_rel_check_reads_the_header_after_comments(tmp_path):
    write(tmp_path, "a.poset", "poset 2\n0 < 1\n")
    (tmp_path / "sub").mkdir()
    write(tmp_path / "sub", "b.poset", "poset 1\n")
    text = "# a comment\n\n  rel a.poset sub/b.poset  # header\n0 ~ 0\n"
    path = write(tmp_path, "r.rel", text)
    assert rel_refs(path) == ("a.poset", "sub/b.poset")
    code, out, err = run_cli("rel", "check", path)
    assert code == 0
    assert out.splitlines()[:2] == ["rel a.poset sub/b.poset", "0 ~ 0"]


@pytest.mark.parametrize(
    "text, message",
    [
        ("# only a comment\n\n", "1: empty relation file"),
        ("\n# x\nrel a.poset\n", "3: expected header 'rel <domfile> <codfile>'"),
    ],
)
def test_rel_refs_reports_a_bad_header(tmp_path, text, message):
    path = write(tmp_path, "r.rel", text)
    with pytest.raises(ParseError) as exc:
        rel_refs(path)
    assert str(exc.value) == f"{path}:{message}"


def test_cli_unknown_verb_rejected():
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 2


# argv that main rejects or answers with help: the full parser is the reference
FRONT_END_EXITS = [
    [],
    ["-h"],
    ["-h", "harness"],
    ["bogus"],
    ["harness"],
    ["harness", "-h"],
    ["harness", "run", "-h"],
    ["harness", "run"],
    ["harness", "run", "modular-law", "--trials", "x"],
    ["harness", "run", "modular-law", "--trials", "-1"],
    ["harness", "run", "modular-law", "--bogus"],
    ["harness", "run", "modular-law", "extra"],
    ["equiv", "nope"],
    ["poset", "check"],
    ["poset", "bogus"],
    ["exreg", "-h"],
    ["exreg", "limit", "-h"],
    ["limit", "bogus"],
    ["dot"],
]


@pytest.mark.parametrize("argv", FRONT_END_EXITS, ids=lambda argv: "_".join(argv) or "none")
def test_cli_help_and_errors_match_the_full_parser(capsys, monkeypatch, argv):
    from posrel import cli

    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as via_main:
        run_cli(*argv)
    seen = capsys.readouterr()
    with pytest.raises(SystemExit) as via_parser:
        cli.build_parser().parse_args(argv)
    assert capsys.readouterr() == seen
    assert via_main.value.code == via_parser.value.code


@pytest.mark.parametrize(
    "argv",
    [
        ["harness", "run", "modular-law", "--trials", "1", "--seed", "0"],
        ["harness", "run", "all", "--jobs", "2", "--bound", "3"],
        ["equiv", "set-pos", "--bound", "3"],
        ["poset", "check", "p.poset", "--dot", "p.dot"],
        ["rel", "check", "r.rel"],
        ["exreg", "check", "o.exreg"],
        ["exreg", "limit", "product", "a.exreg", "b.exreg", "--out-dir", "out"],
        ["limit", "terminal"],
        ["tabulate", "r.rel", "a.exreg", "b.exreg"],
        ["dot", "p.poset", "-o", "p.dot"],
    ],
    ids="_".join,
)
def test_cli_parse_gives_the_full_parsers_namespace(monkeypatch, argv):
    from posrel import cli

    args = cli.parse(argv)
    assert args == cli.build_parser().parse_args(argv)
    assert args.verb == argv[0]
    monkeypatch.setattr(sys, "argv", ["posrel", *argv])
    assert cli.parse() == args


def test_cli_builds_only_the_named_verbs_parser(construction_inputs, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run_cli("harness", "run", "modular-law", "--trials", "1", "--seed", "0")[0] == 0
    assert built == ["posrel harness run"]
    built.clear()
    q, sy = str(construction_inputs / "q.exreg"), str(construction_inputs / "sy.exreg")
    assert run_cli("exreg", "limit", "product", q, sy)[0] == 0
    assert built == ["posrel exreg limit"]
    built.clear()
    assert run_cli("limit", "terminal")[0] == 0
    assert built == ["posrel limit"]


def test_cli_tabulate_roundtrip(tmp_path):
    write(tmp_path, "d2.poset", "poset 2\n")
    obj_path = write(tmp_path, "obj.exreg", "object d2.poset\ncong 0 ~ 1\n")
    phi_path = write(tmp_path, "phi.rel", "rel d2.poset d2.poset\n0 ~ 0\n0 ~ 1\n1 ~ 1\n")
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        "exreg", "tabulate", phi_path, obj_path, obj_path, "--out-dir", str(out_dir)
    )
    assert code == 0, err
    apex = load_exreg(str(out_dir / "apex.exreg"))
    assert isinstance(apex, ExRegObject)
    # output is self-contained: legs re-parse against the emitted objects
    leg0 = load_exreg(str(out_dir / "leg0.exreg"))
    leg1 = load_exreg(str(out_dir / "leg1.exreg"))
    assert leg0.src == apex and leg1.src == apex


def test_cli_factorize_and_reparse(tmp_path):
    write(tmp_path, "x.poset", "poset 2\n")
    write(tmp_path, "y.poset", "poset 2\n0 < 1\n")
    write(tmp_path, "sx.exreg", "object x.poset\n")
    write(tmp_path, "sy.exreg", "object y.poset\n")
    f = MonotoneMap(D2, C2, [0, 1])
    R = gamma_morphism(f)
    m_path = write(
        tmp_path, "m.exreg", serialize_exreg_morphism(R, "sx.exreg", "sy.exreg")
    )
    out_dir = tmp_path / "fact"
    code, out, err = run_cli("factorize", m_path, "--out-dir", str(out_dir))
    assert code == 0, err
    so = load_exreg(str(out_dir / "so-part.exreg"))
    ff = load_exreg(str(out_dir / "ff-part.exreg"))
    from posrel.exreg import classify, compose_morphisms

    assert classify(so).is_so and classify(ff).is_ff
    assert compose_morphisms(ff, so) == R


def test_cli_limit_terminal(tmp_path):
    out_dir = tmp_path / "term"
    code, out, err = run_cli("limit", "terminal", "--out-dir", str(out_dir))
    assert code == 0
    T = load_exreg(str(out_dir / "terminal.exreg"))
    assert T.X.n == 1


def test_cli_split(tmp_path):
    write(tmp_path, "d2.poset", "poset 2\n")
    obj_path = write(tmp_path, "obj.exreg", "object d2.poset\n")
    cong_path = write(
        tmp_path, "r.rel", "rel d2.poset d2.poset\n0 ~ 0\n0 ~ 1\n1 ~ 1\n"
    )
    out_dir = tmp_path / "split"
    code, out, err = run_cli("split", obj_path, cong_path, "--out-dir", str(out_dir))
    assert code == 0, err
    through = load_exreg(str(out_dir / "through.exreg"))
    from posrel.equivalence import quotient_realize

    Q, _ = quotient_realize(through)
    assert Q == C2


def test_cli_split_rejects_non_congruence(tmp_path):
    write(tmp_path, "c2.poset", "poset 2\n0 < 1\n")
    obj_path = write(tmp_path, "obj.exreg", "object c2.poset\n")
    cong_path = write(tmp_path, "r.rel", "rel c2.poset c2.poset\n0 ~ 0\n1 ~ 1\n")
    code, out, err = run_cli("split", obj_path, cong_path)
    assert code == 2
    assert "NotCongruence" in err


def test_cli_present(tmp_path):
    write(tmp_path, "d2.poset", "poset 2\n")
    obj_path = write(tmp_path, "obj.exreg", "object d2.poset\ncong 0 ~ 1\n")
    out_dir = tmp_path / "pres"
    code, out, err = run_cli("present", obj_path, "--out-dir", str(out_dir))
    assert code == 0, err
    kernel = load_exreg(str(out_dir / "kernel.exreg"))
    assert kernel.X.n == 3
    quotient = load_exreg(str(out_dir / "quotient.exreg"))
    from posrel.exreg import classify

    assert classify(quotient).is_so


def test_cli_equiv_discrete():
    code, out, err = run_cli("equiv", "discrete", "--bound", "3")
    assert code == 0
    assert "pass" in out


@pytest.mark.parametrize("what, digest", [
    ("set-pos", "f24c3d1b3d578621186203451886fb83f9ab3df738cce9e9e6cc2f201e2f4f70"),
    ("ord", "11123a40048bdf86971a6fa5d32576ca8bbacc260d8d45a2b91a04732ceb3fcc"),
    ("discrete", "5257931109428a650f027617d7f30f04ea1d7a7d2c915b33205890a1999cf854"),
])
def test_cli_equiv_stdout_is_pinned(what, digest):
    code, out, err = run_cli("equiv", what, "--bound", "4")
    assert code == 0, out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cli_equiv_checks_are_not_clamped_at_four():
    code, out, err = run_cli("equiv", "discrete", "--bound", "5")
    assert code == 0, out
    assert out.splitlines()[0] == "enough discrete objects, bound 5"
    assert out.count("  ok   cover n=5\n") == 63


@pytest.mark.parametrize("what", ["set-pos", "ord", "discrete"])
def test_cli_equiv_bound_five_output_extends_bound_four(what):
    # lifting the clamps only appends checks for the new sizes
    _, four, _ = run_cli("equiv", what, "--bound", "4")
    _, five, _ = run_cli("equiv", what, "--bound", "5")
    kept = [line.replace("bound 4", "bound 5") for line in four.splitlines()]
    lines = iter(five.splitlines())
    assert all(line in lines for line in kept)


def test_cli_equiv_past_the_enumeration_budget_exits_2(monkeypatch):
    from posrel import equivalence, poset

    def refuse(maps, leq):
        raise AssertionError("a pointwise order was built before the budget refused")

    # hom(3, 3) has 27 functions, one more than the budget, and it is refused
    # before any hom-set is compared
    monkeypatch.setattr(poset, "MAX_MAPS", 26)
    monkeypatch.setattr(equivalence, "MAX_MAPS", 26)
    monkeypatch.setattr(equivalence, "pointwise_order", refuse)
    code, out, err = run_cli("equiv", "set-pos", "--bound", "3")
    assert (code, out) == (2, "")
    assert err == "error: TooLarge: 3^3 functions exceed the limit of 26\n"


@pytest.mark.parametrize("what", ["set-pos", "ord", "discrete"])
def test_cli_equiv_past_the_catalogue_limit_exits_2(monkeypatch, what):
    from posrel import equivalence

    monkeypatch.setattr(equivalence, "MAX_CATALOGUE", 3)
    code, out, err = run_cli("equiv", what, "--bound", "4")
    assert (code, out) == (2, "")
    assert err == "error: TooLarge: posets on 4 elements exceed the catalogue limit of 3\n"


@pytest.mark.parametrize(
    "bound, refused",
    [
        (6, "5^6 functions exceed the limit of 8192"),
        (7, "7^5 functions exceed the limit of 8192"),
        (8, "7^5 functions exceed the limit of 8192"),
        (9, "posets on 9 elements exceed the catalogue limit of 8"),
    ],
)
def test_cli_equiv_set_pos_past_its_budgets_exits_2(bound, refused):
    assert run_cli("equiv", "set-pos", "--bound", str(bound)) == (2, "", f"error: TooLarge: {refused}\n")


def test_cli_equiv_set_pos_bound_five_is_pinned():
    code, out, err = run_cli("equiv", "set-pos", "--bound", "5")
    assert code == 0, out
    digest = "f48bcb1e0079b137d5ff58a6768d2a8e1c4658d32bf246a1985debbf74e8eb07"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cli_harness_run_single_suite():
    code, out, err = run_cli("harness", "run", "modular-law", "--trials", "5", "--seed", "1")
    assert code == 0
    assert "suite modular-law: 5 trials, seed 1: ok" in out
    assert "total: 1 suite(s), 0 failure(s)" in out
    # timing goes to stderr only
    assert "s\n" in err and "0.0" not in out


def test_cli_harness_unknown_suite():
    code, out, err = run_cli("harness", "run", "nope", "--trials", "1")
    assert code == 2


def test_cli_harness_determinism():
    a = run_cli("harness", "run", "kernel-identity", "--trials", "20", "--seed", "9")
    b = run_cli("harness", "run", "kernel-identity", "--trials", "20", "--seed", "9")
    assert a[0] == b[0] == 0
    assert a[1] == b[1]


def test_cli_dot(tmp_path):
    path = write(tmp_path, "c2.poset", "poset 2\n0 < 1\n")
    code, out, err = run_cli("dot", path)
    assert code == 0
    assert "digraph" in out


def test_cli_does_not_mutate_inputs(tmp_path):
    text = "poset 2\n0 < 1\n"
    path = write(tmp_path, "c2.poset", text)
    before = os.path.getmtime(path)
    run_cli("poset", "check", path)
    run_cli("dot", path)
    assert (tmp_path / "c2.poset").read_text() == text


def test_cli_exreg_check_closes_its_file(tmp_path):
    write(tmp_path, "d2.poset", "poset 2\n")
    path = write(tmp_path, "obj.exreg", "object d2.poset\ncong 0 ~ 1\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli("exreg", "check", path)
        gc.collect()
    assert code == 0 and out == "# valid object\n"
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@pytest.fixture
def recording_pool(monkeypatch):
    """A stand-in process pool that runs in-process and records its size."""
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    return sizes


def test_cli_harness_jobs_capped_at_suites_and_cpus(recording_pool):
    code, out, err = run_cli("harness", "run", "modular-law", "--trials", "2", "--jobs", "5000")
    assert code == 0
    assert recording_pool == []  # one suite needs no pool
    code, out, err = run_cli("harness", "run", "all", "--trials", "1", "--jobs", "5000")
    assert code == 0
    assert recording_pool == [3]
    assert out == run_cli("harness", "run", "all", "--trials", "1")[1]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_harness_refuses_a_trial_past_a_budget(recording_pool, monkeypatch, jobs):
    from posrel import harness
    from posrel.poset import TooLarge

    calls = []

    def too_large(rng, cap):
        calls.append(cap)
        raise TooLarge("monotone maps from 7 to 10 elements exceed the limit of 8192")

    suites = {"a-passes": ("fixture", lambda rng, cap: None), "b-too-large": ("fixture", too_large)}
    monkeypatch.setattr(harness, "SUITES", suites)
    code, out, err = run_cli("harness", "run", "all", "--trials", "5", "--jobs", jobs)
    # refused like any budget overflow: no report, no FAILURE line, nothing shrunk
    assert (code, out) == (2, "")
    assert err == "error: TooLarge: monotone maps from 7 to 10 elements exceed the limit of 8192\n"
    assert len(calls) == 1
    assert recording_pool == ([] if jobs == "1" else [2])


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_harness_rejects_nonpositive_jobs(recording_pool, jobs):
    with pytest.raises(SystemExit) as exc:
        run_cli("harness", "run", "modular-law", "--jobs", jobs)
    assert exc.value.code == 2
    assert recording_pool == []


@pytest.fixture
def construction_inputs(tmp_path):
    """Γ-objects on D2 and C2, D2 with a congruence, a relation on D2, two maps D2 -> C2."""
    write(tmp_path, "x.poset", "poset 2\n")
    write(tmp_path, "y.poset", "poset 2\n0 < 1\n")
    write(tmp_path, "sx.exreg", "object x.poset\n")
    write(tmp_path, "sy.exreg", "object y.poset\n")
    write(tmp_path, "q.exreg", "object x.poset\ncong 0 ~ 1\n")
    write(tmp_path, "r.rel", "rel x.poset x.poset\n0 ~ 0\n0 ~ 1\n1 ~ 1\n")
    for name, assign in (("m", [0, 1]), ("n", [1, 1])):
        R = gamma_morphism(MonotoneMap(D2, C2, assign))
        write(tmp_path, f"{name}.exreg", serialize_exreg_morphism(R, "sx.exreg", "sy.exreg"))
    return tmp_path


@pytest.mark.parametrize(
    "argv",
    [
        ["limit", "product", "q.exreg"],
        ["limit", "product", "q.exreg", "sy.exreg", "sx.exreg"],
        ["limit", "comma", "m.exreg"],
        ["limit", "pullback", "m.exreg", "n.exreg", "m.exreg"],
        ["limit", "terminal", "q.exreg"],
    ],
)
def test_cli_limit_rejects_wrong_file_count(construction_inputs, argv):
    paths = [str(construction_inputs / a) if "." in a else a for a in argv]
    code, out, err = run_cli(*paths)
    assert code == 2
    assert err.startswith("error: DomainMismatch: ") and err.count("\n") == 1
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["tabulate", "r.rel", "q.exreg", "q.exreg"],
        ["factorize", "m.exreg"],
        ["split", "sx.exreg", "r.rel"],
        ["present", "q.exreg"],
        ["limit", "terminal"],
        ["limit", "product", "q.exreg", "sy.exreg"],
        ["limit", "comma", "m.exreg", "n.exreg"],
        ["limit", "pullback", "m.exreg", "n.exreg"],
        ["limit", "inserter", "m.exreg", "n.exreg"],
    ],
)
def test_cli_construction_verbs_print_the_same_under_exreg(construction_inputs, argv):
    paths = [str(construction_inputs / a) if "." in a else a for a in argv]
    code, top, err = run_cli(*paths)
    assert code == 0, err
    assert top.startswith("# file: ")
    code, nested, err = run_cli("exreg", *paths)
    assert code == 0, err
    assert nested == top


# Wrong-kind files, each with its header after a comment: a morphism whose lower
# leg is not up-closed, so that loading it would fail a law, and an object.
# Their endpoint files are named by no other input.
WRONG_KIND_FILES = {
    "wm.exreg": "# not up-closed\nmorphism bx.exreg by.exreg\nlower 0 ~ 0\n",
    "wo.exreg": "# an object\n\nobject bx.poset\n",
}
WRONG_KIND_ENDPOINTS = {
    "bx.poset": "poset 2\n",
    "by.poset": "poset 2\n0 < 1\n",
    "bx.exreg": "object bx.poset\n",
    "by.exreg": "object by.poset\n",
}


@pytest.mark.parametrize(
    "argv, wrong, error",
    [
        (["tabulate", "r.rel", "wm.exreg", "sy.exreg"], "wm.exreg", "2: expected an object file"),
        (["tabulate", "r.rel", "sx.exreg", "wm.exreg"], "wm.exreg", "2: expected an object file"),
        (["factorize", "wo.exreg"], "wo.exreg", "3: expected a morphism file"),
        (["split", "wm.exreg", "r.rel"], "wm.exreg", "2: expected an object file"),
        (["present", "wm.exreg"], "wm.exreg", "2: expected an object file"),
        (["limit", "product", "wm.exreg", "sy.exreg"], "wm.exreg", "2: expected an object file"),
        (["limit", "product", "sx.exreg", "wm.exreg"], "wm.exreg", "2: expected an object file"),
        (["limit", "comma", "wo.exreg", "n.exreg"], "wo.exreg", "3: expected a morphism file"),
        (["limit", "pullback", "m.exreg", "wo.exreg"], "wo.exreg", "3: expected a morphism file"),
        (["limit", "inserter", "wo.exreg", "n.exreg"], "wo.exreg", "3: expected a morphism file"),
    ],
)
@pytest.mark.parametrize("endpoints", [True, False])
def test_a_wrong_kind_file_is_refused_at_its_header_before_its_endpoints_are_read(
    construction_inputs, monkeypatch, argv, wrong, error, endpoints
):
    files = {**WRONG_KIND_FILES, **(WRONG_KIND_ENDPOINTS if endpoints else {})}
    for name, body in files.items():
        write(construction_inputs, name, body)
    reads = []
    read = formats._read
    monkeypatch.setattr(formats, "_read", lambda path: reads.append(os.path.basename(path)) or read(path))
    paths = [str(construction_inputs / a) if "." in a else a for a in argv]
    for prefix in ([], ["exreg"]):
        reads.clear()
        code, out, err = run_cli(*prefix, *paths)
        assert (code, out) == (2, "")
        assert err == f"error: ParseError: {construction_inputs / wrong}:{error}\n"
        assert reads.count(wrong) == 1 and not set(reads) & set(WRONG_KIND_ENDPOINTS)
    # a check asks for no kind, and loads the file whole
    code, out, err = run_cli("exreg", "check", str(construction_inputs / wrong))
    if not endpoints:
        assert code == 2 and "No such file" in err
    elif wrong == "wm.exreg":
        assert (code, err) == (1, "error: BimoduleLawFailed: F R_* E = R_* fails\n")
    else:
        assert (code, out) == (0, "# valid object\n")


LIMIT_PRODUCT_STDOUT = """\
# file: src0.poset
poset 2
# file: src0.exreg
object src0.poset
cong 0 ~ 1
# file: src1.poset
poset 2
0 < 1
# file: src1.exreg
object src1.poset
# file: apex.poset
poset 4
0 < 1
2 < 3
# file: apex.exreg
object apex.poset
cong 0 ~ 2
cong 0 ~ 3
cong 1 ~ 3
# file: leg0.exreg
morphism apex.exreg src0.exreg
lower 0 ~ 0
lower 0 ~ 1
lower 1 ~ 0
lower 1 ~ 1
lower 2 ~ 1
lower 3 ~ 1
upper 0 ~ 0
upper 0 ~ 1
upper 0 ~ 2
upper 0 ~ 3
upper 1 ~ 2
upper 1 ~ 3
# file: leg1.exreg
morphism apex.exreg src1.exreg
lower 0 ~ 0
lower 0 ~ 1
lower 1 ~ 1
lower 2 ~ 0
lower 2 ~ 1
lower 3 ~ 1
upper 0 ~ 0
upper 0 ~ 1
upper 0 ~ 2
upper 0 ~ 3
upper 1 ~ 1
upper 1 ~ 3
"""


def test_cli_limit_product_stdout_is_pinned(construction_inputs):
    q, sy = construction_inputs / "q.exreg", construction_inputs / "sy.exreg"
    code, out, err = run_cli("limit", "product", str(q), str(sy))
    assert code == 0, err
    assert out == LIMIT_PRODUCT_STDOUT


@pytest.mark.parametrize(
    "carrier",
    [
        "poset 2\n0 < 1\n",  # same size as the object's carrier, different order
        "poset 3\n",
    ],
)
def test_cli_split_rejects_a_relation_on_another_carrier(construction_inputs, carrier):
    write(construction_inputs, "other.poset", carrier)
    n = int(carrier.split()[1])
    pairs = "".join(f"{i} ~ {i}\n" for i in range(n))
    rel = write(construction_inputs, "other.rel", f"rel other.poset other.poset\n{pairs}")
    code, out, err = run_cli("split", str(construction_inputs / "sx.exreg"), rel)
    assert code == 2
    assert err.startswith("error: DomainMismatch: ") and err.count("\n") == 1
    assert out == ""


def test_cli_does_not_report_an_internal_value_error_as_input(construction_inputs, monkeypatch):
    from posrel import cli

    def broken(args, out, err):
        raise ValueError("internal bug")

    monkeypatch.setitem(cli.CONSTRUCTION_VERBS, "present", (broken, {"object": {}}))
    with pytest.raises(ValueError, match="internal bug"):
        run_cli("present", str(construction_inputs / "q.exreg"))


def test_cli_exreg_check_of_a_morphism_that_breaks_a_law_exits_1(construction_inputs):
    # the lower leg 0 ~ 0 from the discrete pair to the chain 0 < 1 is not up-closed
    path = write(construction_inputs, "bad.exreg", "morphism sx.exreg sy.exreg\nlower 0 ~ 0\n")
    assert run_cli("exreg", "check", path) == (1, "", "error: BimoduleLawFailed: F R_* E = R_* fails\n")


# Exit codes of main for the exception classes, as the lists of input errors
# and law failures in the command-line module gave them before the two bases.
EXIT_CODES = {
    **dict.fromkeys(
        ["AntisymmetryViolation", "NotMonotone", "TooLarge", "DomainMismatch", "ShapeMismatch",
         "NotWeakening", "NotCongruence", "NotCongruenceOver", "ParseError"], 2),
    **dict.fromkeys(
        ["NotAMap", "NotExactFork", "BimoduleLawFailed", "AdjunctionFailed", "NotQMorphism",
         "ConeNotIncluded"], 1),
}
# internal bugs, and the harness's own message for a suite name
NEITHER_BASE = {"CrossCheckFailed", "UnknownSuite"}


def posrel_exception_classes():
    """Name -> class of every exception class that a posrel module defines."""
    import importlib
    import pkgutil

    import posrel

    found = {}
    for info in pkgutil.iter_modules(posrel.__path__):
        module = importlib.import_module(f"posrel.{info.name}")
        for name, value in vars(module).items():
            if (isinstance(value, type) and issubclass(value, BaseException)
                    and value.__module__ == module.__name__):
                found[name] = value
    return found


def test_every_exception_class_is_an_input_error_or_a_law_failure():
    from posrel.poset import InputError, LawFailure

    found = posrel_exception_classes()
    assert found.pop("InputError") is InputError and found.pop("LawFailure") is LawFailure
    assert issubclass(InputError, ValueError) and issubclass(LawFailure, ValueError)
    assert set(EXIT_CODES) | NEITHER_BASE <= set(found)
    for name, cls in found.items():
        if name in NEITHER_BASE:
            assert not issubclass(cls, (InputError, LawFailure)), name
        else:
            assert issubclass(cls, InputError) != issubclass(cls, LawFailure), name


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_cli_exit_code_of_each_exception_class(construction_inputs, monkeypatch, name):
    from posrel import cli

    cls = posrel_exception_classes()[name]
    exc = cls("x", 1, "boom") if cls is ParseError else cls("boom")

    def raising(args, out, err):
        raise exc

    monkeypatch.setitem(cli.CONSTRUCTION_VERBS, "present", (raising, {"object": {}}))
    code, out, err = run_cli("present", str(construction_inputs / "q.exreg"))
    assert (code, out, err) == (EXIT_CODES[name], "", f"error: {name}: {exc}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["harness", "run", "modular-law", "--bound", "0"],
        ["harness", "run", "modular-law", "--trials", "-4"],
        ["equiv", "set-pos", "--bound", "-1"],
    ],
)
def test_cli_rejects_bad_counts(argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2


def test_cli_harness_accepts_zero_trials_and_the_least_bounds():
    code, out, err = run_cli("harness", "run", "modular-law", "--trials", "0")
    assert code == 0 and "0 trials, seed 0: ok" in out
    code, out, err = run_cli("harness", "run", "modular-law", "--trials", "3", "--bound", "1")
    assert code == 0 and "3 trials, seed 0: ok" in out
    code, out, err = run_cli("equiv", "discrete", "--bound", "0")
    assert code == 0 and out.startswith("enough discrete objects, bound 0\n")


def test_cli_bounds_default_to_the_table_values():
    from posrel import cli, harness

    assert cli.parse(["equiv", "set-pos"]).bound == 4
    assert cli.parse(["harness", "run", "x"]).bound == harness.DEFAULT_RELATION_CAP == 5


@pytest.mark.parametrize(
    "argv",
    [["equiv", "discrete"], ["harness", "run", "modular-law", "--trials", "3", "--seed", "1"]],
    ids="_".join,
)
@pytest.mark.parametrize("value", ["2", "-1", "four"])
def test_cli_output_does_not_depend_on_the_environment(monkeypatch, argv, value):
    monkeypatch.delenv("EXREG_BOUND", raising=False)
    code, unset, err = run_cli(*argv)
    assert code == 0
    monkeypatch.setenv("EXREG_BOUND", value)
    # stdout only: the harness writes its timings to stderr
    assert run_cli(*argv)[:2] == (0, unset)


@pytest.fixture
def oversized_inputs(tmp_path):
    """46-element objects, whose pair-set apexes have 46 * 46 = 2116 > 2048 elements."""
    from posrel.exreg import identity_morphism

    n = 46
    D = FinPoset.discrete(n)
    write(tmp_path, "d.poset", f"poset {n}\n")
    write(tmp_path, "one.poset", "poset 1\n")
    write(tmp_path, "g.exreg", "object d.poset\n")
    write(tmp_path, "t.exreg", "object one.poset\n")
    cycle = "".join(f"cong {i} ~ {(i + 1) % n}\n" for i in range(n))
    write(tmp_path, "full.exreg", "object d.poset\n" + cycle)
    R = gamma_morphism(MonotoneMap(D, FinPoset.discrete(1), [0] * n))
    write(tmp_path, "c.exreg", serialize_exreg_morphism(R, "g.exreg", "t.exreg"))
    full = ExRegObject(D, np.ones((n, n), dtype=bool))
    write(tmp_path, "id.exreg",
          serialize_exreg_morphism(identity_morphism(full), "full.exreg", "full.exreg"))
    write(tmp_path, "phi.rel", serialize_rel(Relation.full(D, D), "d.poset", "d.poset"))
    return tmp_path


@pytest.mark.parametrize(
    "argv",
    [
        ["limit", "product", "g.exreg", "g.exreg"],
        ["limit", "comma", "c.exreg", "c.exreg"],
        ["limit", "pullback", "c.exreg", "c.exreg"],
        ["limit", "inserter", "id.exreg", "id.exreg"],
        ["tabulate", "phi.rel", "g.exreg", "g.exreg"],
        ["present", "full.exreg"],
        ["factorize", "id.exreg"],
    ],
)
def test_cli_refuses_an_oversized_apex_before_building_it(oversized_inputs, monkeypatch, argv):
    from posrel import exreg, poset

    sizes = []

    def recording(A, B, mask):
        sizes.append(int(np.count_nonzero(mask)))
        return poset.pair_order(A, B, mask)

    monkeypatch.setattr(exreg, "pair_order", recording)
    monkeypatch.setattr(poset, "pair_order", recording)
    paths = [str(oversized_inputs / a) if "." in a else a for a in argv]
    out_dir = oversized_inputs / "out"
    code, out, err = run_cli(*paths, "--out-dir", str(out_dir))
    assert code == 2
    assert err == f"error: TooLarge: apex of 2116 elements exceeds the limit of {MAX_ELEMENTS}\n"
    assert out == ""
    assert sizes == []
    assert not out_dir.exists() or not list(out_dir.iterdir())


def test_apex_limit_is_inclusive(construction_inputs, monkeypatch):
    from posrel import poset

    q, sy = str(construction_inputs / "q.exreg"), str(construction_inputs / "sy.exreg")
    monkeypatch.setattr(poset, "MAX_ELEMENTS", 4)
    assert run_cli("limit", "product", q, sy) == (0, LIMIT_PRODUCT_STDOUT, "")
    monkeypatch.setattr(poset, "MAX_ELEMENTS", 3)
    code, out, err = run_cli("limit", "product", q, sy)
    assert (code, out) == (2, "")
    assert err == "error: TooLarge: apex of 4 elements exceeds the limit of 3\n"


def test_cli_does_not_report_a_failed_crosscheck_as_input(construction_inputs, monkeypatch):
    from posrel import exreg

    monkeypatch.setattr(exreg, "compose_morphisms", lambda S, R: None)
    with pytest.raises(exreg.CrossCheckFailed, match="tabulation_factor: leg0 H = S0 fails"):
        run_cli("factorize", str(construction_inputs / "m.exreg"))


def test_cli_does_not_report_a_wrong_realized_map_as_input(monkeypatch):
    from posrel import equivalence, exreg

    real = equivalence.graph_stack
    monkeypatch.setattr(equivalence, "graph_stack", lambda morphisms: real(morphisms)[:, :, ::-1])
    with pytest.raises(exreg.CrossCheckFailed, match="realize_morphism: the realized map must be monotone"):
        run_cli("equiv", "set-pos", "--bound", "3")


def test_cli_does_not_report_a_wrong_kernel_object_as_input(monkeypatch):
    from posrel import equivalence

    real = equivalence.kernel_object

    def symmetrised(e):
        # the kernel of e taken in the symmetric closure of its codomain's order
        cod = FinPoset._trusted(e.cod.leq | e.cod.leq.T)
        return real(MonotoneMap._trusted(e.dom, cod, e.assign))

    monkeypatch.setattr(equivalence, "kernel_object", symmetrised)
    code, _, err = run_cli("equiv", "set-pos", "--bound", "4")
    assert (code, err) == (1, "error: BimoduleLawFailed: F R_* E = R_* fails\n")


# -- a reader that goes away ----------------------------------------------------


def test_cli_exits_141_quietly_when_stdout_closes_early(tmp_path):
    import posrel

    write(tmp_path, "c.poset", "poset 30\n" + "".join(f"{i} < {i + 1}\n" for i in range(29)))
    obj = write(tmp_path, "c.exreg", "object c.poset\n")
    # far more than a pipe's 64 KiB buffer, so the writer meets the closed end
    assert len(run_cli("limit", "product", obj, obj)[1]) > 4 * 65536
    src = os.path.dirname(os.path.dirname(os.path.abspath(posrel.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "posrel.cli", "limit", "product", obj, obj],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"# file: src0.poset\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


class ClosedPipe(io.StringIO):
    """An output stream whose reader has gone, on write or only on flush."""

    def __init__(self, fail_on_write):
        super().__init__()
        self.fail_on_write = fail_on_write

    def write(self, text):
        if self.fail_on_write:
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("fail_on_write", [True, False])
def test_cli_broken_pipe_is_not_an_input_error(construction_inputs, fail_on_write):
    err = io.StringIO()
    q, sy = str(construction_inputs / "q.exreg"), str(construction_inputs / "sy.exreg")
    code = main(["limit", "product", q, sy], stdout=ClosedPipe(fail_on_write), stderr=err)
    assert (code, err.getvalue()) == (141, "")
