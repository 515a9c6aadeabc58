"""The file readers against their line-by-line originals in ``formats_before``:
the same value, or the same error class, message and line, exhaustively on
small files, on seeded larger ones and on named cases.  Text in the
serializers' shape takes the array reader, any other text the line reader,
and both must agree with the originals."""

import itertools
import random

import numpy as np
import pytest

import formats_before as before
from posrel import formats
from posrel.exreg import ExRegMorphism, ExRegObject, gamma_morphism
from posrel.poset import FinPoset, MonotoneMap
from posrel.relation import Relation

from test_poset import random_poset

# A 2-element chain, a 3-element antichain, and Γ-objects on them: a .rel
# header ``rel a.poset d.poset`` is 2 x 3, and a morphism o.exreg -> c.exreg
# has lower legs 3 x 2 and upper legs 2 x 3.
REFERENCED_FILES = {
    "a.poset": "poset 2\n0 < 1\n",
    "d.poset": "poset 3\n",
    "o.exreg": "object d.poset\n",
    "c.exreg": "object a.poset\n",
}


def value_key(value):
    """Everything a read value holds, labels included, as a comparable tuple."""
    if isinstance(value, FinPoset):
        return ("poset", value.n, value.leq.tobytes(), value.labels)
    if isinstance(value, Relation):
        return ("rel", value_key(value.dom), value_key(value.cod), value.pairs.tobytes())
    if isinstance(value, ExRegObject):
        return ("object", value_key(value.X), value.E.pairs.tobytes())
    assert isinstance(value, ExRegMorphism)
    return ("morphism", value_key(value.src), value_key(value.tgt),
            value.lower.pairs.tobytes(), value.upper.pairs.tobytes())


def outcome(read, *args):
    try:
        return ("value", value_key(read(*args)))
    except Exception as exc:  # every outcome is compared, whatever its class
        return ("error", type(exc), str(exc), getattr(exc, "line_no", None), type(exc.__cause__))


READERS = {".poset": "parse_poset", ".rel": "parse_rel", ".exreg": "parse_exreg"}


def same_as_before(path, text, *kind):
    """The outcome of reading ``text`` as the file ``path``, asserted equal to the original's."""
    name = READERS[path[path.rindex("."):]]
    got = outcome(getattr(formats, name), text, path, *kind)
    assert got == outcome(getattr(before, name), text, path, *kind), (path, text, kind)
    return got


@pytest.fixture
def refs(tmp_path):
    for name, body in REFERENCED_FILES.items():
        (tmp_path / name).write_text(body)
    return tmp_path


def texts(headers, alphabet, most):
    """Every header followed by up to ``most`` lines of ``alphabet``, with and without a final newline."""
    for header in headers:
        for k in range(most + 1):
            for body in itertools.product(alphabet, repeat=k):
                text = "\n".join((header, *body))
                yield text
                yield text + "\n"


POSET_HEADERS = ["poset 2", "poset 0", "# c\nposet 2", "poset 2 "]
POSET_LINES = ["0 < 1", "1 < 0", "1 < 1", "0 < 2", "label 1 t", "# c", "", "0\t< 1", "01 < 1"]
REL_HEADERS = ["rel a.poset d.poset", "\nrel a.poset d.poset", "rel a.poset d.poset#"]
REL_LINES = ["0 ~ 0", "1 ~ 2", "2 ~ 0", "0 ~ 3", "x ~ 0", "0 ~", "", "1 ~ 2\r", "0 < 1"]
OBJECT_LINES = ["cong 0 ~ 1", "cong 2 ~ 0", "cong 0 ~ 3", "cong 0 ~ x", "lower 0 ~ 0", "# c", "",
                "cong  1 ~ 2"]
MORPHISM_LINES = ["lower 0 ~ 0", "lower 2 ~ 1", "lower 3 ~ 0", "upper 0 ~ 0", "upper 1 ~ 2",
                  "upper 0 ~ 3", "upper x ~ 0", "cong 0 ~ 0", "", "upper 1 ~ 0 # c"]


def test_every_small_poset_file_reads_as_before():
    outcomes = [same_as_before("x.poset", text)[0] for text in texts(POSET_HEADERS, POSET_LINES, 3)]
    assert {"value", "error"} <= set(outcomes)


def test_every_small_rel_file_reads_as_before(refs):
    for text in texts(REL_HEADERS, REL_LINES, 2):
        same_as_before(str(refs / "x.rel"), text)


def test_every_small_exreg_file_reads_as_before(refs):
    path = str(refs / "x.exreg")
    for text in texts(["object d.poset", "# o\nobject d.poset"], OBJECT_LINES, 2):
        for kind in (None, "object", "morphism"):
            same_as_before(path, text, kind)
    for text in texts(["morphism o.exreg c.exreg"], MORPHISM_LINES, 2):
        same_as_before(path, text)


# -- seeded larger files ------------------------------------------------------


def mutate(rng, lines):
    """``lines`` with one of the edits a hand or a tool might make, some of which keep
    the serializers' shape (deleted, duplicated or swapped pair lines, leading zeros)."""
    lines = list(lines)
    k = rng.randrange(1, len(lines)) if len(lines) > 1 else 0
    edit = rng.randrange(10)
    if edit == 0 and len(lines) > 1:
        del lines[k]
    elif edit == 1:
        lines.insert(k, lines[k])
    elif edit == 2 and len(lines) > 2:
        j = rng.randrange(1, len(lines))
        lines[k], lines[j] = lines[j], lines[k]
    elif edit == 3:
        lines.insert(k, rng.choice(["# c", "", "  ", "label 0 z", "bogus", "0 < 1 # c"]))
    elif edit == 4:
        toks = lines[k].split(" ")
        spots = [t for t, tok in enumerate(toks) if tok.isdigit()]
        if spots:
            t = rng.choice(spots)
            toks[t] = rng.choice(["00" + toks[t], "٣", str(10**30), "-1", "999999999", "1000"])
            lines[k] = " ".join(toks)
    elif edit == 5:
        lines[k] = lines[k].replace(" ", "\t")
    elif edit == 6:
        lines[k] = lines[k] + "\r"
    elif edit == 7:
        # the first upper line moved before the lower lines
        ups = [t for t, line in enumerate(lines) if line.startswith("upper")]
        if ups:
            lines.insert(1, lines.pop(ups[0]))
    elif edit == 8:
        lines[k] = lines[k] + " "
    return lines


def monotone_rank(X):
    """The monotone map of X into a chain that sends x to the size of its down-set, less one."""
    return MonotoneMap(X, FinPoset.chain(X.n), (X.leq.sum(axis=0) - 1).tolist())


def seeded_files(rng, refs):
    """(name, text) of a random poset, relation, object and morphism, each serialized."""
    X = random_poset(rng, rng.randrange(8, 30))
    Y = random_poset(rng, rng.randrange(1, 12))
    labels = [f"e{i}" if i == 0 or rng.random() < 0.2 else str(i) for i in range(X.n)]
    (refs / "x.poset").write_text(formats.serialize_poset(X))
    (refs / "y.poset").write_text(formats.serialize_poset(Y))
    yield "p.poset", formats.serialize_poset(X)
    yield "q.poset", formats.serialize_poset(FinPoset(X.leq, labels))
    R = Relation(X, Y, np.array([rng.random() < 0.3 for _ in range(X.n * Y.n)]).reshape(X.n, Y.n))
    yield "r.rel", formats.serialize_rel(R, "x.poset", "y.poset")
    rank = np.array(monotone_rank(X).assign) // 3
    obj = ExRegObject(X, rank[:, None] <= rank[None, :])
    yield "o.exreg", formats.serialize_exreg_object(obj, "x.poset")
    (refs / "gx.exreg").write_text("object x.poset\n")
    (refs / "gc.exreg").write_text(f"object c{X.n}.poset\n")
    (refs / f"c{X.n}.poset").write_text(formats.serialize_poset(FinPoset.chain(X.n)))
    yield "m.exreg", formats.serialize_exreg_morphism(
        gamma_morphism(monotone_rank(X)), "gx.exreg", "gc.exreg")


@pytest.mark.parametrize("seed", range(8))
def test_seeded_files_read_as_before_whole_and_edited(refs, monkeypatch, seed):
    array_reads = []
    array_pairs = formats._array_pairs
    monkeypatch.setattr(
        formats, "_array_pairs", lambda *args: array_reads.append(array_pairs(*args)) or array_reads[-1]
    )
    rng = random.Random(seed)
    for name, text in seeded_files(rng, refs):
        path = str(refs / name)
        array_reads.clear()
        assert same_as_before(path, text)[0] == "value"
        # the serializers' shape is read by the array reader, once per file read;
        # label lines are read by the line reader
        assert array_reads and all(found is not None for found in array_reads) != ("label" in text)
        lines = text.split("\n")[:-1]
        for _ in range(12):
            edited = mutate(rng, lines)
            if rng.random() < 0.3:
                edited = mutate(rng, edited)
            same_as_before(path, "\n".join(edited) + ("" if rng.random() < 0.2 else "\n"))


# -- named cases --------------------------------------------------------------

CHAIN = "poset 3\n0 < 1\n1 < 2\n"
MOR = "morphism o.exreg c.exreg\n"
NAMED = [
    ("comment", "x.poset", "poset 3\n0 < 1  # c\n1 < 2\n"),
    ("comment-line", "x.poset", "poset 3\n# c\n0 < 1\n1 < 2\n"),
    ("blank-lines", "x.poset", "poset 3\n\n0 < 1\n\n1 < 2\n\n"),
    ("crlf", "x.poset", CHAIN.replace("\n", "\r\n")),
    ("tabs", "x.poset", "poset 3\n0\t<\t1\n1 < 2\n"),
    ("no-final-newline", "x.poset", CHAIN[:-1]),
    ("leading-zeros", "x.poset", "poset 3\n000 < 01\n1 < 0002\n"),
    ("arabic-indic-digit", "x.poset", "poset 4\n0 < 1\n1 < ٣\n"),
    ("duplicate-lines", "x.poset", CHAIN + "1 < 2\n0 < 1\n"),
    ("label-lines", "x.poset", CHAIN + "label 0 lo\nlabel 2 hi\n"),
    ("cycle", "x.poset", CHAIN + "2 < 0\n"),
    ("header-after-comment", "x.poset", "# c\n" + CHAIN),
    ("header-comment", "x.poset", "poset 3 # c\n0 < 1\n1 < 2\n"),
    ("header-crlf", "x.poset", "poset 3\r\n0 < 1\n1 < 2\n"),
    ("header-after-other-breaks", "x.poset", "\x0b\x1c\u2028poset 3\x85\n0 < 1\n2 < 0\n"),
    ("cycle-after-blank-lines", "x.poset", "\n\r\n\f" + CHAIN + "2 < 0\n"),
    ("huge-index", "x.poset", f"poset 3\n0 < {10**30}\n"),
    ("ten-digit-index", "x.poset", "poset 3\n0 < 0000000001\n"),
    ("rel-comment", "x.rel", "rel a.poset d.poset\n0 ~ 2 # c\n1 ~ 1\n"),
    ("rel-crlf", "x.rel", "rel a.poset d.poset\r\n0 ~ 2\r\n"),
    ("rel-no-final-newline", "x.rel", "rel a.poset d.poset\n0 ~ 2"),
    ("rel-leading-zeros", "x.rel", "rel a.poset d.poset\n00 ~ 002\n"),
    ("rel-arabic-indic-digit", "x.rel", "rel a.poset d.poset\n0 ~ ٢\n"),
    ("rel-duplicate-lines", "x.rel", "rel a.poset d.poset\n0 ~ 2\n0 ~ 2\n"),
    ("rel-huge-index", "x.rel", f"rel a.poset d.poset\n0 ~ {10**30}\n"),
    ("object-header-after-comment", "x.exreg", "\r# o\nobject d.poset\ncong 2 ~ 0\n"),
    ("object-blank-lines", "x.exreg", "object d.poset\n\ncong 0 ~ 1\n\n"),
    ("object-tabs", "x.exreg", "object d.poset\ncong\t0 ~ 1\n"),
    ("object-huge-index", "x.exreg", f"object d.poset\ncong {10**30} ~ 1\n"),
    ("lower-after-upper", "x.exreg", MOR + "upper 1 ~ 0\nlower 0 ~ 0\n"),
    ("morphism-comment", "x.exreg", MOR + "lower 0 ~ 0 # c\nupper 0 ~ 0\n"),
    ("morphism-huge-index", "x.exreg", MOR + f"lower 0 ~ {10**30}\n"),
    ("morphism-label-line", "x.exreg", MOR + "label 0 a\n"),
    ("wrong-kind-missing-endpoints", "x.exreg", "morphism nowhere.exreg nothing.exreg\n"),
]


@pytest.mark.parametrize("name, text", [case[1:] for case in NAMED], ids=[case[0] for case in NAMED])
def test_named_cases_read_as_before(refs, name, text):
    for kind in ((), ("object",), ("morphism",)) if name.endswith(".exreg") else ((),):
        same_as_before(str(refs / name), text, *kind)


@pytest.mark.parametrize(
    "name, text, line",
    [("x.poset", f"poset 3\n0 < {10**30}\n", "2: element out of range 0..2"),
     ("x.rel", f"rel a.poset d.poset\n0 ~ {10**30}\n", "2: pair element out of range"),
     ("x.exreg", MOR + f"lower 0 ~ {10**30}\n", "2: pair element out of range")],
)
def test_an_index_past_intp_is_out_of_range_not_an_overflow(refs, name, text, line):
    got = same_as_before(str(refs / name), text)
    assert got[:3] == ("error", formats.ParseError, f"{refs / name}:{line}")


@pytest.mark.parametrize(
    "text, kind, line",
    [("morphism nowhere.exreg nothing.exreg\n", "object", "1: expected an object file"),
     ("# m\nmorphism nowhere.exreg nothing.exreg\n", "object", "2: expected an object file"),
     ("object nowhere.poset\n", "morphism", "1: expected a morphism file")],
)
def test_a_wrong_kind_header_is_refused_before_its_missing_endpoints_are_read(refs, text, kind, line):
    path = str(refs / "x.exreg")
    got = same_as_before(path, text, kind)
    assert got[:3] == ("error", formats.ParseError, f"{path}:{line}")


def test_the_array_reader_leaves_an_index_of_ten_digits_to_the_line_reader():
    # nine digits fit every intp; numpy's text reader is never asked to convert more
    (rows, cols), = formats._array_pairs("0 < 000000001\n", ("",), "<", [(3, 3)])
    assert (rows.tolist(), cols.tolist()) == ([0], [1])
    assert formats._array_pairs("0 < 0000000001\n", ("",), "<", [(3, 3)]) is None
