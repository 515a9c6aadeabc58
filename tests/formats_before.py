"""The readers of ``posrel.formats`` as they were before pair lines in the
serializers' shape were read at array speed: every line through ``_lines``,
``split`` and ``int``.  Kept verbatim, apart from this docstring and the imports,
as the oracle that ``test_formats_reader.py`` holds the readers to: the same
value, or the same error class, message and line, on every input.  ``close_pairs``,
which they called, is kept here verbatim too, since ``posrel.poset`` no longer has it."""

import os

import numpy as np

from posrel.exreg import ExRegObject, validate_morphism
from posrel.formats import ParseError
from posrel.poset import (
    MAX_ELEMENTS,
    AntisymmetryViolation,
    FinPoset,
    _bit_rows,
    _bool_rows,
    _close_rows,
    closure,
    pair_mask,
)
from posrel.relation import Relation


def close_pairs(n, pairs):
    """The ``closure`` of the pairs (i <= j) on n elements, and whether they close a cycle."""
    rows, cyclic = _close_rows(_bit_rows(pair_mask((n, n), pairs)))
    return _bool_rows(rows), cyclic


def _read(path):
    """The text of the file at ``path``, decoded as UTF-8 whatever the locale."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bad byte's line, numbered as ``_lines`` numbers lines
        no = len((data[:exc.start].decode("utf-8") + "?").splitlines())
        raise ParseError(path, no, f"not UTF-8 text: byte 0x{data[exc.start]:02x}") from None


def _lines(text):
    """The numbered lines of ``text`` that are not blank once comments are cut."""
    return [
        (no, line)
        for no, raw in enumerate(text.splitlines(), start=1)
        if (line := raw.split("#", 1)[0].strip())
    ]


def _int(tok, path, no):
    try:
        return int(tok)
    except ValueError:
        raise ParseError(path, no, f"expected an integer, got {tok!r}") from None


def _bad_ints(toks, message, path, no):
    """For a line whose integer tokens ``toks`` are not all in range: raise
    the error for the first one that is not an integer, else return the
    error carrying ``message``."""
    for tok in toks:
        _int(tok, path, no)
    return ParseError(path, no, message)


def parse_poset(text, path="<string>"):
    lines = _lines(text)
    if not lines:
        raise ParseError(path, 1, "empty poset file")
    no, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "poset":
        raise ParseError(path, no, "expected header 'poset <n>'")
    n = _int(parts[1], path, no)
    if n < 0:
        raise ParseError(path, no, f"element count must be at least 0, got {n}")
    if n > MAX_ELEMENTS:
        raise ParseError(path, no, f"poset of {n} elements exceeds the limit of {MAX_ELEMENTS}")
    pairs, pair_nos = [], []
    labels = None
    for no, line in lines[1:]:
        toks = line.split()
        if len(toks) == 3 and toks[1] == "<":
            try:
                i, j = int(toks[0]), int(toks[2])
                if not (0 <= i < n and 0 <= j < n):
                    raise ValueError
            except ValueError:
                raise _bad_ints(toks[::2], f"element out of range 0..{n - 1}", path, no) from None
            pairs.append((i, j))
            pair_nos.append(no)
        elif len(toks) == 3 and toks[0] == "label":
            if labels is None:
                labels = [str(k) for k in range(n)]
            try:
                i = int(toks[1])
                if not 0 <= i < n:
                    raise ValueError
            except ValueError:
                raise _bad_ints(toks[1:2], f"element out of range 0..{n - 1}", path, no) from None
            labels[i] = toks[2]
        else:
            raise ParseError(path, no, f"unrecognized line {line!r}")
    leq, cyclic = close_pairs(n, pairs)
    if not cyclic:
        # a closure is reflexive and transitive, and with no cycle it is antisymmetric
        return FinPoset._trusted(leq, labels)
    # A cycle stays closed as pairs are added, so the shortest cyclic prefix
    # of the pair lines ends at the line closing it.
    lo, hi = 0, len(pairs)  # pairs[:lo] have no cycle, pairs[:hi] have one, closed in leq
    while hi - lo > 1:
        mid = (lo + hi) // 2
        prefix, cyclic = close_pairs(n, pairs[:mid])
        if cyclic:
            hi, leq = mid, prefix
        else:
            lo = mid
    try:
        FinPoset(leq)  # reflexive, so refused for the first 2-cycle of the shortest cyclic prefix
    except AntisymmetryViolation as cycle:
        raise ParseError(path, pair_nos[hi - 1], str(cycle)) from cycle


def load_poset(path):
    return parse_poset(_read(path), path)


def _resolve(ref, base_path, no):
    if "\0" in ref:
        raise ParseError(base_path, no, "file name holds a NUL byte")
    # an absolute ref is returned as it is: join drops the parts before an absolute one
    return os.path.join(os.path.dirname(os.path.abspath(base_path)), ref)


def _parse_pairs(lines, shapes, path):
    """The matrices of ``<keyword> i ~ j`` lines, one per keyword of ``shapes``
    (which maps each keyword to its matrix's shape), read in one pass.

    The error raised is the first one met by reading the lines once per
    keyword, in the order of ``shapes``, and then once for a line that is no
    keyword's: the first bad pair of the first keyword wins, then that of the
    next, then the first unrecognized line."""
    found = {keyword: ([], []) for keyword in shapes}
    bad = {}
    unrecognized = None
    for no, line in lines:
        toks = line.split()
        shape = shapes.get(toks[0]) if len(toks) == 4 and toks[2] == "~" else None
        if shape is None:
            if unrecognized is None:
                unrecognized = ParseError(path, no, f"unrecognized line {line!r}")
            continue
        try:
            i, j = int(toks[1]), int(toks[3])
            if not (0 <= i < shape[0] and 0 <= j < shape[1]):
                raise ValueError
        except ValueError:
            bad.setdefault(toks[0], (no, toks[1::2]))
            continue
        rows, cols = found[toks[0]]
        rows.append(i)
        cols.append(j)
    for keyword in shapes:
        if keyword in bad:
            no, toks = bad[keyword]
            raise _bad_ints(toks, "pair element out of range", path, no)
    if unrecognized is not None:
        raise unrecognized
    mats = []
    for keyword, shape in shapes.items():
        mat = np.zeros(shape, dtype=bool)
        mat[found[keyword]] = True
        mats.append(mat)
    return mats


def _rel_header(lines, path):
    """The domain and codomain files that the header of a .rel file's ``_lines`` names."""
    if not lines:
        raise ParseError(path, 1, "empty relation file")
    no, header = lines[0]
    parts = header.split()
    if len(parts) != 3 or parts[0] != "rel":
        raise ParseError(path, no, "expected header 'rel <domfile> <codfile>'")
    return parts[1], parts[2]


def parse_rel(text, path="<string>"):
    lines = _lines(text)
    dom, cod = (load_poset(_resolve(ref, path, lines[0][0])) for ref in _rel_header(lines, path))
    rows, cols = [], []
    for no, line in lines[1:]:
        toks = line.split()
        if len(toks) != 3 or toks[1] != "~":
            raise ParseError(path, no, f"expected 'i ~ j', got {line!r}")
        try:
            i, j = int(toks[0]), int(toks[2])
            if not (0 <= i < dom.n and 0 <= j < cod.n):
                raise ValueError
        except ValueError:
            raise _bad_ints(toks[::2], "pair element out of range", path, no) from None
        rows.append(i)
        cols.append(j)
    mat = np.zeros((dom.n, cod.n), dtype=bool)
    mat[rows, cols] = True
    return Relation(dom, cod, mat)


def load_rel(path):
    return parse_rel(_read(path), path)


def _kind(lines):
    """The kind of .exreg file whose ``_lines`` these are: its header's first word."""
    return lines[0][1].split()[0] if lines else None


def _load_endpoint(ref, path, no):
    """The object file ``ref`` named at line ``no`` of ``path``.  A morphism file
    is refused from its header, before its own endpoints are loaded, so a
    file that reaches itself through its endpoints cannot recurse."""
    ref_path = _resolve(ref, path, no)
    lines = _lines(_read(ref_path))
    if _kind(lines) == "morphism":
        raise ParseError(path, no, "morphism endpoints must be object files")
    return _parse_exreg_lines(lines, ref_path)


def parse_exreg(text, path="<string>", kind=None):
    """The object or morphism that ``text`` holds.  Given a ``kind``, "object" or
    "morphism", a header of the other kind is refused at its line, before any
    file it names is opened."""
    lines = _lines(text)
    found = _kind(lines)
    if kind is not None and found != kind and found in ("object", "morphism"):
        article = "an" if kind == "object" else "a"
        raise ParseError(path, lines[0][0], f"expected {article} {kind} file")
    return _parse_exreg_lines(lines, path)


def _parse_exreg_lines(lines, path):
    if not lines:
        raise ParseError(path, 1, "empty file")
    no, header = lines[0]
    parts = header.split()
    if parts[0] == "object" and len(parts) == 2:
        X = load_poset(_resolve(parts[1], path, no))
        (pairs,) = _parse_pairs(lines[1:], {"cong": (X.n, X.n)}, path)
        # the closure of a matrix that holds the order is a congruence
        return ExRegObject._trusted(X, closure(X.leq | pairs))
    if parts[0] == "morphism" and len(parts) == 3:
        src, tgt = (_load_endpoint(ref, path, no) for ref in parts[1:])
        lower, upper = _parse_pairs(
            lines[1:], {"lower": (src.X.n, tgt.X.n), "upper": (tgt.X.n, src.X.n)}, path
        )
        return validate_morphism(
            src, tgt, Relation(src.X, tgt.X, lower), Relation(tgt.X, src.X, upper)
        )
    raise ParseError(path, no, "expected 'object <posetfile>' or 'morphism <src> <tgt>'")


def load_exreg(path, kind=None):
    return parse_exreg(_read(path), path, kind)
