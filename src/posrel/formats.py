"""Line-oriented text formats and DOT export.

Formats (files are read as UTF-8; blank lines and ``#`` comments are
ignored everywhere):

  .poset   ``poset <n>`` then ``i < j`` generating lines and optional
           ``label i name`` lines.
  .rel     ``rel <domfile> <codfile>`` then ``i ~ j`` pair lines; the
           referenced files are resolved relative to the .rel file.
  .exreg   either ``object <posetfile>`` with ``cong i ~ j`` lines
           (congruence closure is applied), or
           ``morphism <srcfile> <tgtfile>`` with ``lower i ~ j`` and
           ``upper j ~ i`` lines.

Serializers emit exactly this shape, sorted, so output re-parses equal.
"""

from __future__ import annotations

import os

import numpy as np

from .poset import (
    MAX_ELEMENTS,
    AntisymmetryViolation,
    FinPoset,
    InputError,
    closure,
)
from .relation import Relation
from .exreg import ExRegObject, validate_morphism


class ParseError(InputError):
    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


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


def _pair_lines(fmt, mask):
    """``fmt`` (two ``%d`` fields) once per True entry of ``mask``, row-major."""
    rows, cols = np.nonzero(mask)
    flat = np.empty(2 * len(rows), dtype=np.intp)
    flat[0::2], flat[1::2] = rows, cols
    return fmt * len(rows) % tuple(flat.tolist())


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
    try:
        return FinPoset.from_covers(n, pairs, labels)
    except AntisymmetryViolation as exc:
        cycle = exc
    # A cycle stays closed as pairs are added, so the shortest cyclic prefix
    # of the pair lines ends at the line closing it.
    lo, hi = 0, len(pairs)  # pairs[:lo] have no cycle, pairs[:hi] have one
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            FinPoset.from_covers(n, pairs[:mid])
        except AntisymmetryViolation as exc:
            hi, cycle = mid, exc
        else:
            lo = mid
    raise ParseError(path, pair_nos[hi - 1], str(cycle)) from cycle


def serialize_poset(P):
    out = [f"poset {P.n}"] + [f"{i} < {j}" for i, j in P.covers()]
    if P.labels is not None:
        for i, lab in enumerate(P.labels):
            if lab != str(i):
                out.append(f"label {i} {lab}")
    return "\n".join(out) + "\n"


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


def rel_refs(path):
    """The domain and codomain files, as written, that the .rel file at ``path`` names."""
    return _rel_header(_lines(_read(path)), path)


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


def serialize_rel(R, dom_ref, cod_ref):
    return f"rel {dom_ref} {cod_ref}\n" + _pair_lines("%d ~ %d\n", R.pairs)


def load_rel(path):
    return parse_rel(_read(path), path)


def _load_endpoint(ref, path, no):
    """The object file ``ref`` named at line ``no`` of ``path``.  A morphism file
    is refused from its header, before its own endpoints are loaded, so a
    file that reaches itself through its endpoints cannot recurse."""
    ref_path = _resolve(ref, path, no)
    lines = _lines(_read(ref_path))
    if lines and lines[0][1].split()[0] == "morphism":
        raise ParseError(path, no, "morphism endpoints must be object files")
    return _parse_exreg_lines(lines, ref_path)


def parse_exreg(text, path="<string>"):
    return _parse_exreg_lines(_lines(text), path)


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


def serialize_exreg_object(obj, poset_ref):
    # order pairs are implied by closure
    return f"object {poset_ref}\n" + _pair_lines("cong %d ~ %d\n", obj.E.pairs & ~obj.X.leq)


def serialize_exreg_morphism(R, src_ref, tgt_ref):
    return "".join([
        f"morphism {src_ref} {tgt_ref}\n",
        _pair_lines("lower %d ~ %d\n", R.lower.pairs),
        _pair_lines("upper %d ~ %d\n", R.upper.pairs),
    ])


def load_exreg(path):
    return parse_exreg(_read(path), path)


# -- DOT export ---------------------------------------------------------------


def dot_poset(P, name="poset"):
    """Hasse diagram: nodes plus cover edges, drawn bottom-up."""
    out = [f"digraph {name} {{", "  rankdir=BT;"]
    for i in range(P.n):
        out.append(f'  n{i} [label="{P.label(i)}"];')
    for i, j in P.covers():
        out.append(f"  n{i} -> n{j};")
    out.append("}")
    return "\n".join(out) + "\n"


def dot_relation(R, name="rel"):
    """Bipartite picture of a relation between two carriers."""
    out = [f"digraph {name} {{", "  rankdir=LR;"]
    for i in range(R.dom.n):
        out.append(f'  d{i} [label="{R.dom.label(i)}"];')
    for j in range(R.cod.n):
        out.append(f'  c{j} [label="{R.cod.label(j)}"];')
    return "\n".join(out) + "\n" + _pair_lines("  d%d -> c%d;\n", R.pairs) + "}\n"
