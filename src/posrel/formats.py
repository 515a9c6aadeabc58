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

Serializers emit exactly this shape, sorted, so output re-parses equal;
``serialize_poset`` refuses a label that would not read back as itself.
An .exreg file's kind is the first word of its header.

Pair lines in the serializers' shape are read at array speed (``_array_pairs``);
any other text is read line by line, and every error comes from that reader.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .poset import (
    MAX_ELEMENTS,
    AntisymmetryViolation,
    FinPoset,
    InputError,
    _bool_rows,
    close_over,
    close_rows_with,
    first_cycle,
    index_mask,
    shortest_cyclic_prefix,
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


def _lines(text, start=1):
    """The numbered lines of ``text`` that are not blank once comments are cut,
    the first numbered ``start``."""
    return [
        (no, line)
        for no, raw in enumerate(text.splitlines(), start=start)
        if (line := raw.split("#", 1)[0].strip())
    ]


def _head(text):
    """``(header, rest)``: the first of the ``_lines`` of ``text``, or None for text
    with none, and what follows its line as ``(body, start)``, the text and the
    number of its first line, so that ``_lines(*rest)`` are the lines after it."""
    head, newline, body = text.partition("\n")
    if newline and _lines(head) == [(1, head)]:
        # the header as it stands on the first line: the rest is not split here
        return (1, head), (body, 2)
    raws = text.splitlines(keepends=True)
    for k, raw in enumerate(raws):
        if line := raw.split("#", 1)[0].strip():
            return (k + 1, line), ("".join(raws[k + 1:]), k + 2)
    return None, ("", 1)


def _array_pairs(body, keywords, sep, shapes):
    """The index columns ``(rows, cols)`` of the pair lines ``body``, one per keyword,
    read at array speed, when ``body`` is in the serializers' shape: for each keyword
    in turn (each ends in a space, or is empty), lines ``<keyword>i <sep> j`` whose
    indices are at most 9 ASCII digits and in range of that keyword's shape.  For any
    other body, returns None: the line reader then reads it and finds any error.

    One ``re.fullmatch`` checks the shape.  The keywords hold no digit, so with every
    other byte a space the indices are the digit runs in order, which numpy's text
    reader converts in one call; numpy checks their range."""
    pair = "[0-9]{1,9} " + re.escape(sep) + " [0-9]{1,9}\n"
    # an empty group marks where each keyword's lines after the first keyword's start
    shape = "()".join(f"(?:{kw}{pair})*" for kw in keywords)
    match = re.fullmatch(shape, body)
    if not match:
        return None
    spaces = bytes(c if 48 <= c <= 57 else 32 for c in range(256))
    flat = np.fromstring(body.encode("ascii").translate(spaces), dtype=np.intp, sep=" ")
    starts = [0, *(match.start(k) for k in range(1, len(keywords))), len(body)]
    out, first = [], 0
    for k, (height, width) in enumerate(shapes):
        last = first + 2 * body.count("\n", starts[k], starts[k + 1])
        rows, cols = flat[first:last:2], flat[first + 1:last:2]
        if len(rows) and (rows.max() >= height or cols.max() >= width):
            return None
        out.append((rows, cols))
        first = last
    return out


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
    first, (body, start) = _head(text)
    if first is None:
        raise ParseError(path, 1, "empty poset file")
    no, header = first
    parts = header.split()
    if len(parts) != 2 or parts[0] != "poset":
        raise ParseError(path, no, "expected header 'poset <n>'")
    n = _int(parts[1], path, no)
    if n < 0:
        raise ParseError(path, no, f"element count must be at least 0, got {n}")
    if n > MAX_ELEMENTS:
        raise ParseError(path, no, f"poset of {n} elements exceeds the limit of {MAX_ELEMENTS}")
    columns = _array_pairs(body, ("",), "<", [(n, n)])
    if columns:
        ((rows, cols),) = columns
        return _close_poset(n, rows, cols, range(start, start + len(rows)), None, path)
    rows, cols, pair_nos = [], [], []
    labels = None
    for no, line in _lines(body, start):
        toks = line.split()
        if len(toks) == 3 and toks[1] == "<":
            try:
                i, j = int(toks[0]), int(toks[2])
                if not (0 <= i < n and 0 <= j < n):
                    raise ValueError
            except ValueError:
                raise _bad_ints(toks[::2], f"element out of range 0..{n - 1}", path, no) from None
            rows.append(i)
            cols.append(j)
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
    return _close_poset(n, rows, cols, pair_nos, labels, path)


def _close_poset(n, rows, cols, pair_nos, labels, path):
    """The poset generated by the pairs (rows[k] <= cols[k]), read at lines ``pair_nos``.
    A cycle is refused at the line that closes it, the last of the shortest cyclic prefix,
    naming that prefix's ``first_cycle``."""
    up, cyclic = close_rows_with([1 << v for v in range(n)], rows, cols)
    if not cyclic:
        # a closure is reflexive and transitive, and with no cycle it is antisymmetric
        return FinPoset._trusted(_bool_rows(up), labels, up)
    reach, closing = shortest_cyclic_prefix(up, rows, cols)
    cycle = AntisymmetryViolation.between(*first_cycle(reach))
    raise ParseError(path, pair_nos[closing - 1], str(cycle)) from cycle


def serialize_poset(P):
    """The .poset text of ``P``.  A label that would not read back as itself, one
    that is not a string of one token without a ``#``, raises ``ValueError``."""
    labels = []
    for i, lab in enumerate(P.labels or ()):
        if not isinstance(lab, str) or lab.split() != [lab] or "#" in lab:
            raise ValueError(f"label {lab!r} of element {i} would not read back")
        if lab != str(i):
            labels.append(f"label {i} {lab}")
    return "\n".join([f"poset {P.n}"] + [f"{i} < {j}" for i, j in P.covers()] + labels) + "\n"


def load_poset(path):
    return parse_poset(_read(path), path)


def _resolve(ref, base_path, no):
    if "\0" in ref:
        raise ParseError(base_path, no, "file name holds a NUL byte")
    # an absolute ref is returned as it is: join drops the parts before an absolute one
    return os.path.join(os.path.dirname(os.path.abspath(base_path)), ref)


def _parse_pairs(rest, shapes, path):
    """The index columns ``(rows, cols)`` of the ``<keyword> i ~ j`` lines ``rest``
    (the ``(body, start)`` of ``_head``), one pair per keyword of ``shapes`` (which
    maps each keyword to its matrix's shape): at array speed for a body in the
    serializers' shape, else line by line, in one pass.

    The error raised is the first one met by reading the lines once per
    keyword, in the order of ``shapes``, and then once for a line that is no
    keyword's: the first bad pair of the first keyword wins, then that of the
    next, then the first unrecognized line."""
    columns = _array_pairs(rest[0], [f"{keyword} " for keyword in shapes], "~", shapes.values())
    if columns:
        return columns
    found = {keyword: ([], []) for keyword in shapes}
    bad = {}
    unrecognized = None
    for no, line in _lines(*rest):
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
    return [found[keyword] for keyword in shapes]


def _rel_header(first, path):
    """The domain and codomain files that the header ``first`` of a .rel file names,
    as ``_head`` returns it."""
    if first is None:
        raise ParseError(path, 1, "empty relation file")
    no, header = first
    parts = header.split()
    if len(parts) != 3 or parts[0] != "rel":
        raise ParseError(path, no, "expected header 'rel <domfile> <codfile>'")
    return parts[1], parts[2]


def rel_refs(path):
    """The domain and codomain files, as written, that the .rel file at ``path`` names."""
    return _rel_header(_head(_read(path))[0], path)


def parse_rel(text, path="<string>"):
    first, (body, start) = _head(text)
    dom, cod = (load_poset(_resolve(ref, path, first[0])) for ref in _rel_header(first, path))
    columns = _array_pairs(body, ("",), "~", [(dom.n, cod.n)])
    if columns:
        ((rows, cols),) = columns
        return Relation(dom, cod, index_mask((dom.n, cod.n), rows, cols))
    rows, cols = [], []
    for no, line in _lines(body, start):
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
    return Relation(dom, cod, index_mask((dom.n, cod.n), rows, cols))


def serialize_rel(R, dom_ref, cod_ref):
    return f"rel {dom_ref} {cod_ref}\n" + _pair_lines("%d ~ %d\n", R.pairs)


def load_rel(path):
    return parse_rel(_read(path), path)


def _kind(first):
    """The kind of .exreg file whose header ``_head`` returned: its first word."""
    return first[1].split()[0] if first else None


def _load_endpoint(ref, path, no):
    """The object file ``ref`` named at line ``no`` of ``path``.  A morphism file
    is refused from its header, before its own endpoints are loaded, so a
    file that reaches itself through its endpoints cannot recurse."""
    ref_path = _resolve(ref, path, no)
    first, rest = _head(_read(ref_path))
    if _kind(first) == "morphism":
        raise ParseError(path, no, "morphism endpoints must be object files")
    return _parse_exreg_lines(first, rest, ref_path)


def parse_exreg(text, path="<string>", kind=None):
    """The object or morphism that ``text`` holds.  Given a ``kind``, "object" or
    "morphism", a header of the other kind is refused at its line, before any
    file it names is opened."""
    first, rest = _head(text)
    found = _kind(first)
    if kind is not None and found != kind and found in ("object", "morphism"):
        article = "an" if kind == "object" else "a"
        raise ParseError(path, first[0], f"expected {article} {kind} file")
    return _parse_exreg_lines(first, rest, path)


def _parse_exreg_lines(first, rest, path):
    """The object or morphism of the file at ``path`` whose header and rest ``_head`` returned."""
    if first is None:
        raise ParseError(path, 1, "empty file")
    no, header = first
    parts = header.split()
    if parts[0] == "object" and len(parts) == 2:
        X = load_poset(_resolve(parts[1], path, no))
        (cells,) = _parse_pairs(rest, {"cong": (X.n, X.n)}, path)
        # the closure of the order and some pairs is a congruence
        return ExRegObject._trusted(X, close_over(X, *cells))
    if parts[0] == "morphism" and len(parts) == 3:
        src, tgt = (_load_endpoint(ref, path, no) for ref in parts[1:])
        shapes = {"lower": (src.X.n, tgt.X.n), "upper": (tgt.X.n, src.X.n)}
        lower, upper = (
            index_mask(shape, *cells)
            for shape, cells in zip(shapes.values(), _parse_pairs(rest, shapes, path))
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


def load_exreg(path, kind=None):
    return parse_exreg(_read(path), path, kind)


# -- DOT export ---------------------------------------------------------------


def _dot_label(text):
    """``text`` as a quoted DOT string, with ``\\`` and ``"`` escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot_poset(P, name="poset"):
    """Hasse diagram: nodes plus cover edges, drawn bottom-up."""
    out = [f"digraph {name} {{", "  rankdir=BT;"]
    for i in range(P.n):
        out.append(f"  n{i} [label={_dot_label(P.label(i))}];")
    for i, j in P.covers():
        out.append(f"  n{i} -> n{j};")
    out.append("}")
    return "\n".join(out) + "\n"


def dot_relation(R, name="rel"):
    """Bipartite picture of a relation between two carriers."""
    out = [f"digraph {name} {{", "  rankdir=LR;"]
    for i in range(R.dom.n):
        out.append(f"  d{i} [label={_dot_label(R.dom.label(i))}];")
    for j in range(R.cod.n):
        out.append(f"  c{j} [label={_dot_label(R.cod.label(j))}];")
    return "\n".join(out) + "\n" + _pair_lines("  d%d -> c%d;\n", R.pairs) + "}\n"
