"""Line-oriented text formats and DOT export.

Formats (blank lines and ``#`` comments are ignored everywhere):

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

from .poset import MAX_ELEMENTS, FinPoset, MonotoneMap
from .relation import Relation
from .exreg import Congruence, ExRegMorphism, ExRegObject, validate_morphism


class ParseError(ValueError):
    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


def _lines(text, path):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


def _int(tok, path, no):
    try:
        return int(tok)
    except ValueError:
        raise ParseError(path, no, f"expected an integer, got {tok!r}") from None


def parse_poset(text, path="<string>"):
    lines = list(_lines(text, path))
    if not lines:
        raise ParseError(path, 1, "empty poset file")
    no, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "poset":
        raise ParseError(path, no, "expected header 'poset <n>'")
    n = _int(parts[1], path, no)
    if n > MAX_ELEMENTS:
        raise ParseError(path, no, f"poset of {n} elements exceeds the limit of {MAX_ELEMENTS}")
    pairs = []
    labels = None
    for no, line in lines[1:]:
        toks = line.split()
        if len(toks) == 3 and toks[1] == "<":
            i, j = _int(toks[0], path, no), _int(toks[2], path, no)
            if not (0 <= i < n and 0 <= j < n):
                raise ParseError(path, no, f"element out of range 0..{n - 1}")
            pairs.append((i, j))
        elif len(toks) == 3 and toks[0] == "label":
            if labels is None:
                labels = [str(k) for k in range(n)]
            i = _int(toks[1], path, no)
            if not 0 <= i < n:
                raise ParseError(path, no, f"element out of range 0..{n - 1}")
            labels[i] = toks[2]
        else:
            raise ParseError(path, no, f"unrecognized line {line!r}")
    try:
        return FinPoset.from_covers(n, pairs, labels=labels)
    except ValueError as exc:
        raise ParseError(path, no if lines[1:] else lines[0][0], str(exc)) from exc


def serialize_poset(P):
    out = [f"poset {P.n}"]
    for i, j in P.covers():
        out.append(f"{i} < {j}")
    if P.labels is not None:
        for i, lab in enumerate(P.labels):
            if lab != str(i):
                out.append(f"label {i} {lab}")
    return "\n".join(out) + "\n"


def load_poset(path):
    with open(path) as fh:
        return parse_poset(fh.read(), path)


def _resolve(ref, base_path):
    if os.path.isabs(ref):
        return ref
    return os.path.join(os.path.dirname(os.path.abspath(base_path)), ref)


def _parse_pairs(lines, keyword, n_dom, n_cod, path, sep="~"):
    mat = np.zeros((n_dom, n_cod), dtype=bool)
    rest = []
    for no, line in lines:
        toks = line.split()
        if len(toks) == 4 and toks[0] == keyword and toks[2] == sep:
            i, j = _int(toks[1], path, no), _int(toks[3], path, no)
            if not (0 <= i < n_dom and 0 <= j < n_cod):
                raise ParseError(path, no, "pair element out of range")
            mat[i, j] = True
        else:
            rest.append((no, line))
    return mat, rest


def parse_rel(text, path="<string>"):
    lines = list(_lines(text, path))
    if not lines:
        raise ParseError(path, 1, "empty relation file")
    no, header = lines[0]
    parts = header.split()
    if len(parts) != 3 or parts[0] != "rel":
        raise ParseError(path, no, "expected header 'rel <domfile> <codfile>'")
    dom = load_poset(_resolve(parts[1], path))
    cod = load_poset(_resolve(parts[2], path))
    mat = np.zeros((dom.n, cod.n), dtype=bool)
    for no, line in lines[1:]:
        toks = line.split()
        if len(toks) != 3 or toks[1] != "~":
            raise ParseError(path, no, f"expected 'i ~ j', got {line!r}")
        i, j = _int(toks[0], path, no), _int(toks[2], path, no)
        if not (0 <= i < dom.n and 0 <= j < cod.n):
            raise ParseError(path, no, "pair element out of range")
        mat[i, j] = True
    return Relation(dom, cod, mat)


def serialize_rel(R, dom_ref, cod_ref):
    out = [f"rel {dom_ref} {cod_ref}"]
    for i, j in R.pair_list():
        out.append(f"{i} ~ {j}")
    return "\n".join(out) + "\n"


def load_rel(path):
    with open(path) as fh:
        return parse_rel(fh.read(), path)


def parse_exreg(text, path="<string>"):
    lines = list(_lines(text, path))
    if not lines:
        raise ParseError(path, 1, "empty file")
    no, header = lines[0]
    parts = header.split()
    if parts[0] == "object" and len(parts) == 2:
        X = load_poset(_resolve(parts[1], path))
        mat, rest = _parse_pairs(lines[1:], "cong", X.n, X.n, path)
        if rest:
            bad_no, bad = rest[0]
            raise ParseError(path, bad_no, f"unrecognized line {bad!r}")
        return ExRegObject(X, Congruence.from_pairs(X, [tuple(p) for p in np.argwhere(mat)]))
    if parts[0] == "morphism" and len(parts) == 3:
        src = load_exreg(_resolve(parts[1], path))
        tgt = load_exreg(_resolve(parts[2], path))
        if not isinstance(src, ExRegObject) or not isinstance(tgt, ExRegObject):
            raise ParseError(path, no, "morphism endpoints must be object files")
        lower, rest = _parse_pairs(lines[1:], "lower", src.X.n, tgt.X.n, path)
        upper, rest = _parse_pairs(rest, "upper", tgt.X.n, src.X.n, path)
        if rest:
            bad_no, bad = rest[0]
            raise ParseError(path, bad_no, f"unrecognized line {bad!r}")
        return validate_morphism(
            src, tgt, Relation(src.X, tgt.X, lower), Relation(tgt.X, src.X, upper)
        )
    raise ParseError(path, no, "expected 'object <posetfile>' or 'morphism <src> <tgt>'")


def serialize_exreg_object(obj, poset_ref):
    out = [f"object {poset_ref}"]
    for i, j in obj.rel().pair_list():
        if not obj.X.leq[i, j]:  # order pairs are implied by closure
            out.append(f"cong {i} ~ {j}")
    return "\n".join(out) + "\n"


def serialize_exreg_morphism(R, src_ref, tgt_ref):
    out = [f"morphism {src_ref} {tgt_ref}"]
    for i, j in R.lower.pair_list():
        out.append(f"lower {i} ~ {j}")
    for j, i in R.upper.pair_list():
        out.append(f"upper {j} ~ {i}")
    return "\n".join(out) + "\n"


def load_exreg(path):
    with open(path) as fh:
        return parse_exreg(fh.read(), path)


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
    for i, j in R.pair_list():
        out.append(f"  d{i} -> c{j};")
    out.append("}")
    return "\n".join(out) + "\n"
