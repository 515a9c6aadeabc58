"""``FinPoset.__init__``, ``FinPoset.from_covers`` and ``formats._close_poset`` as
they were before a cycle was named from its closure's rows: the validating
constructor scans ``leq & leq.T`` (in stripes, by ``_meet_transpose``, kept here
since ``posrel.poset`` no longer has it) before its transitivity check, and
``from_covers`` and the ``.poset`` read build a validating ``FinPoset`` to name a
cycle.  Kept verbatim, apart from this docstring, the imports, and ``__init__`` and
``from_covers`` standing as methods of a subclass of ``FinPoset``, as the oracle
that ``test_first_cycle.py`` holds the new ones to: the same orders, kept rows and
errors (class, message and line)."""

import numpy as np

from posrel.formats import ParseError
from posrel.poset import (
    AntisymmetryViolation,
    FinPoset as _FinPoset,
    _bit_rows,
    _bool_rows,
    _close_rows,
    _indices,
    checked_pairs,
    close_rows_with,
    shortest_cyclic_prefix,
)


def _meet_transpose(mat):
    """``mat & mat.T`` for a square boolean matrix, in stripes of 512 columns.  A
    transposed read of a whole matrix past the cache is slow: 29 ms for a 2048 x 2048
    matrix on a 2 vCPU host, against 5 ms in stripes."""
    out = np.empty_like(mat)
    for s in range(0, len(mat), 512):
        np.logical_and(mat[:, s:s + 512], mat[s:s + 512].T, out=out[:, s:s + 512])
    return out


class FinPoset(_FinPoset):
    __slots__ = ()

    def __init__(self, leq, labels=None):
        leq = np.asarray(leq, dtype=bool)
        n = leq.shape[0] if leq.ndim else 0
        if leq.shape != (n, n):
            raise ValueError(f"order matrix must be square, got {leq.shape}")
        if not leq[np.diag_indices(n)].all():
            raise ValueError("order matrix is not reflexive")
        sym = _meet_transpose(leq)
        sym[np.diag_indices(n)] = False
        if sym.any():
            # argmax of a boolean array is its first True cell, found without listing the others
            raise AntisymmetryViolation.between(*divmod(int(sym.argmax()), n))
        rows = _bit_rows(leq)
        # a reflexive matrix is transitive iff it equals its own closure, row for row
        if _close_rows(rows)[0] != rows:
            raise ValueError("order matrix is not transitive")
        self._fill(leq, labels, rows)

    @classmethod
    def from_covers(cls, n, pairs, labels=None):
        """Poset generated by ``pairs`` (i <= j) through ``close_rows_with``; a cycle raises the
        validating constructor's ``AntisymmetryViolation`` for the closure's first 2-cycle."""
        (n,) = _indices([n], "element count")
        if n < 0:
            raise ValueError(f"element count must be at least 0, got {n}")
        up, cyclic = close_rows_with([1 << v for v in range(n)], *checked_pairs((n, n), pairs))
        if cyclic:
            return cls(_bool_rows(up), labels)  # reflexive, so it fails antisymmetry
        # a closure is reflexive and transitive, and with no cycle it is antisymmetric
        return cls._trusted(_bool_rows(up), labels, up)


def _close_poset(n, rows, cols, pair_nos, labels, path):
    """The poset generated by the pairs (rows[k] <= cols[k]), read at lines ``pair_nos``.
    A cycle is refused at the line that closes it: the last of the shortest cyclic prefix."""
    up, cyclic = close_rows_with([1 << v for v in range(n)], rows, cols)
    if not cyclic:
        # a closure is reflexive and transitive, and with no cycle it is antisymmetric
        return FinPoset._trusted(_bool_rows(up), labels, up)
    reach, closing = shortest_cyclic_prefix(up, rows, cols)
    try:
        FinPoset(_bool_rows(reach))  # reflexive, so refused for the prefix's first 2-cycle
    except AntisymmetryViolation as cycle:
        raise ParseError(path, pair_nos[closing - 1], str(cycle)) from cycle
