"""The ways from pairs into ``_close_rows`` as they were before ``close_rows_with``
became the one entry, with ``linear_extension`` and ``walk_monotone_maps`` as they
were before they read the domain's up-set rows.  Kept verbatim, apart from this
docstring, the imports, and ``_closing`` and ``from_covers`` standing as methods of
a subclass of ``FinPoset`` (which no longer has ``_closing``), as the oracle that
``test_one_entry.py`` holds the new ones to: the same orders, kept rows, errors and
draws."""

import heapq

import numpy as np

from posrel.formats import ParseError
from posrel.poset import (
    AntisymmetryViolation,
    FinPoset as _FinPoset,
    MonotoneMap,
    _bit_rows,
    _bool_rows,
    _close_rows,
    checked_pairs,
    index_mask,
    up_rows,
)


class FinPoset(_FinPoset):
    __slots__ = ()

    @classmethod
    def _closing(cls, succ, labels=None):
        """The poset whose order is the closure of the int rows ``succ`` (bit j of
        row i for i <= j, every j below len(succ)), with the closure's rows; a
        cycle raises the validating constructor's ``AntisymmetryViolation`` for
        the closure's first 2-cycle."""
        rows, cyclic = _close_rows(succ)
        leq = _bool_rows(rows)
        if cyclic:
            return cls(leq, labels)  # reflexive, so it fails antisymmetry, not transitivity
        # a closure is reflexive and transitive, and with no cycle it is antisymmetric
        return cls._trusted(leq, labels, rows)

    @classmethod
    def from_covers(cls, n, pairs, labels=None):
        """Poset generated by ``pairs`` (i <= j) through ``_close_rows``; a cycle raises the
        validating constructor's ``AntisymmetryViolation`` for the closure's first 2-cycle."""
        succ = [0] * n
        for i, j in zip(*checked_pairs((n, n), pairs)):
            succ[i] |= 1 << j
        return cls._closing(succ, labels)


def close_over(P, rows, cols):
    """The reflexive-transitive closure of P's order together with the pairs
    (rows[k] <= cols[k]), indices in range: ``P.leq`` itself, with no closure
    pass, when the order holds every pair; else ``_close_rows`` of P's up-set
    rows with the pairs ORed in.  Behind ``ExRegObject.from_pairs``,
    ``coinserter`` and the ``.exreg`` object read."""
    up = up_rows(P)
    if len(rows) > 4 * P.n:
        # so many pairs that packing them into the order's matrix beats an OR per pair at every n
        succ = _bit_rows(P.leq | index_mask((P.n, P.n), rows, cols))
    else:
        succ = list(up)
        for i, j in zip(rows, cols):
            succ[int(i)] |= 1 << int(j)  # int: a numpy index would shift in 64 bits
    return P.leq if tuple(succ) == up else _bool_rows(_close_rows(succ)[0])


def shortest_cyclic_prefix(n, rows, cols):
    """The ``closure`` of the pairs (rows[k] <= cols[k]) on n elements, its rows
    and None when they close no cycle; else the closure of the shortest prefix of
    the pairs that closes one, its rows and that prefix's length.  Every index
    must be in range.

    A cycle stays closed as pairs are added, so a binary search finds the prefix.
    The closure of a longer prefix is that of a shorter one's closure and the pairs
    after it, so each probe closes the last acyclic probe's rows with the pairs it
    adds, rather than all of its prefix again."""
    rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
    reach, cyclic = _close_rows(_bit_rows(index_mask((n, n), rows, cols)))
    if not cyclic:
        return _bool_rows(reach), reach, None
    lo, hi = 0, len(rows)  # pairs[:lo] close no cycle, pairs[:hi] close one, closed in reach
    closed = [1 << v for v in range(n)]  # the closure of pairs[:lo]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        succ = closed.copy()
        for i, j in zip(rows[lo:mid].tolist(), cols[lo:mid].tolist()):
            succ[i] |= 1 << j
        probe, cyclic = _close_rows(succ)
        if cyclic:
            hi, reach = mid, probe
        else:
            lo, closed = mid, probe
    return _bool_rows(reach), reach, hi


def _close_poset(n, rows, cols, pair_nos, labels, path):
    """The poset generated by the pairs (rows[k] <= cols[k]), read at lines ``pair_nos``.
    A cycle is refused at the line that closes it: the last of the shortest cyclic prefix."""
    leq, up, closing = shortest_cyclic_prefix(n, rows, cols)
    if closing is None:
        # a closure is reflexive and transitive, and with no cycle it is antisymmetric
        return FinPoset._trusted(leq, labels, up)
    try:
        FinPoset(leq)  # reflexive, so refused for the first 2-cycle of the shortest cyclic prefix
    except AntisymmetryViolation as cycle:
        raise ParseError(path, pair_nos[closing - 1], str(cycle)) from cycle


def gen_poset(rng, n, p=0.35):
    """Random poset: upper-triangular edges with probability p, drawn into the
    int rows ``FinPoset._closing`` closes, bit j of row i for the edge i < j."""
    succ = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                succ[i] |= 1 << j
    # every edge goes up the numbering, so the closure has no cycle
    return FinPoset._closing(succ)


def linear_extension(poset):
    """A topological order (stable: smallest index first), by Kahn's algorithm over a heap."""
    leq = poset.leq.tolist()
    below = [sum(col) - col[i] for i, col in enumerate(zip(*leq))]
    ready = [i for i in range(poset.n) if not below[i]]
    out = []
    while ready:
        i = heapq.heappop(ready)
        out.append(i)
        for j, up in enumerate(leq[i]):
            if up and j != i:
                below[j] -= 1
                if not below[j]:
                    heapq.heappush(ready, j)
    return out


def walk_monotone_maps(X, Y, pick):
    """The monotone maps X -> Y, one at a time, depth first.

    Walks ``linear_extension(X)``.  The options of each element are the
    elements of Y above the values already given to the elements below it,
    in index order; ``pick(options)`` removes and returns the value to try
    next.  A level with no option left is popped and the latest level that
    still has one is redrawn.  The up-sets of Y are its ``up_rows``, the
    bits of ints, so a level's options cost one AND per element below."""
    order = linear_extension(X)
    leq = X.leq.tolist()
    below = [[j for j in order[:k] if leq[j][x]] for k, x in enumerate(order)]
    up = up_rows(Y)
    assign = [None] * X.n
    untried = []  # for each element of ``order`` given a value, the values not tried yet
    while True:
        k = len(untried)
        if k == X.n:
            # every element below x comes before x in ``order``, and x's value lies above theirs
            yield MonotoneMap._trusted(X, Y, assign)
        else:
            mask = (1 << Y.n) - 1
            for j in below[k]:
                mask &= up[assign[j]]
            untried.append([c for c in range(Y.n) if mask >> c & 1])
        while untried and not untried[-1]:  # no value left here: redraw an earlier one
            untried.pop()
        if not untried:
            return
        assign[order[len(untried) - 1]] = pick(untried[-1])
