"""Finite posets, monotone maps, and their finite weighted (co)limits.

Conventions used throughout:

  - Elements of a poset of size n are the indices 0..n-1; ``labels`` is
    cosmetic only and never affects equality or any construction.
  - ``leq`` is an n x n boolean matrix with leq[i, j] iff i <= j.
  - A pair set is a boolean mask; carriers over pairs list its True cells
    in row-major (lexicographic) order, so repeated runs are bit-identical.
  - The empty poset is a legal value everywhere.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np


class InputError(ValueError):
    """The input is not a valid poset, relation or object-with-congruence.

    The command line exits 2 on one; every exception for bad input subclasses it."""


class LawFailure(ValueError):
    """A law of the calculus of relations fails on valid input.

    The command line exits 1 on one; every exception for a failed law subclasses it."""


class AntisymmetryViolation(InputError):
    """Raised when a generating relation closes up into a 2-cycle."""

    @classmethod
    def between(cls, i, j):
        return cls(f"elements {i} and {j} form a 2-cycle")


class NotMonotone(InputError):
    pass


class TooLarge(InputError):
    """Raised before building a poset by a public constructor, a pair-set carrier (by
    ``pair_span``, which builds them all) or a power of more than ``MAX_ELEMENTS``
    elements, before a harness run at a bound past it, or before enumerating more than
    ``MAX_MAPS`` maps."""


MAX_ELEMENTS = 2048  # largest carrier read or built; keeps an n x n float32 temporary at 16 MiB
MAX_MAPS = 2**13  # largest hom-set enumerated; a k x k pointwise order is then at most 64 MiB
BLAS_MADDS = 8192  # multiply-adds from which float32 BLAS beats numpy's bool loop


def bool_mat(a, b):
    """Exact boolean matrix product: out[i, k] iff some j has a[i, j] and b[j, k].

    Stacked operands follow matmul: the last two axes are the matrices and the
    leading axes broadcast, so ``bool_mat(E, L)`` with L of shape (k, m, n)
    multiplies E into each of the k matrices.  Below ``BLAS_MADDS`` multiply-adds,
    counted over the whole stack (one matrix against a stack, or two stacks of
    one length), this is numpy's boolean matmul (an OR of ANDs).  From there on
    the operands are cast to float32 and multiplied by BLAS sgemm, which only
    adds non-negative 0/1 products: rounding never takes a positive sum to 0 and
    overflow gives inf, so ``> 0`` is exact at every size."""
    a, b = np.asarray(a, bool), np.asarray(b, bool)
    # the one matrix a meets each matrix of b, or each matrix of a meets one matrix of b
    madds = a.shape[-2] * b.size if a.ndim < b.ndim else a.size * b.shape[-1]
    if madds < BLAS_MADDS:
        return a @ b
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0


def transitive_closure(mat):
    """Reflexive-transitive closure of a boolean square matrix: ``mat | I``
    squared through ``bool_mat`` until it stops growing (Fischer & Meyer 1971),
    at most ceil(log2 n) + 1 products."""
    out = np.asarray(mat, bool) | np.eye(mat.shape[0], dtype=bool)
    while True:
        step = bool_mat(out, out)
        # equal-shape bool arrays are equal iff their bytes are (tobytes is in C order)
        if step.tobytes() == out.tobytes():
            return out
        out = step


def _bit_rows(mat):
    """The rows of a boolean matrix as ints: bit j of row i is ``mat[i, j]``."""
    packed = np.packbits(mat, axis=1, bitorder="little")
    data, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[k:k + width], "little") for k in range(0, len(data), width or 1)]


def closure(rel):
    """The reflexive-transitive closure of a square boolean relation, by ``_close_rows``."""
    return _bool_rows(_close_rows(_bit_rows(rel))[0])


def _bool_rows(rows):
    """The square boolean matrix whose rows are the ints ``rows``, as ``_bit_rows`` packs them."""
    n = len(rows)
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join([row.to_bytes(width, "little") for row in rows]), np.uint8)
    return np.unpackbits(packed.reshape(n, width), axis=1, count=n, bitorder="little").view(bool)


def _close_rows(succ):
    """The reflexive-transitive closure of the relation whose rows are the ints
    ``succ`` (bit j of row i for i R j), as rows of the same form, and whether it
    has a cycle through two or more elements.

    One depth-first pass (Purdom, "A transitive closure algorithm", 1970)
    that finds the strongly connected components by Tarjan's lowlinks and
    closes them as it leaves them (Nuutila, "Efficient transitive closure
    computation in large digraphs", 1995).  Each row is held as the bits of
    an int, and roots are taken from the last element down.  An element's
    row starts as its own bit; its successors are read off its relation row
    nearest first (those below it from the highest, then those above it from
    the lowest), skipping those the row already reaches.  A successor not
    yet entered is entered first.  One already left has its row ORed in and
    its lowlink taken: the final row of a closed component, or the partial
    row of a member of an open one.  One entered but not left is on the
    stack, in the same component: it gives its index and its bit is
    dropped.  A row holds only its own element and elements already left, so
    no successor on the stack is skipped.  Leaving a component's root ORs its
    members' rows and gives every member that row.  When every pair goes one
    way along the numbering, the nearest successor still to read is reached
    from no other, so an element takes one OR per successor that no other
    successor reaches: O(n + covers) ORs of n-bit ints.  A cycle (self-loops
    aside) is a component of two or more members: in the result, a pair
    i != j where each row holds the other's bit."""
    n = len(succ)
    cyclic = False
    reach = [0] * n  # 0 until entered, -1 until left, then the row
    low = [0] * n  # the index while entered, the lowlink once left, n once closed
    members = []  # the elements left whose component is still open
    stack = []
    count = 0
    for root in reversed(range(n)):
        if reach[root]:
            continue
        reach[root], low[root] = -1, count
        v, row, vlow, base = root, 1 << root, count, 0
        count += 1
        below = row - 1
        # x ^ (x & m) clears the bits of m, cheaper on long ints than x & ~m
        todo = succ[v] ^ (succ[v] & row)
        while True:
            if todo:
                near = todo & below
                # x ^ (x - 1) keeps the bits up to x's lowest, cheaper than x & -x
                j = near.bit_length() - 1 if near else (todo ^ (todo - 1)).bit_length() - 1
                r = reach[j]
                if r > 0:
                    row |= r
                    todo ^= todo & r
                elif r:
                    # on the stack: low[j] is still j's index
                    todo ^= 1 << j
                else:
                    reach[j], low[j] = -1, count
                    stack.append((v, row, below, todo, vlow, base))
                    v, row, vlow, base = j, 1 << j, count, len(members)
                    count += 1
                    below = row - 1
                    todo = succ[v] ^ (succ[v] & row)
                    continue
                if low[j] < vlow:
                    vlow = low[j]
                continue
            if vlow < low[v]:
                # a lowlink below v's own index: v's component is still open
                reach[v], low[v] = row, vlow
                members.append(v)
            else:
                # v is its component's root, and the members left since v was entered are the rest
                if len(members) > base:
                    cyclic = True
                    comp = members[base:]
                    del members[base:]
                    for u in comp:
                        row |= reach[u]
                    for u in comp:
                        reach[u], low[u] = row, n
                reach[v], low[v] = row, n
            if not stack:
                break
            v, row, below, todo, vlow, base = stack.pop()
    return reach, cyclic


def first_cycle(rows):
    """The first 2-cycle (i, j) in row-major order of closed up-set rows, or None: i and j
    form one iff their rows are equal, so it is the least two of the first such class."""
    first, pair = {}, None
    for j, row in enumerate(rows):
        i = first.setdefault(row, j)
        if i != j and (pair is None or i < pair[0]):
            pair = (i, j)
    return pair


class FinPoset:
    """An immutable finite poset given by its full order matrix.

    ``_rows`` holds the up-sets as the bits of ints, as ``up_rows`` returns
    them: handed over by the closure or the check that made the order, else
    packed on first use; every later caller shares them."""

    __slots__ = ("n", "leq", "labels", "_hash", "_rows")

    def __init__(self, leq, labels=None):
        leq = np.asarray(leq, dtype=bool)
        n = leq.shape[0] if leq.ndim else 0
        if leq.shape != (n, n):
            raise ValueError(f"order matrix must be square, got {leq.shape}")
        _element_count(n)
        if not leq[np.diag_indices(n)].all():
            raise ValueError("order matrix is not reflexive")
        rows = _bit_rows(leq)
        closed, cyclic = _close_rows(rows)
        # a 2-cycle of leq is one of its closure; argmax finds a boolean array's first True cell
        if cyclic and (sym := leq & leq.T & ~np.eye(n, dtype=bool)).any():
            raise AntisymmetryViolation.between(*divmod(int(sym.argmax()), n))
        # a reflexive matrix is transitive iff it equals its own closure, row for row
        if closed != rows:
            raise ValueError("order matrix is not transitive")
        self._fill(leq, labels, rows)

    @classmethod
    def _trusted(cls, leq, labels=None, rows=None):
        """The poset of an order matrix that is valid by construction, unchecked,
        with its up-set rows when the caller has them (``_bit_rows(leq)``).

        Only for results of this package; every call site says why ``leq`` is
        reflexive, antisymmetric and transitive."""
        self = cls.__new__(cls)
        self._fill(leq, labels, rows)
        return self

    def _fill(self, leq, labels, rows=None):
        self.leq = np.ascontiguousarray(leq, dtype=bool)
        self.leq.flags.writeable = False
        self.n = self.leq.shape[0]
        self.labels = tuple(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError(f"expected {self.n} labels, got {len(self.labels)}")
        self._hash = hash((self.n, self.leq.tobytes()))
        self._rows = None if rows is None else tuple(rows)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_covers(cls, n, pairs, labels=None):
        """Poset generated by ``pairs`` (i <= j) through ``close_rows_with``; a cycle raises
        ``AntisymmetryViolation`` for the closure's ``first_cycle``."""
        n = _element_count(n)
        up, cyclic = close_rows_with([1 << v for v in range(n)], *checked_pairs((n, n), pairs))
        if cyclic:
            raise AntisymmetryViolation.between(*first_cycle(up))
        # a closure is reflexive and transitive, and with no cycle it is antisymmetric
        return cls._trusted(_bool_rows(up), labels, up)

    @classmethod
    def discrete(cls, n, labels=None):
        # the identity is an order
        return cls._trusted(np.eye(_element_count(n), dtype=bool), labels)

    @classmethod
    def chain(cls, n, labels=None):
        # the upper triangle is an order: i <= j iff i <= j as integers
        n = _element_count(n)
        return cls._trusted(np.triu(np.ones((n, n), dtype=bool)), labels)

    # -- basic queries --------------------------------------------------------

    def is_discrete(self):
        return bool((self.leq == np.eye(self.n, dtype=bool)).all())

    def label(self, i):
        return self.labels[i] if self.labels is not None else str(i)

    def covers(self):
        """Cover pairs (i, j), i < j with nothing strictly between, in row-major order:
        a transitive reduction (Aho, Garey & Ullman 1972) on up-set bit rows numbered
        along a linear extension, by down-set size.  The least element of i's strict
        up-set that no cover of i reaches is a cover; clearing its up-set is one AND-NOT."""
        order = np.argsort(self.leq.sum(axis=0), kind="stable")
        rows = _bit_rows(self.leq.take(order, 0).take(order, 1))
        up = [row >> (p + 1) for p, row in enumerate(rows)]  # strict up-sets, bit 0 for p + 1
        label, out = order.tolist(), []
        for i, p in enumerate(np.argsort(order).tolist()):
            todo, q, found = up[p], p, []
            while todo:
                # x ^ (x - 1) keeps the bits up to x's lowest, and x ^ (x & m) clears the bits of m
                k = (todo ^ (todo - 1)).bit_length()
                todo, q = todo >> k, q + k  # q: the least left; bit 0: q + 1
                found.append(label[q])
                todo ^= todo & up[q]
            out += [(i, j) for j in sorted(found)]
        return out

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FinPoset)
            and self._hash == other._hash
            and self.n == other.n
            # leq is bool and equal n gives equal shapes, so equal bytes are equal orders
            and self.leq.tobytes() == other.leq.tobytes()
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FinPoset(n={self.n}, covers={self.covers()})"


def up_rows(P):
    """The up-sets of P as the bits of ints, bit j of row i for i <= j, as
    ``_bit_rows(P.leq)`` packs them: the rows the closure or check that made
    P's order handed over, else packed on first use and kept on P."""
    if P._rows is None:
        P._rows = tuple(_bit_rows(P.leq))
    return P._rows


def close_rows_with(up, rows, cols):
    """The closure of the closed, acyclic up-set rows ``up`` (ints, bit j of row i
    for i <= j) with the pairs (rows[k] <= cols[k]) added, indices in range, and
    whether it has a cycle: ``up`` itself, with no pass, when it holds every pair;
    else ``_close_rows`` of the rows with the pairs ORed in.  The one way from
    pairs into ``_close_rows``."""
    if len(rows) > 4 * len(up):
        # so many pairs that packing them as a mask beats an OR per pair at every n
        succ = [a | b for a, b in zip(up, _bit_rows(index_mask((len(up),) * 2, rows, cols)))]
    else:
        succ = list(up)
        if isinstance(rows, np.ndarray):
            rows, cols = rows.tolist(), cols.tolist()  # a numpy index would shift in 64 bits
        for i, j in zip(rows, cols):
            succ[i] |= 1 << j
    return (up, False) if succ == list(up) else _close_rows(succ)


def close_over(P, rows, cols):
    """The closure of P's order and the pairs (rows[k] <= cols[k]), indices in range, by
    ``close_rows_with``: ``P.leq`` itself when the order holds every pair.  Behind
    ``ExRegObject.from_pairs``, ``coinserter`` and the ``.exreg`` object read."""
    up = up_rows(P)
    closed, _ = close_rows_with(up, rows, cols)
    return P.leq if closed is up else _bool_rows(closed)


def shortest_cyclic_prefix(reach, rows, cols):
    """For pairs (rows[k] <= cols[k]) whose closure ``reach`` (rows, as
    ``close_rows_with`` returns them) has a cycle: the closure of the shortest
    prefix of the pairs that closes one, and that prefix's length.

    A cycle stays closed as pairs are added, so a binary search finds the prefix.
    The closure of a longer prefix is that of a shorter one's closure and the pairs
    after it, so each probe closes the last acyclic probe's rows with the pairs it
    adds, rather than all of its prefix again."""
    lo, hi = 0, len(rows)  # pairs[:lo] close no cycle, pairs[:hi] close one, closed in reach
    closed = [1 << v for v in range(len(reach))]  # the closure of pairs[:lo]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        probe, cyclic = close_rows_with(closed, rows[lo:mid], cols[lo:mid])
        if cyclic:
            hi, reach = mid, probe
        else:
            lo, closed = mid, probe
    return reach, hi


def _indices(values, what):
    """``values`` as a list of ints, each taken by ``operator.index``: a value that is
    not an integer (a float among them, even an integral one) raises ``ValueError``
    naming it as ``what``."""
    out = []
    for value in values:
        try:
            out.append(operator.index(value))
        except TypeError:
            raise ValueError(f"{what} {value!r} is not an integer") from None
    return out


def _element_count(n):
    """``n`` taken by ``operator.index``: the element count of the public constructors,
    checked before anything of that size is built.  A negative count raises
    ``ValueError``, and one past ``MAX_ELEMENTS`` raises ``TooLarge``."""
    (n,) = _indices([n], "element count")
    if n < 0:
        raise ValueError(f"element count must be at least 0, got {n}")
    if n > MAX_ELEMENTS:
        raise TooLarge(f"poset of {n} elements exceeds the limit of {MAX_ELEMENTS}")
    return n


def checked_pairs(shape, pairs):
    """The rows and the columns of the index pairs ``pairs``, as lists of ints: the
    boundary check of the public constructors that take pair lists.  An index that
    is not an integer, or that lies outside ``shape`` (negative ones included),
    raises ``ValueError``."""
    rows, cols = [], []
    for pair in pairs:
        i, j = _indices(pair, "pair index")
        if not (0 <= i < shape[0] and 0 <= j < shape[1]):
            raise ValueError(f"pair ({i}, {j}) is outside a {shape[0]} x {shape[1]} matrix")
        rows.append(i)
        cols.append(j)
    return rows, cols


def pair_mask(shape, pairs):
    """The ``shape`` boolean matrix that is True at the index pairs ``pairs``, once
    ``checked_pairs`` has checked them."""
    return index_mask(shape, *checked_pairs(shape, pairs))


def index_mask(shape, rows, cols):
    """The ``shape`` boolean matrix that is True at (rows[k], cols[k]) for each k,
    unchecked: for indices already known to be in range (``pair_mask`` checks)."""
    mask = np.zeros(shape, dtype=bool)
    mask[rows, cols] = True
    return mask


def make_poset(elements, cover_pairs):
    """Build a poset from labels and generating pairs given by index or label.  A label
    listed twice, or a pair naming one not listed, raises ``ValueError``."""
    labels = [str(e) for e in elements]
    index = {}
    for i, lab in enumerate(labels):
        if index.setdefault(lab, i) != i:
            raise ValueError(f"label {lab!r} is listed twice")

    def position(x):
        if isinstance(x, (int, np.integer)):
            return x
        if str(x) not in index:
            raise ValueError(f"unknown label {str(x)!r}")
        return index[str(x)]

    pairs = [(position(a), position(b)) for a, b in cover_pairs]
    return FinPoset.from_covers(len(labels), pairs, labels=labels)


class MonotoneMap:
    """An order-preserving function between finite posets."""

    __slots__ = ("dom", "cod", "assign")

    def __init__(self, dom, cod, assign):
        assign = tuple(_indices(assign, "image index"))
        if len(assign) != dom.n:
            raise ValueError("assignment length does not match domain size")
        for a in assign:
            if not 0 <= a < cod.n:
                raise ValueError(f"image index {a} out of range")
        idx = np.array(assign, dtype=np.intp)
        broken = dom.leq & ~cod.leq[idx[:, None], idx]
        if broken.any():
            i, j = np.argwhere(broken)[0]
            raise NotMonotone(
                f"{i} <= {j} in domain but {assign[i]} !<= {assign[j]} in codomain"
            )
        self.dom = dom
        self.cod = cod
        self.assign = assign

    @classmethod
    def _trusted(cls, dom, cod, assign):
        """The map given by ``assign`` (Python ints), unchecked; only for results
        of this package whose call site says why the map is monotone."""
        self = cls.__new__(cls)
        self.dom = dom
        self.cod = cod
        self.assign = tuple(assign)
        return self

    @classmethod
    def identity(cls, poset):
        # the identity preserves every order
        return cls._trusted(poset, poset, range(poset.n))

    def __call__(self, i):
        return self.assign[i]

    def then(self, g):
        """g o self."""
        if g.dom != self.cod:
            raise ValueError("composition mismatch")
        # a composite of monotone maps is monotone
        return MonotoneMap._trusted(self.dom, g.cod, [g.assign[a] for a in self.assign])

    def is_surjective(self):
        return set(self.assign) == set(range(self.cod.n))

    def leq(self, other):
        """Pointwise hom-poset order self <= other."""
        if self.dom != other.dom or self.cod != other.cod:
            raise ValueError("maps are not parallel")
        return all(self.cod.leq[a, b] for a, b in zip(self.assign, other.assign))

    def __eq__(self, other):
        return (
            isinstance(other, MonotoneMap)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.assign == other.assign
        )

    def __hash__(self):
        return hash((self.dom, self.cod, self.assign))

    def __repr__(self):
        return f"MonotoneMap({list(self.assign)})"


class MapClass:
    """Classification flags of a monotone map."""

    __slots__ = ("is_ff", "is_so", "is_iso")

    def __init__(self, is_ff, is_so):
        self.is_ff = bool(is_ff)
        self.is_so = bool(is_so)
        self.is_iso = self.is_ff and self.is_so

    def __repr__(self):
        return f"MapClass(ff={self.is_ff}, so={self.is_so}, iso={self.is_iso})"


def classify_map(f):
    """ff iff order-embedding (reflects order, hence injective); so iff surjective."""
    idx = np.array(f.assign, dtype=np.intp)
    is_ff = not (f.cod.leq[idx[:, None], idx] & ~f.dom.leq).any()
    return MapClass(is_ff, f.is_surjective())


# -- enumeration and isomorphism ---------------------------------------------


def linear_extension(poset):
    """A topological order (stable: smallest index first): each step takes the least
    element left that is strictly above no other element left, read off ``up_rows``."""
    strict = [row ^ (1 << i) for i, row in enumerate(up_rows(poset))]
    left, out = list(range(poset.n)), []
    while left:
        above = 0  # the elements strictly above some element left
        for j in left:
            above |= strict[j]
        for i in left:
            if not above >> i & 1:
                break
        left.remove(i)
        out.append(i)
    return out


def walk_monotone_maps(X, Y, pick):
    """The monotone maps X -> Y, one at a time, depth first.

    Walks ``linear_extension(X)``.  The options of each element are the
    elements of Y above the values already given to the elements below it,
    in index order; ``pick(options)`` removes and returns the value to try
    next.  A level with no option left is popped and the latest level that
    still has one is redrawn.  The up-sets of X and Y are their ``up_rows``,
    the bits of ints, so a level's options cost one AND per element below."""
    order = linear_extension(X)
    up_x = up_rows(X)
    below = [[j for j in order[:k] if up_x[j] >> x & 1] for k, x in enumerate(order)]
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


def all_monotone_maps(X, Y):
    """All monotone maps X -> Y, lexicographic in the assignment tuple.

    Raises ``TooLarge`` as soon as there are more than ``MAX_MAPS``."""
    walk = walk_monotone_maps(X, Y, lambda options: options.pop(0))
    maps = list(itertools.islice(walk, MAX_MAPS + 1))
    if len(maps) > MAX_MAPS:
        raise TooLarge(
            f"monotone maps from {X.n} to {Y.n} elements exceed the limit of {MAX_MAPS}"
        )
    maps.sort(key=lambda m: m.assign)
    return maps


def find_order_iso(X, Y):
    """An order-isomorphism X -> Y as a MonotoneMap, or None.

    Backtracking on (down-set size, up-set size) signatures, with an explicit
    stack of the options tried per element, so no carrier size is bounded
    by the recursion limit.
    """
    if X.n != Y.n:
        return None
    sig_x, sig_y = (
        list(zip(P.leq.sum(axis=0).tolist(), P.leq.sum(axis=1).tolist())) for P in (X, Y)
    )
    if sorted(sig_x) != sorted(sig_y):
        return None
    by_sig = {}
    for j, key in enumerate(sig_y):
        by_sig.setdefault(key, []).append(j)
    leq_x, leq_y = X.leq.tolist(), Y.leq.tolist()
    options = [by_sig[key] for key in sig_x]
    assign = [None] * X.n
    used = [False] * Y.n
    tried = [0] * X.n  # for each element, how many of its options were tried
    i = 0
    while i < X.n:
        for t in range(tried[i], len(options[i])):
            j = options[i][t]
            if used[j]:
                continue
            for k in range(i):
                if leq_x[k][i] != leq_y[assign[k]][j] or leq_x[i][k] != leq_y[j][assign[k]]:
                    break
            else:
                assign[i], used[j], tried[i] = j, True, t + 1
                i += 1
                break
        else:
            # no option left for element i: try the next value of the element before it
            tried[i] = 0
            if not i:
                return None
            i -= 1
            used[assign[i]] = False
    return MonotoneMap(X, Y, assign)


def are_isomorphic(X, Y):
    return find_order_iso(X, Y) is not None


def _refined_colours(leq):
    """Colours of the elements, refined to a fixpoint (a stable partition).

    An element's next colour ranks its current colour together with the
    sorted colours strictly below it and strictly above it.  Ranks are taken
    in sorted order of those signatures, so an isomorphism maps each colour
    class onto the class of the same colour.  Works on Python lists: the
    matrix is read once with ``tolist``."""
    rows = leq.tolist()
    above = [[j for j, x in enumerate(row) if x and j != i] for i, row in enumerate(rows)]
    below = [[j for j, x in enumerate(col) if x and j != i] for i, col in enumerate(zip(*rows))]
    colour = [0] * len(rows)
    while True:
        sig = [
            (c, tuple(sorted([colour[j] for j in down])), tuple(sorted([colour[j] for j in up])))
            for c, down, up in zip(colour, below, above)
        ]
        rank = {s: k for k, s in enumerate(sorted(set(sig)))}
        # the own colour leads the signature, so a round only splits classes
        if len(rank) == len(set(colour)):
            return colour
        colour = [rank[s] for s in sig]


def canonical_certificate(P):
    """A key equal for two posets exactly when they are isomorphic.

    The least packed order matrix, in lexicographic order, over the
    labellings that list the refined colour classes in colour order and
    each class in any order (the refinement-then-least-labelling form of
    McKay & Piperno, "Practical graph isomorphism, II", 2014).  That is at
    most the product of the class sizes' factorials, all compared at once:
    meant for the catalogue's small posets, not for large antichains."""
    colour = _refined_colours(P.leq)
    cells = [[] for _ in range(max(colour, default=-1) + 1)]
    for i, c in enumerate(colour):
        cells[c].append(i)
    count = math.prod(math.factorial(len(cell)) for cell in cells)
    # one labelling per choice of a permutation of each class, later classes varying fastest
    choices = itertools.product(*(itertools.permutations(cell) for cell in cells))
    flat = itertools.chain.from_iterable(itertools.chain.from_iterable(c) for c in choices)
    labellings = np.fromiter(flat, dtype=np.intp, count=count * P.n).reshape(count, P.n)
    mats = P.leq[labellings[:, :, None], labellings[:, None, :]]
    packed = np.packbits(mats.reshape(count, P.n * P.n), axis=1)
    least = np.lexsort(packed.T[::-1])[0] if P.n else 0
    return P.n, packed[least].tobytes()


# -- limits ------------------------------------------------------------------


def subposet(X, elements):
    """The induced subposet on a sorted element list, with its ff inclusion.  An
    element outside X, negative ones included, or listed twice raises ``ValueError``."""
    elements = _indices(elements, "element")
    for a in elements:
        if not 0 <= a < X.n:
            raise ValueError(f"element {a} is outside a poset of {X.n} elements")
    elements.sort()
    for a, b in zip(elements, elements[1:]):
        if a == b:
            raise ValueError(f"element {a} is listed twice")
    idx = np.array(elements, dtype=np.intp)
    # an order restricted to distinct elements is an order, and the inclusion preserves it
    sub = FinPoset._trusted(X.leq[idx[:, None], idx])
    return sub, MonotoneMap._trusted(sub, X, elements)


def pair_order(A, B, mask):
    """Componentwise order on the True cells of ``mask``, a len(A) x len(B) boolean
    matrix, in row-major order: for square boolean ``A`` and ``B``, out[a, b]
    iff A[x_a, x_b] and B[y_a, y_b] for the a-th cell (x_a, y_a).  Any other
    ``mask``, a list of pairs included, raises ``ValueError``."""
    shape = (len(A), len(B))
    if not (isinstance(mask, np.ndarray) and mask.dtype == bool and mask.shape == shape):
        raise ValueError(f"pair mask must be a boolean array of shape {shape}")
    xs, ys = np.nonzero(mask)
    return A.take(xs, 0).take(xs, 1) & B.take(ys, 0).take(ys, 1)


def pair_span(X, Y, mask):
    """The True cells of an |X| x |Y| mask, row-major, as a subposet of X x Y with projections:
    the one constructor of pair-set carriers, behind every product, comma, pullback,
    presentation and tabulation.  Raises ``TooLarge`` before building a carrier of
    more than ``MAX_ELEMENTS`` pairs."""
    count = int(np.count_nonzero(mask))
    if count > MAX_ELEMENTS:
        raise TooLarge(f"apex of {count} elements exceeds the limit of {MAX_ELEMENTS}")
    # the product order of two orders, on distinct pairs (a mask cannot repeat a cell), is an order
    P = FinPoset._trusted(pair_order(X.leq, Y.leq, mask))
    xs, ys = np.nonzero(mask)
    # the order is componentwise, so each projection is monotone
    p0 = MonotoneMap._trusted(P, X, xs.tolist())
    p1 = MonotoneMap._trusted(P, Y, ys.tolist())
    return P, p0, p1


def pointwise_order(maps, leq):
    """The k x k pointwise order on k parallel maps into a poset with order ``leq``.

    out[a, b] iff leq[maps[a](i), maps[b](i)] for every i of the common
    domain; one k x k slice per domain element keeps memory at O(k^2)."""
    k = len(maps)
    out = np.ones((k, k), dtype=bool)
    for col in np.array([m.assign for m in maps], dtype=np.intp).T:
        out &= leq.take(col, 0).take(col, 1)
    return out


def product(X, Y):
    """Cartesian product with componentwise order; carrier is lexicographic pairs."""
    return pair_span(X, Y, np.ones((X.n, Y.n), dtype=bool))


def terminal():
    return FinPoset.discrete(1)


def inserter(f, g):
    """The ff inclusion of the elements where f(x) <= g(x)."""
    if f.dom != g.dom or f.cod != g.cod:
        raise ValueError("inserter needs a parallel pair")
    keep = [x for x in range(f.dom.n) if f.cod.leq[f.assign[x], g.assign[x]]]
    _, incl = subposet(f.dom, keep)
    return incl


def equalizer(f, g):
    """Direct equalizer: the induced subposet where f(x) = g(x)."""
    keep = [x for x in range(f.dom.n) if f.assign[x] == g.assign[x]]
    _, incl = subposet(f.dom, keep)
    return incl


def equalizer_via_inserters(f, g):
    """Equalizer built as a double inserter; agrees with ``equalizer`` up to iso."""
    m = inserter(f, g)
    n = inserter(m.then(g), m.then(f))
    return n.then(m)


def power(X, P):
    """The power poset of monotone maps P -> X under pointwise order.  Raises
    ``TooLarge`` before building the order of more than ``MAX_ELEMENTS`` maps."""
    maps = all_monotone_maps(P, X)
    if len(maps) > MAX_ELEMENTS:
        raise TooLarge(f"power of {len(maps)} maps exceeds the limit of {MAX_ELEMENTS}")
    # distinct monotone maps into a poset, ordered pointwise: antisymmetric
    return FinPoset._trusted(pointwise_order(maps, X.leq)), maps


def power_via_inserters(X, P):
    """Power built from the ordinary power by inserting pi_a <= pi_b per a <= b.

    The carrier is cut out of the |P|-fold product of X by one inserter per
    related pair, i.e. the tuples t with t[a] <= t[b] whenever a <= b.
    """
    if P.n == 0:
        return terminal()
    cur = X
    projections = [MonotoneMap.identity(X)]
    for _ in range(P.n - 1):
        new, p0, p1 = product(cur, X)
        projections = [p0.then(pr) for pr in projections]
        projections.append(p1)
        cur = new
    incl = MonotoneMap.identity(cur)
    for a in range(P.n):
        for b in range(P.n):
            if a != b and P.leq[a, b]:
                e = inserter(incl.then(projections[a]), incl.then(projections[b]))
                incl = e.then(incl)
    return incl.dom


def comma(f, g):
    """Comma object f/g = {(x, y) : f(x) <= g(y)} with its two projections."""
    if f.cod != g.cod:
        raise ValueError("comma needs a common codomain")
    rows = np.array(f.assign, dtype=np.intp)
    cols = np.array(g.assign, dtype=np.intp)
    return pair_span(f.dom, g.dom, f.cod.leq.take(rows, 0).take(cols, 1))


def kernel_congruence(f):
    """The comma f/f."""
    return comma(f, f)


def pullback(f, g):
    """Pullback {(x, y) : f(x) = g(y)} with induced order and projections."""
    if f.cod != g.cod:
        raise ValueError("pullback needs a common codomain")
    return pair_span(f.dom, g.dom, np.equal.outer(f.assign, g.assign))


def image_factorize(f):
    """Factor f as a surjection onto its image followed by an order-embedding.

    The image carries the order induced from the codomain, so the embedding
    is ff while the surjection need not be (order can be gained)."""
    image = sorted(set(f.assign))
    M, m = subposet(f.cod, image)
    pos = {c: k for k, c in enumerate(image)}
    # M carries the order induced from f's codomain, and f is monotone
    e = MonotoneMap._trusted(f.dom, M, [pos[a] for a in f.assign])
    return e, m


def poset_reflection(pre):
    """Collapse a reflexive, transitive matrix to a poset.

    Returns (poset, class_of) where class_of[i] is the index of i's class;
    classes are numbered by their smallest member."""
    pre = np.asarray(pre, dtype=bool)
    # each row of the reflexive symmetric part starts at its class's smallest member
    index = {}
    class_of = [index.setdefault(row.index(True), len(index)) for row in (pre & pre.T).tolist()]
    reps = list(index)
    # a preorder on one representative per class of its symmetric part is an order
    idx = np.array(reps, dtype=np.intp)
    return FinPoset._trusted(pre[idx[:, None], idx]), class_of


def coinserter(f0, f1):
    """Quotient of the codomain by the inequalities f0(c) <= f1(c).

    Returns the surjective quotient map; its codomain is the poset reflection
    of the smallest compatible preorder."""
    if f0.dom != f1.dom or f0.cod != f1.cod:
        raise ValueError("coinserter needs a parallel pair")
    X = f0.cod
    Q, class_of = poset_reflection(close_over(X, f0.assign, f1.assign))
    # the preorder contains the order of X, and Q orders the classes by it
    return MonotoneMap._trusted(X, Q, class_of)


def hom_poset(X, Y):
    """The poset of all monotone maps X -> Y with pointwise order."""
    return power(Y, X)


# -- universal-property checks -----------------------------------------------
#
# In Pos a cone condition quantified over all stages holds iff it holds on
# elements, so the checks below are element-level and exact.  A slower
# cone-enumeration variant is kept for cross-validation in the test-suite.


def jointly_order_mono(c0, c1):
    """Whether (c0, c1) is an order-embedding into the product order."""
    C = c0.dom
    for a in range(C.n):
        for b in range(C.n):
            if (
                c0.cod.leq[c0.assign[a], c0.assign[b]]
                and c1.cod.leq[c1.assign[a], c1.assign[b]]
                and not C.leq[a, b]
            ):
                return False
    return True


def _is_square_on(f, g, c0, c1, related):
    """Whether (c0, c1) out of a common domain meets exactly the pairs (x, y)
    with ``related(x, y)`` and is jointly order-monic."""
    C = c0.dom
    if C != c1.dom:
        return False
    seen = set()
    for c in range(C.n):
        x, y = c0.assign[c], c1.assign[c]
        if not related(x, y):
            return False
        seen.add((x, y))
    want = {(x, y) for x in range(f.dom.n) for y in range(g.dom.n) if related(x, y)}
    return seen == want and jointly_order_mono(c0, c1)


def is_comma_square(f, g, c0, c1):
    """Whether (c0, c1) out of a common domain is the comma of (f, g)."""
    return _is_square_on(f, g, c0, c1, lambda x, y: f.cod.leq[f.assign[x], g.assign[y]])


def is_pullback_square(f, g, p0, p1):
    """Whether (p0, p1) out of a common domain is the pullback of (f, g)."""
    return _is_square_on(f, g, p0, p1, lambda x, y: f.assign[x] == g.assign[y])


def is_comma_square_by_cones(f, g, c0, c1, stage_posets):
    """Cone-enumeration comma check, for cross-validating the fast path."""
    C = c0.dom
    for W in stage_posets:
        maps_x = all_monotone_maps(W, f.dom)
        maps_y = all_monotone_maps(W, g.dom)
        maps_c = all_monotone_maps(W, C)
        for u0 in maps_x:
            for u1 in maps_y:
                if not u0.then(f).leq(u1.then(g)):
                    continue
                hits = [w for w in maps_c if w.then(c0) == u0 and w.then(c1) == u1]
                if len(hits) != 1:
                    return False
        for u in maps_c:
            for v in maps_c:
                if u.then(c0).leq(v.then(c0)) and u.then(c1).leq(v.then(c1)):
                    if not u.leq(v):
                        return False
    return True


def is_coinserter(f0, f1, q, test_codomains):
    """Coinserter check by enumerating all factorizations through q.

    For every monotone g out of q's domain into one of ``test_codomains``
    with g.f0 <= g.f1, there must be exactly one v with v.q = g."""
    X = q.dom
    if not q.is_surjective():
        return False
    if not f0.then(q).leq(f1.then(q)):
        return False
    for Z in test_codomains:
        for g in all_monotone_maps(X, Z):
            if not f0.then(g).leq(f1.then(g)):
                continue
            factorizations = [
                v for v in all_monotone_maps(q.cod, Z) if q.then(v) == g
            ]
            if len(factorizations) != 1:
                return False
    return True
