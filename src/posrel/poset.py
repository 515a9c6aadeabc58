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
    """Raised before building a carrier of more than ``MAX_ELEMENTS`` elements,
    or enumerating more than ``MAX_MAPS`` maps."""


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
    overflow gives inf, so ``> 0`` is exact at every size.  A square
    ``bool_mat(a, a)`` is cast once."""
    square = b is a
    a = np.asarray(a, bool)
    b = a if square else np.asarray(b, bool)
    # the one matrix a meets each matrix of b, or each matrix of a meets one matrix of b
    madds = a.shape[-2] * b.size if a.ndim < b.ndim else a.size * b.shape[-1]
    if madds < BLAS_MADDS:
        return a @ b
    fa = a.astype(np.float32)
    fb = fa if square else b.astype(np.float32)
    return (fa @ fb) > 0


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


def post_order(rel):
    """The elements of a square boolean relation in depth-first post-order, each
    after every element it reaches, or None when the relation has a cycle
    (self-loops aside).

    Each row is held as the bits of an int.  An element is entered once, and
    only its successors not entered yet are read off its row, so the walk takes
    at most 2n steps, each a few operations on n-bit ints, however many pairs
    there are."""
    succ = _bit_rows(rel)
    order = []
    seen = done = 0
    for root in range(len(succ)):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        stack = [root]
        while stack:
            v = stack[-1]
            fresh = succ[v] & ~seen
            if fresh:
                j = (fresh & -fresh).bit_length() - 1
                seen |= 1 << j
                stack.append(j)
            else:
                # every successor has been entered; one not yet left is on the stack
                if succ[v] & ~(done | 1 << v):
                    return None
                done |= 1 << v
                order.append(stack.pop())
    return order


def _close_up(rel):
    """The reflexive-transitive closure of a square boolean relation whose every
    pair (i, j) has i <= j, or None when a pair has j < i.

    The rows are held as the bits of ints and closed from the last down: each
    row is the element's own bit ORed with the rows of its successors, least
    first, skipping the successors that the rows already ORed reach.  The
    least successor left is reached from no other successor, so an element
    takes one OR per successor that no other successor reaches."""
    succ = _bit_rows(rel)
    reach = [0] * len(succ)
    for i in reversed(range(len(succ))):
        row = 1 << i
        if succ[i] & (row - 1):
            return None
        fresh = succ[i] & ~row
        while fresh:
            row |= reach[(fresh & -fresh).bit_length() - 1]
            fresh &= ~row
        reach[i] = row
    n, width = len(reach), (len(reach) + 7) // 8
    packed = np.frombuffer(b"".join([row.to_bytes(width, "little") for row in reach]), np.uint8)
    return np.unpackbits(packed.reshape(n, width), axis=1, count=n, bitorder="little").view(bool)


def acyclic_closure(rel):
    """The reflexive-transitive closure of a square boolean relation, or None
    when the relation has a cycle (self-loops aside).

    One pass along a topological order (Purdom, "A transitive closure
    algorithm", 1970): O(n + covers) ORs of n-bit ints.  When every pair goes
    up the numbering, as in the files this package writes, that order is the
    numbering; otherwise it is ``post_order`` read backwards."""
    closed = _close_up(rel)
    if closed is not None:
        return closed
    order = post_order(rel)
    if order is None:
        return None
    idx = np.array(order[::-1], dtype=np.intp)
    pos = np.empty_like(idx)
    pos[idx] = np.arange(len(idx))
    return _close_up(rel.take(idx, 0).take(idx, 1)).take(pos, 0).take(pos, 1)


class FinPoset:
    """An immutable finite poset given by its full order matrix."""

    __slots__ = ("n", "leq", "labels", "_hash")

    def __init__(self, leq, labels=None):
        leq = np.asarray(leq, dtype=bool)
        n = leq.shape[0]
        if leq.shape != (n, n):
            raise ValueError(f"order matrix must be square, got {leq.shape}")
        if not leq[np.diag_indices(n)].all():
            raise ValueError("order matrix is not reflexive")
        sym = leq & leq.T
        sym[np.diag_indices(n)] = False
        if sym.any():
            i, j = map(int, np.argwhere(sym)[0])
            raise AntisymmetryViolation.between(i, j)
        if (bool_mat(leq, leq) & ~leq).any():
            raise ValueError("order matrix is not transitive")
        self._fill(leq, labels)

    @classmethod
    def _trusted(cls, leq):
        """The poset of an order matrix that is valid by construction, unchecked.

        Only for results of this package; every call site says why ``leq`` is
        reflexive, antisymmetric and transitive."""
        self = cls.__new__(cls)
        self._fill(leq, None)
        return self

    def _fill(self, leq, labels):
        self.leq = np.ascontiguousarray(leq, dtype=bool)
        self.leq.flags.writeable = False
        self.n = self.leq.shape[0]
        self.labels = tuple(labels) if labels is not None else None
        self._hash = hash((self.n, self.leq.tobytes()))

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_covers(cls, n, pairs, labels=None):
        """Poset generated by ``pairs`` (i <= j), closed reflexively/transitively
        by ``acyclic_closure``.  Pairs that close a cycle are closed by
        squaring instead, so that the validating constructor names the first
        2-cycle of the full closure."""
        mask = pair_mask((n, n), pairs)
        leq = acyclic_closure(mask)
        if leq is None:
            leq = transitive_closure(mask)
        return cls(leq, labels=labels)

    @classmethod
    def discrete(cls, n, labels=None):
        return cls(np.eye(n, dtype=bool), labels=labels)

    @classmethod
    def chain(cls, n, labels=None):
        return cls(np.triu(np.ones((n, n), dtype=bool)), labels=labels)

    # -- basic queries --------------------------------------------------------

    def is_discrete(self):
        return bool((self.leq == np.eye(self.n, dtype=bool)).all())

    def label(self, i):
        return self.labels[i] if self.labels is not None else str(i)

    def covers(self):
        """Cover pairs (i, j): i < j with nothing strictly between."""
        lt = self.leq & ~np.eye(self.n, dtype=bool)
        rows, cols = np.nonzero(lt & ~bool_mat(lt, lt))
        return list(zip(rows.tolist(), cols.tolist()))

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


def pair_mask(shape, pairs):
    """The ``shape`` boolean matrix that is True at the index pairs ``pairs``: the
    boundary check of the public constructors that take pair lists.  An index
    outside the shape, negative ones included, raises ``ValueError``."""
    mask = np.zeros(shape, dtype=bool)
    pairs = list(pairs)
    if pairs:
        rows, cols = zip(*pairs)
        if min(rows) < 0 or max(rows) >= shape[0] or min(cols) < 0 or max(cols) >= shape[1]:
            i, j = next(p for p in pairs if not (0 <= p[0] < shape[0] and 0 <= p[1] < shape[1]))
            raise ValueError(f"pair ({i}, {j}) is outside a {shape[0]} x {shape[1]} matrix")
        mask[rows, cols] = True
    return mask


def make_poset(elements, cover_pairs):
    """Build a poset from labels and generating pairs given by index or label."""
    labels = [str(e) for e in elements]
    index = {lab: i for i, lab in enumerate(labels)}
    pairs = []
    for a, b in cover_pairs:
        i = a if isinstance(a, int) else index[str(a)]
        j = b if isinstance(b, int) else index[str(b)]
        pairs.append((i, j))
    return FinPoset.from_covers(len(labels), pairs, labels=labels)


class MonotoneMap:
    """An order-preserving function between finite posets."""

    __slots__ = ("dom", "cod", "assign")

    def __init__(self, dom, cod, assign):
        assign = tuple(int(a) for a in assign)
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
    """A topological order of the elements (stable: smallest index first)."""
    remaining = set(range(poset.n))
    out = []
    while remaining:
        for i in sorted(remaining):
            if all(j == i or j not in remaining or not poset.leq[j, i] for j in range(poset.n)):
                out.append(i)
                remaining.remove(i)
                break
        else:  # pragma: no cover - impossible for a valid poset
            raise RuntimeError("cycle in order matrix")
    return out


def walk_monotone_maps(X, Y, pick):
    """The monotone maps X -> Y, one at a time, depth first.

    Walks ``linear_extension(X)``.  The options of each element are the
    elements of Y above the values already given to the elements below it,
    in index order; ``pick(options)`` removes and returns the value to try
    next.  A level with no option left is popped and the latest level that
    still has one is redrawn.  Each up-set of Y is held as the bits of an
    int, so a level's options cost one AND per element below."""
    order = linear_extension(X)
    leq = X.leq.tolist()
    below = [[j for j in order[:k] if leq[j][x]] for k, x in enumerate(order)]
    up = _bit_rows(Y.leq)
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


def _iso_signature(poset):
    down = poset.leq.sum(axis=0)
    up = poset.leq.sum(axis=1)
    return sorted((int(d), int(u)) for d, u in zip(down, up))


def find_order_iso(X, Y):
    """An order-isomorphism X -> Y as a MonotoneMap, or None.

    Backtracking on (down-set size, up-set size) signatures; adequate for the
    small carriers this engine works with.
    """
    if X.n != Y.n:
        return None
    if _iso_signature(X) != _iso_signature(Y):
        return None
    sig_y = {}
    down_y = Y.leq.sum(axis=0)
    up_y = Y.leq.sum(axis=1)
    for j in range(Y.n):
        sig_y.setdefault((int(down_y[j]), int(up_y[j])), []).append(j)
    down_x = X.leq.sum(axis=0)
    up_x = X.leq.sum(axis=1)

    assign = [None] * X.n
    used = [False] * Y.n

    def backtrack(i):
        if i == X.n:
            return True
        key = (int(down_x[i]), int(up_x[i]))
        for j in sig_y.get(key, []):
            if used[j]:
                continue
            ok = True
            for k in range(i):
                if X.leq[k, i] != Y.leq[assign[k], j] or X.leq[i, k] != Y.leq[j, assign[k]]:
                    ok = False
                    break
            if ok:
                assign[i] = j
                used[j] = True
                if backtrack(i + 1):
                    return True
                used[j] = False
                assign[i] = None
        return False

    if backtrack(0):
        return MonotoneMap(X, Y, assign)
    return None


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
    """The induced subposet on a sorted element list, with its ff inclusion."""
    elements = sorted(elements)
    idx = np.array(elements, dtype=np.intp)
    sub = FinPoset(X.leq[idx[:, None], idx])
    return sub, MonotoneMap(sub, X, elements)


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
    """The True cells of an |X| x |Y| mask, row-major, as a subposet of X x Y with projections."""
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
    """The power poset of monotone maps P -> X under pointwise order."""
    maps = all_monotone_maps(P, X)
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
    pre = X.leq.copy()
    pre[f0.assign, f1.assign] = True
    pre = transitive_closure(pre)
    Q, class_of = poset_reflection(pre)
    # pre contains the order of X, and Q orders the classes by pre
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


def is_comma_square(f, g, c0, c1):
    """Whether (c0, c1) out of a common domain is the comma of (f, g)."""
    C = c0.dom
    if C != c1.dom:
        return False
    seen = set()
    for c in range(C.n):
        x, y = c0.assign[c], c1.assign[c]
        if not f.cod.leq[f.assign[x], g.assign[y]]:
            return False
        seen.add((x, y))
    want = {
        (x, y)
        for x in range(f.dom.n)
        for y in range(g.dom.n)
        if f.cod.leq[f.assign[x], g.assign[y]]
    }
    return seen == want and jointly_order_mono(c0, c1)


def is_pullback_square(f, g, p0, p1):
    P = p0.dom
    if P != p1.dom:
        return False
    seen = set()
    for c in range(P.n):
        x, y = p0.assign[c], p1.assign[c]
        if f.assign[x] != g.assign[y]:
            return False
        seen.add((x, y))
    want = {
        (x, y)
        for x in range(f.dom.n)
        for y in range(g.dom.n)
        if f.assign[x] == g.assign[y]
    }
    return seen == want and jointly_order_mono(p0, p1)


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
