"""``poset._refined_colours``, ``poset.canonical_certificate`` and
``equivalence._one_point_extensions`` as they were before the catalogue ran on
up-set bit rows: the refinement on Python lists read off the order matrix, every
labelling of the colour classes compared at once with numpy, and a ``FinPoset``
built for every candidate.  Kept verbatim, apart from this docstring and the
imports, as the oracle that ``test_catalogue_rows.py`` holds the new ones to: the
same colours, the same certificate bytes and the same catalogue."""

import itertools
import math
from functools import lru_cache

import numpy as np

from posrel.poset import FinPoset


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


@lru_cache(maxsize=None)
def _one_point_extensions(n):
    if n == 0:
        return (FinPoset.discrete(0),)
    m = n - 1
    subsets = ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1).astype(bool)
    found = {}
    for P in _one_point_extensions(m):
        # a subset is a down-set when nothing below one of its elements is outside it
        for down in subsets[~((subsets @ P.leq.T) & ~subsets).any(axis=1)]:
            leq = np.eye(n, dtype=bool)
            leq[:m, :m] = P.leq
            leq[:m, m] = down
            # above a down-set and below nothing, the new element keeps the order
            # reflexive, antisymmetric and transitive
            Q = FinPoset._trusted(leq)
            found.setdefault(canonical_certificate(Q), Q)
    return tuple(found[c] for c in sorted(found))
