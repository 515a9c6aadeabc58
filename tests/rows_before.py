"""``harness.gen_poset``, ``ExRegObject.from_pairs`` and ``poset.coinserter`` as
they were before posets kept their up-set bit rows: each builds a boolean matrix,
and closes it through ``closure``.  Kept verbatim, apart from this docstring, the
imports and ``from_pairs`` standing as a function of its class, as the oracle that
``test_kept_rows.py`` holds the new ones to: the same orders, and for ``gen_poset``
the same draws."""

import numpy as np

from posrel import poset
from posrel.poset import FinPoset, MonotoneMap, closure, pair_mask, poset_reflection


def gen_poset(rng, n, p=0.35):
    """Random poset: upper-triangular edges with probability p, then closure."""
    mat = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                mat[i, j] = True
    # the closure of a strictly upper-triangular matrix is reflexive, transitive and antisymmetric
    return FinPoset._trusted(poset.closure(mat))


def from_pairs(cls, X, pair_list):
    """X with the smallest congruence containing its order and the given pairs."""
    # the closure of a matrix that holds the order is a congruence
    return cls._trusted(X, closure(X.leq | pair_mask((X.n, X.n), pair_list)))


def coinserter(f0, f1):
    """Quotient of the codomain by the inequalities f0(c) <= f1(c).

    Returns the surjective quotient map; its codomain is the poset reflection
    of the smallest compatible preorder."""
    if f0.dom != f1.dom or f0.cod != f1.cod:
        raise ValueError("coinserter needs a parallel pair")
    X = f0.cod
    pre = X.leq.copy()
    pre[f0.assign, f1.assign] = True
    pre = closure(pre)
    Q, class_of = poset_reflection(pre)
    # pre contains the order of X, and Q orders the classes by pre
    return MonotoneMap._trusted(X, Q, class_of)

