"""Relations between finite posets and the weakening-closed calculus.

A relation X ⇸ Y is a |X| x |Y| boolean matrix; pairs[x, y] means x R y.
The weakening-closed ones (x' <= x, x R y, y <= y'  implies  x' R y') form
the hom-posets of the relational calculus this engine is built on.  The
weakening flag is computed from the matrix when asked, never stored.
"""

from __future__ import annotations

import numpy as np

from .poset import (
    InputError,
    LawFailure,
    MonotoneMap,
    bool_mat,
    index_mask,
    pair_mask,
    pair_span,
    pullback,
)


class DomainMismatch(InputError):
    pass


class ShapeMismatch(InputError):
    pass


class NotWeakening(InputError):
    pass


class NotAMap(LawFailure):
    pass


class NotExactFork(LawFailure):
    pass


class Relation:
    """An immutable relation between two finite posets."""

    __slots__ = ("dom", "cod", "pairs")

    def __init__(self, dom, cod, pairs):
        pairs = np.ascontiguousarray(pairs, dtype=bool)
        if pairs.shape != (dom.n, cod.n):
            raise ShapeMismatch(
                f"expected {(dom.n, cod.n)} matrix, got {pairs.shape}"
            )
        pairs.flags.writeable = False
        self.dom = dom
        self.cod = cod
        self.pairs = pairs

    @classmethod
    def from_pairs(cls, dom, cod, pair_list):
        return cls(dom, cod, pair_mask((dom.n, cod.n), pair_list))

    @classmethod
    def empty(cls, dom, cod):
        return cls(dom, cod, np.zeros((dom.n, cod.n), dtype=bool))

    @classmethod
    def full(cls, dom, cod):
        return cls(dom, cod, np.ones((dom.n, cod.n), dtype=bool))

    def pair_list(self):
        """The pairs as tuples of Python ints, in row-major order."""
        rows, cols = np.nonzero(self.pairs)
        return list(zip(rows.tolist(), cols.tolist()))

    def weakening_closure(self):
        """Smallest weakening-closed relation containing this one: I_Y R I_X."""
        return Relation(
            self.dom, self.cod, bool_mat(bool_mat(self.dom.leq, self.pairs), self.cod.leq)
        )

    @property
    def is_weakening(self):
        """Whether x' <= x and x R y and y <= y' imply x' R y'."""
        return bool(self.weakening_closure() == self)

    def leq(self, other):
        """Inclusion as subsets of X x Y."""
        _same_shape(self, other)
        return bool((self.pairs <= other.pairs).all())

    def __eq__(self, other):
        return (
            isinstance(other, Relation)
            and self.dom == other.dom
            and self.cod == other.cod
            # both are bool of shape (dom.n, cod.n), so equal bytes are equal matrices
            and self.pairs.tobytes() == other.pairs.tobytes()
        )

    def __hash__(self):
        return hash((self.dom, self.cod, self.pairs.tobytes()))

    def __repr__(self):
        return f"Relation({self.pair_list()})"


def _same_shape(r, s):
    if r.dom != s.dom or r.cod != s.cod:
        raise DomainMismatch("relations have different dom/cod")


def compose(S, R):
    """S after R: (x, z) iff some y has R(x, y) and S(y, z)."""
    if R.cod != S.dom:
        raise DomainMismatch("cod of inner relation must equal dom of outer")
    return Relation(R.dom, S.cod, bool_mat(R.pairs, S.pairs))


def compose_categorical(S, R):
    """Composite built as the paper does it: pullback of spans, then image.

    A relation X ⇸ Y is spanned by its pair set with the two coordinate
    maps; composing means pulling back over Y and taking the (so, ff)
    image of the outer legs into X x Z, whose carrier is the pairs they
    reach.  Each span is built at its relation's size, and X x Z is not
    built.  Used only to cross-check ``compose``."""
    if R.cod != S.dom:
        raise DomainMismatch("cod of inner relation must equal dom of outer")
    TR, r0, r1 = pair_span(R.dom, R.cod, R.pairs)
    TS, s0, s1 = pair_span(S.dom, S.cod, S.pairs)
    Pb, q0, q1 = pullback(r1, s0)
    image = index_mask((R.dom.n, S.cod.n), q0.then(r0).assign, q1.then(s1).assign)
    return Relation(R.dom, S.cod, image)


def opposite(R):
    return Relation(R.cod, R.dom, R.pairs.T)


def meet(R, S):
    _same_shape(R, S)
    return Relation(R.dom, R.cod, R.pairs & S.pairs)


def delta(X):
    """The diagonal; the identity for general relations."""
    return Relation(X, X, np.eye(X.n, dtype=bool))


def identity_I(X):
    """The order relation of X; the identity for weakening-closed relations."""
    return Relation(X, X, X.leq)


def graph(f):
    return Relation(f.dom, f.cod, index_mask((f.dom.n, f.cod.n), range(f.dom.n), f.assign))


def hypergraph(f):
    """f_* = {(x, y) : f(x) <= y}."""
    return Relation(f.dom, f.cod, f.cod.leq[list(f.assign), :])


def hypograph(f):
    """f^* = {(y, x) : y <= f(x)}."""
    return Relation(f.cod, f.dom, f.cod.leq[:, list(f.assign)])


def smallest_violation(big, small):
    """Lexicographically least pair in ``small`` missing from ``big``, or None."""
    diff = small.pairs & ~big.pairs
    hits = np.argwhere(diff)
    if len(hits) == 0:
        return None
    return (int(hits[0][0]), int(hits[0][1]))


def check_modular_law(P, Q, S):
    """Check ML and its dual on a composable triple.

    ML:  QP ∩ S  ⊆  Q (P ∩ Q°S)
    ML*: QP ∩ S  ⊆  (Q ∩ S P°) P
    with P: X ⇸ Y, Q: Y ⇸ Z, S: X ⇸ Z.  Returns the witnesses of failure: the
    lexicographically least missing pair under "ML" and "ML*" for each law that
    fails, so an empty dict when both hold."""
    if P.cod != Q.dom or P.dom != S.dom or Q.cod != S.cod:
        raise ShapeMismatch("need P: X->Y, Q: Y->Z, S: X->Z")
    lhs = meet(compose(Q, P), S)
    ml_rhs = compose(Q, meet(P, compose(opposite(Q), S)))
    ml_star_rhs = compose(meet(Q, compose(S, opposite(P))), P)
    witnesses = {}
    w = smallest_violation(ml_rhs, lhs)
    if w is not None:
        witnesses["ML"] = w
    w = smallest_violation(ml_star_rhs, lhs)
    if w is not None:
        witnesses["ML*"] = w
    return witnesses


def check_map_distributivity(f, g, R, S):
    """Both restricted distributivity laws.

    MD:  (R ∩ S) f_* = R f_* ∩ S f_*   for f: W -> X
    MD*: g^* (R ∩ S) = g^* R ∩ g^* S   for g: Z -> Y
    with R, S: X ⇸ Y weakening-closed."""
    _same_shape(R, S)
    fs = hypergraph(f)
    gh = hypograph(g)
    md = compose(meet(R, S), fs) == meet(compose(R, fs), compose(S, fs))
    md_star = compose(gh, meet(R, S)) == meet(compose(gh, R), compose(gh, S))
    return md and md_star


def is_adjoint_pair(phi, psi):
    """Whether I_X ⊆ ψφ and φψ ⊆ I_Y in the weakening-closed calculus."""
    if not phi.is_weakening:
        raise NotWeakening("left relation is not weakening-closed")
    if not psi.is_weakening:
        raise NotWeakening("right relation is not weakening-closed")
    if phi.cod != psi.dom or phi.dom != psi.cod:
        raise DomainMismatch("candidate adjoints must be opposed")
    unit = identity_I(phi.dom).leq(compose(psi, phi))
    counit = compose(phi, psi).leq(identity_I(phi.cod))
    return unit and counit


def extract_map(phi, psi):
    """Recover the monotone map f with φ = f_* and ψ = f^* from an adjoint pair."""
    if not is_adjoint_pair(phi, psi):
        raise NotAMap("relations are not an adjoint pair")
    G = meet(phi, opposite(psi))
    assign = []
    for x in range(phi.dom.n):
        ys = np.flatnonzero(G.pairs[x])
        if len(ys) != 1:
            raise NotAMap(f"element {x} relates to {len(ys)} elements, not 1")
        assign.append(int(ys[0]))
    return MonotoneMap(phi.dom, phi.cod, assign)


def kernel_identity_check(f):
    """Whether f^* f_* equals the kernel congruence f/f as relations on X."""
    from .poset import kernel_congruence

    composite = compose(hypograph(f), hypergraph(f))
    _, k0, k1 = kernel_congruence(f)
    return composite == Relation(f.dom, f.dom, index_mask((f.dom.n, f.dom.n), k0.assign, k1.assign))


def exact_fork_identities(p, E):
    """Check the relational identities of an exact fork (p so, E = p/p).

    pE = p_*, Ep° = p^*, p_* E p^* = I_P, p_* p^* = I_P, p°p = E ∩ E°."""
    if E.dom != p.dom or E.cod != p.dom:
        raise NotExactFork("congruence must live on the domain of p")
    if not p.is_surjective():
        raise NotExactFork("p is not surjective")
    expected = compose(hypograph(p), hypergraph(p))
    if E != expected:
        raise NotExactFork("E is not the kernel congruence of p")
    g = graph(p)
    I_P = identity_I(p.cod)
    report = {
        "pE = p_*": compose(g, E) == hypergraph(p),
        "Ep° = p^*": compose(E, opposite(g)) == hypograph(p),
        "p_* E p^* = I_P": compose(hypergraph(p), compose(E, hypograph(p))) == I_P,
        "p_* p^* = I_P": compose(hypergraph(p), hypograph(p)) == I_P,
        "p°p = E ∩ E°": compose(opposite(g), g) == meet(E, opposite(E)),
    }
    return report


def residual(F, R):
    """The largest S: W ⇸ X with R S ⊆ F, for R: X ⇸ Y and F: W ⇸ Y.

    S(w, x) ⇔ ∀y. R(x, y) ⇒ F(w, y), i.e. no y has R(x, y) and not
    F(w, y).  A row of R with no pairs gives an all-true column of S."""
    if F.cod != R.cod:
        raise DomainMismatch("residual needs a common codomain")
    return Relation(F.dom, R.dom, ~bool_mat(~F.pairs, R.pairs.T))


def has_right_adjoint(phi):
    """Search for a weakening-closed right adjoint of φ by the candidate formula.

    If a right adjoint exists it is the largest ψ with φψ ⊆ I_Y, namely
    residual(I_Y, φ); that is weakening-closed when φ is, and its counit
    φψ ⊆ I_Y holds by definition, so only the unit I_X ⊆ ψφ is tested."""
    if not phi.is_weakening:
        raise NotWeakening("relation is not weakening-closed")
    psi = residual(identity_I(phi.cod), phi)
    return psi if identity_I(phi.dom).leq(compose(psi, phi)) else None
