"""Objects-with-congruence over finite posets and their calculus.

An object is one ``ExRegObject(X, E)``: a finite poset X with a congruence
E on it, the relation X ⇸ X that contains the order and is closed under
composition (hence weakening-closed).  Morphisms (X, E) -> (Y, F) are
adjoint pairs of bimodules (R_*, R^*); the identity on (X, E) is (E, E).
Tabulations give all finite limits, (so, ff)-factorizations, and the
exactness witnesses (split_congruence, canonical_presentation).
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .poset import (
    MAX_ELEMENTS,
    FinPoset,
    InputError,
    LawFailure,
    MapClass,
    TooLarge,
    bool_mat,
    pair_mask,
    pair_order,
    pair_span,
    transitive_closure,
)
from .relation import (
    DomainMismatch,
    NotAMap,
    Relation,
    compose,
    hypergraph,
    hypograph,
    meet,
    opposite,
    residual,
)


class NotCongruence(InputError):
    pass


class BimoduleLawFailed(LawFailure):
    pass


class AdjunctionFailed(LawFailure):
    pass


class NotQMorphism(LawFailure):
    pass


class ConeNotIncluded(LawFailure):
    pass


class NotCongruenceOver(InputError):
    pass


class CrossCheckFailed(AssertionError):
    """An internal cross-check failed: a bug in this package, not bad input."""


def crosscheck(cond, label):
    """Raise ``CrossCheckFailed(label)`` unless ``cond``; kept under ``python -O``."""
    if not cond:
        raise CrossCheckFailed(label)


class ExRegObject:
    """A pair (X, E): a finite poset with a congruence on it.

    ``E`` is the relation X ⇸ X; it contains the order and is transitive, so
    it is weakening-closed.  ``_realization`` holds the (Q, q) pair of
    ``equivalence.quotient_realize``, which computes it on first use; every
    later caller shares it."""

    __slots__ = ("X", "E", "_realization")

    def __init__(self, X, E):
        E = np.ascontiguousarray(E, dtype=bool)
        if E.shape != (X.n, X.n):
            raise NotCongruence(f"expected {(X.n, X.n)} matrix, got {E.shape}")
        if (X.leq & ~E).any():
            raise NotCongruence("congruence does not contain the order")
        if (bool_mat(E, E) & ~E).any():
            raise NotCongruence("congruence is not transitive")
        self._fill(X, E)

    @classmethod
    def _trusted(cls, X, E):
        """The object (X, E), unchecked; only for results of this package whose
        call site says why E is transitive and contains the order."""
        self = cls.__new__(cls)
        self._fill(X, E)
        return self

    def _fill(self, X, E):
        self.X = X
        self.E = Relation(X, X, E)
        self._realization = None

    @classmethod
    def from_pairs(cls, X, pair_list):
        """X with the smallest congruence containing its order and the given pairs."""
        return cls(X, transitive_closure(X.leq | pair_mask((X.n, X.n), pair_list)))

    def core(self):
        """E ∩ E°, the symmetric part; identity of the ambient allegory."""
        return meet(self.E, opposite(self.E))

    def __eq__(self, other):
        # E is a relation X ⇸ X, so equal congruences have equal carriers
        return isinstance(other, ExRegObject) and self.E == other.E

    def __hash__(self):
        return hash(self.E)

    def __repr__(self):
        return f"ExRegObject(n={self.X.n}, pairs={int(self.E.pairs.sum())})"


def gamma_object(X):
    """Γ X = (X, I_X)."""
    return ExRegObject(X, X.leq)


class QwMorphism:
    """A bimodule (X, E) -> (Y, F): weakening-closed Φ with F Φ E = Φ.

    These are the relations of the completion; the maps among them (the
    ones with a right adjoint) are the ExRegMorphisms."""

    __slots__ = ("src", "tgt", "rel")

    def __init__(self, src, tgt, rel):
        if rel.dom != src.X or rel.cod != tgt.X:
            raise DomainMismatch("relation does not match src/tgt carriers")
        if compose(tgt.E, compose(rel, src.E)) != rel:
            raise BimoduleLawFailed("F Φ E = Φ fails")
        self.src = src
        self.tgt = tgt
        self.rel = rel


class ExRegMorphism:
    """A map (X, E) -> (Y, F): an adjoint pair of bimodules (R_*, R^*)."""

    __slots__ = ("src", "tgt", "lower", "upper")

    def __init__(self, src, tgt, lower, upper):
        self.src = src
        self.tgt = tgt
        self.lower = lower
        self.upper = upper

    def __eq__(self, other):
        return (
            isinstance(other, ExRegMorphism)
            and self.src == other.src
            and self.tgt == other.tgt
            and self.lower == other.lower
            and self.upper == other.upper
        )

    def __hash__(self):
        return hash((self.src, self.tgt, self.lower, self.upper))

    def __repr__(self):
        return f"ExRegMorphism({self.src!r} -> {self.tgt!r})"


def validate_morphism(src, tgt, lower, upper):
    """Check all four morphism laws and return the validated morphism."""
    E = src.E
    F = tgt.E
    if lower.dom != src.X or lower.cod != tgt.X:
        raise DomainMismatch("lower leg does not match src -> tgt carriers")
    if upper.dom != tgt.X or upper.cod != src.X:
        raise DomainMismatch("upper leg does not match tgt -> src carriers")
    if compose(F, compose(lower, E)) != lower:
        raise BimoduleLawFailed("F R_* E = R_* fails")
    if compose(E, compose(upper, F)) != upper:
        raise BimoduleLawFailed("E R^* F = R^* fails")
    if not E.leq(compose(upper, lower)):
        raise AdjunctionFailed("R^* R_* ⊇ E fails")
    if not compose(lower, upper).leq(F):
        raise AdjunctionFailed("R_* R^* ⊆ F fails")
    return ExRegMorphism(src, tgt, lower, upper)


def identity_morphism(obj):
    """1_{(X,E)} = (E, E)."""
    return ExRegMorphism(obj, obj, obj.E, obj.E)


def gamma_morphism(f):
    """Γ f = (f_*, f^*) between Γ-objects."""
    return validate_morphism(
        gamma_object(f.dom), gamma_object(f.cod), hypergraph(f), hypograph(f)
    )


def compose_morphisms(S, R):
    """S after R: lower S_* R_*, upper R^* S^*."""
    if S.src != R.tgt:
        raise DomainMismatch("composition mismatch")
    return ExRegMorphism(
        R.src, S.tgt, compose(S.lower, R.lower), compose(R.upper, S.upper)
    )


def hom_leq(R, S):
    """R <= S in the hom-poset: reverse inclusion of the lower legs."""
    if R.src != S.src or R.tgt != S.tgt:
        raise DomainMismatch("morphisms are not parallel")
    lower_side = S.lower.leq(R.lower)
    upper_side = R.upper.leq(S.upper)
    crosscheck(lower_side == upper_side, "hom-order: lower and upper legs disagree")
    return lower_side


def hom_order(morphisms):
    """The k × k order on parallel morphisms: ``out[a, b]`` iff R_a <= R_b.

    With the lower legs stacked as rows of L, R_a <= R_b iff no cell is in
    L_b and not in L_a, so the order is ``~bool_mat(~L, L.T)``; the upper
    legs U, ordered by inclusion, give ``~bool_mat(U, ~U.T)``, and the two
    are cross-checked as in ``hom_leq``."""
    if not morphisms:
        return np.zeros((0, 0), dtype=bool)
    first = morphisms[0]
    for R in morphisms:
        if R.src != first.src or R.tgt != first.tgt:
            raise DomainMismatch("morphisms are not parallel")
    L = np.array([R.lower.pairs.ravel() for R in morphisms])
    U = np.array([R.upper.pairs.ravel() for R in morphisms])
    lower_side = ~bool_mat(~L, L.T)
    upper_side = ~bool_mat(U, ~U.T)
    crosscheck(np.array_equal(lower_side, upper_side), "hom-order: lower and upper legs disagree")
    return lower_side


def derive_right_adjoint(src, tgt, lower):
    """The unique R^* making (R_*, R^*) a morphism, if one exists.

    The candidate is the largest relation with R_* R^* ⊆ F, namely
    R^*(y, x) ⇔ ∀y'. R_*(x, y') ⇒ F(y, y'); any right adjoint is
    contained in it, so the adjunction unit holds for some R^* iff it
    holds for the candidate."""
    E = src.E
    F = tgt.E
    if compose(F, compose(lower, E)) != lower:
        raise BimoduleLawFailed("F R_* E = R_* fails")
    upper = residual(F, lower)
    if not E.leq(compose(upper, lower)):
        raise NotAMap("R_* has no right adjoint: unit inclusion fails")
    return upper


def graph_of(R):
    """gr(R_*) = R_* ∩ (R^*)°, the honest graph underneath the adjoint pair."""
    gr = meet(R.lower, opposite(R.upper))
    crosscheck(compose(R.tgt.E, gr) == R.lower, "graph_of: F gr = R_* fails")
    crosscheck(compose(opposite(gr), R.tgt.E) == R.upper, "graph_of: gr° F = R^* fails")
    return gr


def classify(R):
    """ff iff R^* R_* = E; so iff R_* R^* = F; iso iff both."""
    E = R.src.E
    F = R.tgt.E
    is_ff = compose(R.upper, R.lower) == E
    is_so = compose(R.lower, R.upper) == F
    gr = graph_of(R)
    crosscheck(is_so == (compose(gr, opposite(gr)) == R.tgt.core()), "classify: so by graph")
    return MapClass(is_ff, is_so)


Tabulation = namedtuple("Tabulation", ["apex", "leg0", "leg1", "phi"])


def _q_morphism_check(phi, src, tgt):
    if phi.dom != src.X or phi.cod != tgt.X:
        raise DomainMismatch("relation does not match the given objects")
    if compose(tgt.core(), compose(phi, src.core())) != phi:
        raise NotQMorphism("(F∩F°) Φ (E∩E°) = Φ fails")


def _check_apex_size(count):
    """Refuse a pair-set carrier of ``count`` elements above ``MAX_ELEMENTS``."""
    if count > MAX_ELEMENTS:
        raise TooLarge(f"apex of {count} elements exceeds the limit of {MAX_ELEMENTS}")


def tabulate(phi, src, tgt):
    """Tabulate a relation Φ: (X,E) ⇸ (Y,F) of the completion.

    The apex carrier is the pair set of Φ in lexicographic order, with
    componentwise order from X and Y; T(z, z') holds when both
    coordinates are congruent, and the legs push coordinates through
    the respective congruences.  Raises ``TooLarge`` before building an
    apex of more than ``MAX_ELEMENTS`` pairs."""
    _q_morphism_check(phi, src, tgt)
    _check_apex_size(int(np.count_nonzero(phi.pairs)))
    X, Y = src.X, tgt.X
    E, F = src.E.pairs, tgt.E.pairs
    # the product order of two orders, on distinct pairs (the cells of Φ's matrix), is an order
    Z = FinPoset._trusted(pair_order(X.leq, Y.leq, phi.pairs))
    # componentwise E x F is transitive and contains Z's order, as E and F do theirs
    apex = ExRegObject._trusted(Z, pair_order(E, F, phi.pairs))
    xs, ys = np.nonzero(phi.pairs)
    # rows and columns of the transitive E and F, with the apex's E x F: morphisms by construction
    leg0 = ExRegMorphism(apex, src, Relation(Z, X, E[xs, :]), Relation(X, Z, E[:, xs]))
    leg1 = ExRegMorphism(apex, tgt, Relation(Z, Y, F[ys, :]), Relation(Y, Z, F[:, ys]))
    tab = Tabulation(apex, leg0, leg1, phi)
    crosscheck(compose(graph_of(leg1), opposite(graph_of(leg0))) == phi,
               "tabulate: gr(leg1) gr(leg0)° = Φ fails")
    crosscheck(jointly_order_mono_pair(leg0, leg1), "tabulate: the legs are not jointly order-mono")
    return tab


def tabulation_factor(tab, S0, S1):
    """The unique morphism through a tabulation from a compatible cone.

    H_* = R0^* S0_* ∩ R1^* S1_*, and dually for H^*; requires
    gr(S1) gr(S0)° ⊆ Φ."""
    if S0.src != S1.src or S0.tgt != tab.leg0.tgt or S1.tgt != tab.leg1.tgt:
        raise DomainMismatch("cone legs do not match the tabulation")
    cone_rel = compose(graph_of(S1), opposite(graph_of(S0)))
    if not cone_rel.leq(tab.phi):
        raise ConeNotIncluded("gr(S1) gr(S0)° ⊆ Φ fails")
    lower = meet(
        compose(tab.leg0.upper, S0.lower), compose(tab.leg1.upper, S1.lower)
    )
    upper = meet(
        compose(S0.upper, tab.leg0.lower), compose(S1.upper, tab.leg1.lower)
    )
    H = validate_morphism(S0.src, tab.apex, lower, upper)
    crosscheck(compose_morphisms(tab.leg0, H) == S0, "tabulation_factor: leg0 H = S0 fails")
    crosscheck(compose_morphisms(tab.leg1, H) == S1, "tabulation_factor: leg1 H = S1 fails")
    return H


def jointly_order_mono_pair(R, S):
    """Whether (R, S) out of a common source is jointly order-mono.

    Criterion: R^* R_* ∩ S^* S_* = E."""
    if R.src != S.src:
        raise DomainMismatch("legs have different sources")
    return meet(compose(R.upper, R.lower), compose(S.upper, S.lower)) == R.src.E


def factorize(R):
    """(so, ff)-factorization by tabulating R R°.

    The two legs of that tabulation coincide and give the ff part; the
    so part is the factorization of the cone (R, R) through it."""
    phi = compose(graph_of(R), opposite(graph_of(R)))
    tab = tabulate(phi, R.tgt, R.tgt)
    crosscheck(tab.leg0 == tab.leg1, "factorize: the two legs differ")
    M = tab.leg0
    Q = tabulation_factor(tab, R, R)
    crosscheck(classify(Q).is_so, "factorize: the first factor is not so")
    crosscheck(classify(M).is_ff, "factorize: the second factor is not ff")
    crosscheck(compose_morphisms(M, Q) == R, "factorize: the factors do not compose to R")
    return Q, M


def limit(kind, *args):
    """Finite limits, each as a tabulation of the appropriate relation.

    kinds: ``terminal`` (no args), ``product`` / ``pullback`` /
    ``comma`` (two morphisms), ``inserter`` (a parallel pair).  Returns
    the terminal object, or the Tabulation whose apex is the limit."""
    if kind == "terminal":
        if args:
            raise DomainMismatch("terminal takes no arguments")
        return gamma_object(FinPoset.discrete(1))
    if len(args) != 2:
        raise DomainMismatch(f"{kind} takes two arguments, got {len(args)}")
    if kind == "product":
        A, B = args
        # the full relation is already closed under both (reflexive) cores
        return tabulate(Relation.full(A.X, B.X), A, B)
    if kind == "comma":
        R, S = args
        if R.tgt != S.tgt:
            raise DomainMismatch("comma needs a common target")
        return tabulate(compose(S.upper, R.lower), R.src, S.src)
    if kind == "inserter":
        R, S = args
        if R.src != S.src or R.tgt != S.tgt:
            raise DomainMismatch("inserter needs a parallel pair")
        phi = meet(compose(S.upper, R.lower), R.src.core())
        return tabulate(phi, R.src, R.src)
    if kind == "pullback":
        R, S = args
        if R.tgt != S.tgt:
            raise DomainMismatch("pullback needs a common target")
        phi = compose(opposite(graph_of(S)), graph_of(R))
        return tabulate(phi, R.src, S.src)
    raise DomainMismatch(f"unknown limit kind {kind!r}")


def split_congruence(obj, R):
    """Split a congruence R ⊇ E on (X, E) through the object (X, R).

    Returns the quotient map q: (X, E) -> (X, R) (an honest morphism,
    surjective with kernel congruence R) and the backward bimodule
    m: (X, R) -> (X, E); their composite is R as an endo-bimodule of
    (X, E).  The backward leg is in general only a bimodule, not a map."""
    R = np.asarray(R, dtype=bool)
    if (obj.E.pairs & ~R).any():
        raise NotCongruenceOver("R does not contain E")
    through = ExRegObject(obj.X, R)
    rel = through.E
    q = validate_morphism(obj, through, rel, rel)
    m = QwMorphism(through, obj, rel)
    crosscheck(compose(m.rel, q.lower) == rel, "split_congruence: m q = R fails")
    crosscheck(classify(q).is_so, "split_congruence: q is not so")
    crosscheck(compose(q.upper, q.lower) == rel, "split_congruence: the kernel of q is not R")
    return q, m


Presentation = namedtuple("Presentation", ["kernel", "e0", "e1", "quotient"])


def canonical_presentation(obj):
    """The exact sequence Γ(E-carrier) ⇉ Γ X ↠ (X, E).

    The kernel carrier is the pair poset of E with componentwise order;
    the quotient is the effective morphism (E, E): Γ X -> (X, E)."""
    X = obj.X
    E = obj.E
    _check_apex_size(int(np.count_nonzero(E.pairs)))
    K, e0, e1 = pair_span(X, X, E.pairs)
    quotient = validate_morphism(gamma_object(X), obj, E, E)
    return Presentation(gamma_object(K), gamma_morphism(e0), gamma_morphism(e1), quotient)
