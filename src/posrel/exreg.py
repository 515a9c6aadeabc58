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
    FinPoset,
    InputError,
    LawFailure,
    MapClass,
    bool_mat,
    checked_pairs,
    close_over,
    closure,
    pair_order,
    pair_span,
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
    ``equivalence.quotient_realize``, which computes it on first use, and
    ``_core`` the relation ``core`` returns, kept on its first call; every
    later caller shares them."""

    __slots__ = ("X", "E", "_realization", "_core")

    def __init__(self, X, E):
        E = np.ascontiguousarray(E, dtype=bool)
        if E.shape != (X.n, X.n):
            raise NotCongruence(f"expected {(X.n, X.n)} matrix, got {E.shape}")
        if (X.leq & ~E).any():
            raise NotCongruence("congruence does not contain the order")
        # E holds the order, so it is reflexive, and transitive iff it equals its closure
        if (closure(E) != E).any():
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
        self._core = None

    @classmethod
    def from_pairs(cls, X, pair_list):
        """X with the smallest congruence containing its order and the given pairs."""
        # the closure of the order and some pairs is a congruence
        return cls._trusted(X, close_over(X, *checked_pairs((X.n, X.n), pair_list)))

    def core(self):
        """E ∩ E°, the symmetric part; identity of the ambient allegory."""
        if self._core is None:
            self._core = meet(self.E, opposite(self.E))
        return self._core

    def __eq__(self, other):
        # E is a relation X ⇸ X, so equal congruences have equal carriers
        return self is other or (isinstance(other, ExRegObject) and self.E == other.E)

    def __hash__(self):
        return hash(self.E)

    def __repr__(self):
        return f"ExRegObject(n={self.X.n}, pairs={int(self.E.pairs.sum())})"


def gamma_object(X):
    """Γ X = (X, I_X)."""
    # an order is transitive and contains itself
    return ExRegObject._trusted(X, X.leq)


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
    """A map (X, E) -> (Y, F): an adjoint pair of bimodules (R_*, R^*).

    The legs never change once built.  ``_graph`` holds the relation of
    ``graph_of``, stored there once its cross-checks have passed; every later
    call returns it."""

    __slots__ = ("src", "tgt", "lower", "upper", "_graph")

    def __init__(self, src, tgt, lower, upper):
        self.src = src
        self.tgt = tgt
        self.lower = lower
        self.upper = upper
        self._graph = None

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


def _check_morphism_laws(E, F, L, U):
    """The four morphism laws on k stacked pairs of legs (X, E) -> (Y, F).

    L holds the lower legs, shape (k, |X|, |Y|), and U the upper legs, shape
    (k, |Y|, |X|); E and F are the congruence matrices.  The laws are
    E L F = L, F U E = U, E <= L U and U L <= F.  Raises for the first
    morphism of the stack that breaks one, with the first law it breaks, as
    ``validate_morphism`` would on that morphism alone."""
    laws = (
        (BimoduleLawFailed, "F R_* E = R_* fails", bool_mat(bool_mat(E, L), F) != L),
        (BimoduleLawFailed, "E R^* F = R^* fails", bool_mat(bool_mat(F, U), E) != U),
        (AdjunctionFailed, "R^* R_* ⊇ E fails", E > bool_mat(L, U)),
        (AdjunctionFailed, "R_* R^* ⊆ F fails", bool_mat(U, L) > F),
    )
    if any(cells.any() for _, _, cells in laws):
        broken = np.array([cells.reshape(len(L), -1).any(axis=1) for _, _, cells in laws])
        # the first morphism that breaks a law, and the first law it breaks
        cls, message, _ = laws[broken[:, broken.any(axis=0).argmax()].argmax()]
        raise cls(message)


def validate_morphism(src, tgt, lower, upper):
    """Check all four morphism laws and return the validated morphism."""
    if lower.dom != src.X or lower.cod != tgt.X:
        raise DomainMismatch("lower leg does not match src -> tgt carriers")
    if upper.dom != tgt.X or upper.cod != src.X:
        raise DomainMismatch("upper leg does not match tgt -> src carriers")
    _check_morphism_laws(src.E.pairs, tgt.E.pairs, lower.pairs[None], upper.pairs[None])
    return ExRegMorphism(src, tgt, lower, upper)


def identity_morphism(obj):
    """1_{(X,E)} = (E, E)."""
    return ExRegMorphism(obj, obj, obj.E, obj.E)


def gamma_morphism(f):
    """Γ f = (f_*, f^*) between Γ-objects."""
    # the hypergraph and hypograph of a monotone map are adjoint bimodules
    return ExRegMorphism(gamma_object(f.dom), gamma_object(f.cod), hypergraph(f), hypograph(f))


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


def _check_parallel(morphisms):
    """Raise unless there is at least one morphism and all share one source and target."""
    if not morphisms:
        raise ValueError("no morphisms to stack")
    first = morphisms[0]
    for R in morphisms[1:]:
        if R.src != first.src or R.tgt != first.tgt:
            raise DomainMismatch("morphisms are not parallel")


def _stacked_legs(morphisms):
    """The legs of k >= 1 parallel morphisms (X, E) -> (Y, F), stacked: the lower
    ones with shape (k, |X|, |Y|) and the upper ones with (k, |Y|, |X|)."""
    _check_parallel(morphisms)
    return np.array([R.lower.pairs for R in morphisms]), np.array([R.upper.pairs for R in morphisms])


def hom_order(morphisms):
    """The k × k order on parallel morphisms: ``out[a, b]`` iff R_a <= R_b.

    ``_hom_order_of_legs`` on their stacked legs; an empty list has the empty
    order."""
    if not morphisms:
        return np.zeros((0, 0), dtype=bool)
    return _hom_order_of_legs(*_stacked_legs(morphisms))


def _hom_order_of_legs(L, U):
    """The k × k hom order of k >= 1 stacked pairs of legs, L of shape (k, |X|, |Y|)
    and U of (k, |Y|, |X|).

    With the lower legs as rows of L, R_a <= R_b iff no cell is in L_b and not
    in L_a, so the order is ``~bool_mat(~L, L.T)``; the upper legs U, ordered by
    inclusion, give ``~bool_mat(U, ~U.T)``, and the two are cross-checked as in
    ``hom_leq``."""
    L, U = (legs.reshape(len(legs), -1) for legs in (L, U))
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


def graph_stack(morphisms):
    """gr(R_*) = R_* ∩ (R^*)° of each of k parallel morphisms, stacked (k, |X|, |Y|).

    ``_graphs_of_legs`` runs both cross-checks on the whole stack of legs.  Each
    graph is kept on its morphism only once they pass, so a stack in which one
    morphism fails keeps no graph and raises on every call; a stack whose graphs
    are all kept is read back from them.  ``graph_of`` is its k = 1 case."""
    if all(R._graph is not None for R in morphisms):
        _check_parallel(morphisms)
        return np.array([R._graph.pairs for R in morphisms])
    gr = _graphs_of_legs(*_stacked_legs(morphisms), morphisms[0].tgt.E.pairs)
    gr.flags.writeable = False  # the kept graphs are views of it
    for R, g in zip(morphisms, gr):
        if R._graph is None:
            R._graph = Relation(R.src.X, R.tgt.X, g)
    return gr


def _graphs_of_legs(L, U, F):
    """gr = L ∩ U° of k stacked pairs of legs into (Y, F), L of shape (k, |X|, |Y|)
    and U of (k, |Y|, |X|), once both cross-checks have passed on the whole stack."""
    gr = L & U.transpose(0, 2, 1)
    # the products and the legs are bool arrays of one shape: equal bytes are equal stacks
    crosscheck(bool_mat(gr, F).tobytes() == L.tobytes(), "graph_of: F gr = R_* fails")
    crosscheck(bool_mat(F, gr.transpose(0, 2, 1)).tobytes() == U.tobytes(),
               "graph_of: gr° F = R^* fails")
    return gr


def graph_of(R):
    """gr(R_*) = R_* ∩ (R^*)°, the honest graph underneath the adjoint pair.

    The k = 1 case of ``graph_stack``: computed and cross-checked on the first
    call, then kept on R; a morphism that fails a cross-check keeps nothing, so
    it raises on every call."""
    if R._graph is None:
        graph_stack([R])
    return R._graph


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


def tabulate(phi, src, tgt):
    """Tabulate a relation Φ: (X,E) ⇸ (Y,F) of the completion.

    The apex carrier is ``pair_span``'s pair set of Φ in lexicographic
    order, with componentwise order from X and Y; T(z, z') holds when
    both coordinates are congruent, and the legs push coordinates through
    the respective congruences.  ``pair_span`` refuses an oversized
    apex, after the q-morphism check and before anything is built."""
    _q_morphism_check(phi, src, tgt)
    X, Y = src.X, tgt.X
    E, F = src.E.pairs, tgt.E.pairs
    Z, _, _ = pair_span(X, Y, phi.pairs)
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
    # R is transitive and contains E, so R R E = R, E <= R R and R R <= R
    q = ExRegMorphism(obj, through, rel, rel)
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
    K, e0, e1 = pair_span(X, X, E.pairs)
    # E is transitive and contains the order, so E E I = E, I <= E E and E E <= E
    quotient = ExRegMorphism(gamma_object(X), obj, E, E)
    return Presentation(gamma_object(K), gamma_morphism(e0), gamma_morphism(e1), quotient)
