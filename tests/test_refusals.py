"""Each refusal that an input can reach raises its exception class with its message:
mismatched carriers, legs that are not opposed, relations that are not
weakening-closed, a fork that is not exact and an unknown limit kind."""

import numpy as np
import pytest

from posrel.equivalence import morphism_from_map
from posrel.exreg import (
    BimoduleLawFailed,
    QwMorphism,
    compose_morphisms,
    derive_right_adjoint,
    gamma_object,
    hom_leq,
    identity_morphism,
    jointly_order_mono_pair,
    limit,
    tabulate,
    tabulation_factor,
    validate_morphism,
)
from posrel.poset import FinPoset, MonotoneMap, coinserter, comma, inserter, pullback
from posrel.relation import (
    DomainMismatch,
    NotExactFork,
    NotWeakening,
    Relation,
    ShapeMismatch,
    compose_categorical,
    delta,
    exact_fork_identities,
    has_right_adjoint,
    identity_I,
    is_adjoint_pair,
    meet,
)

C2, C3, D2 = FinPoset.chain(2), FinPoset.chain(3), FinPoset.discrete(2)
G1, G2, G3 = (gamma_object(FinPoset.chain(n)) for n in (1, 2, 3))
ID_C2, ID_C3, ID_D2 = (MonotoneMap.identity(X) for X in (C2, C3, D2))
ONE_1, ONE_2, ONE_3 = (identity_morphism(G) for G in (G1, G2, G3))
# delta(C2) lacks (0, 1), which 0 <= 1 weakens (0, 0) to
NOT_WEAKENING = delta(C2)

REFUSALS = {
    # relation.py
    "relation-shape": (lambda: Relation(D2, C2, np.ones((2, 3), bool)),
                       ShapeMismatch, "expected (2, 2) matrix, got (2, 3)"),
    "same-shape": (lambda: meet(Relation.full(D2, C2), Relation.full(C2, C2)),
                   DomainMismatch, "relations have different dom/cod"),
    "compose-categorical": (lambda: compose_categorical(identity_I(C3), identity_I(C2)),
                            DomainMismatch, "cod of inner relation must equal dom of outer"),
    "adjoint-right-not-weakening": (lambda: is_adjoint_pair(identity_I(C2), NOT_WEAKENING),
                                    NotWeakening, "right relation is not weakening-closed"),
    "adjoint-not-opposed": (lambda: is_adjoint_pair(identity_I(C2), identity_I(C3)),
                            DomainMismatch, "candidate adjoints must be opposed"),
    "fork-off-the-domain": (lambda: exact_fork_identities(ID_C2, identity_I(C3)),
                            NotExactFork, "congruence must live on the domain of p"),
    "fork-not-the-kernel": (lambda: exact_fork_identities(ID_C2, Relation.full(C2, C2)),
                            NotExactFork, "E is not the kernel congruence of p"),
    "right-adjoint-not-weakening": (lambda: has_right_adjoint(NOT_WEAKENING),
                                    NotWeakening, "relation is not weakening-closed"),
    # exreg.py
    "qw-morphism": (lambda: QwMorphism(G2, G2, identity_I(C3)),
                    DomainMismatch, "relation does not match src/tgt carriers"),
    "validate-lower": (lambda: validate_morphism(G2, G2, identity_I(C3), identity_I(C2)),
                       DomainMismatch, "lower leg does not match src -> tgt carriers"),
    "validate-upper": (lambda: validate_morphism(G2, G2, identity_I(C2), identity_I(C3)),
                       DomainMismatch, "upper leg does not match tgt -> src carriers"),
    "compose-morphisms": (lambda: compose_morphisms(ONE_3, ONE_2),
                          DomainMismatch, "composition mismatch"),
    "hom-leq": (lambda: hom_leq(ONE_2, ONE_3), DomainMismatch, "morphisms are not parallel"),
    "derive-right-adjoint": (lambda: derive_right_adjoint(G2, G2, NOT_WEAKENING),
                             BimoduleLawFailed, "F R_* E = R_* fails"),
    "q-morphism": (lambda: tabulate(identity_I(C3), G2, G2),
                   DomainMismatch, "relation does not match the given objects"),
    "tabulation-factor": (lambda: tabulation_factor(limit("product", G1, G1), ONE_2, ONE_1),
                          DomainMismatch, "cone legs do not match the tabulation"),
    "jointly-order-mono-pair": (lambda: jointly_order_mono_pair(ONE_2, ONE_3),
                                DomainMismatch, "legs have different sources"),
    "limit-comma": (lambda: limit("comma", ONE_2, ONE_3),
                    DomainMismatch, "comma needs a common target"),
    "limit-inserter": (lambda: limit("inserter", ONE_2, ONE_3),
                       DomainMismatch, "inserter needs a parallel pair"),
    "limit-pullback": (lambda: limit("pullback", ONE_2, ONE_3),
                       DomainMismatch, "pullback needs a common target"),
    "limit-unknown-kind": (lambda: limit("coproduct", ONE_2, ONE_2),
                           DomainMismatch, "unknown limit kind 'coproduct'"),
    # poset.py
    "assignment-length": (lambda: MonotoneMap(C2, C2, [0]),
                          ValueError, "assignment length does not match domain size"),
    "then": (lambda: ID_C2.then(ID_C3), ValueError, "composition mismatch"),
    "map-leq": (lambda: ID_C2.leq(ID_D2), ValueError, "maps are not parallel"),
    "inserter": (lambda: inserter(ID_C2, ID_D2), ValueError, "inserter needs a parallel pair"),
    "comma": (lambda: comma(ID_C2, ID_D2), ValueError, "comma needs a common codomain"),
    "pullback": (lambda: pullback(ID_C2, ID_D2), ValueError, "pullback needs a common codomain"),
    "coinserter": (lambda: coinserter(ID_C2, ID_D2), ValueError, "coinserter needs a parallel pair"),
    # equivalence.py
    "morphism-from-map": (lambda: morphism_from_map(G2, G2, ID_C3),
                          ValueError, "map does not connect the realizations"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal_raises_its_class_and_message(name):
    call, cls, message = REFUSALS[name]
    with pytest.raises(cls) as info:
        call()
    assert type(info.value) is cls
    assert str(info.value) == message
