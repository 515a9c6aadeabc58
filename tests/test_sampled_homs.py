"""``characterize`` and ``commutation_check`` against their versions before the
sampled hom-sets ran on one stack of legs (``characterize_before.py``): the same
rendered reports, or the same refusal, at every bound up to 4."""

import pytest

from posrel.equivalence import (
    characterize,
    commutation_check,
    discrete_inclusion_functor,
    identity_functor,
)

import characterize_before as before
from test_equivalence import (
    doubling_functor,
    injections_only_functor,
    no_cover_functor,
    outside_cover_functor,
)

FUNCTORS = [
    identity_functor,
    discrete_inclusion_functor,
    doubling_functor,
    injections_only_functor,
    no_cover_functor,
    outside_cover_functor,
]


def outcome(check, *args):
    """The rendered reports of ``check(*args)``, or the class and message it raises."""
    try:
        got = check(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return [report.render() for report in (got if isinstance(got, list) else [got])]


@pytest.mark.parametrize("make", FUNCTORS, ids=lambda make: make.__name__)
@pytest.mark.parametrize("bound", range(5))
def test_characterize_renders_as_before(make, bound):
    assert outcome(characterize, make(), bound) == outcome(before.characterize, make(), bound)


@pytest.mark.parametrize("bound", range(5))
def test_commutation_check_renders_as_before(bound):
    assert outcome(commutation_check, bound) == outcome(before.commutation_check, bound)


def test_the_comparison_reaches_every_sampled_hom_set():
    # 9 sample objects at bound 3 and past it, so 81 hom-set lines for a functor that covers
    for make in (identity_functor, discrete_inclusion_functor):
        for bound in (3, 4):
            assert outcome(characterize, make(), bound)[2].count(")-carriers") == 81
