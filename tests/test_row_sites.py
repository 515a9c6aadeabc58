"""Only ``poset`` touches an order's bit rows: no other ``posrel`` module names the
row helpers or hands rows to ``FinPoset._trusted``, and the row work of a validated
congruence and of the catalogue runs through ``poset``'s own names, so a stand-in
patched there sees every call.  ``formats`` still hands a cyclic read's closure
rows, unread, from ``generated_poset`` to ``shortest_cyclic_prefix`` and
``first_cycle``; those names are not row helpers."""

import ast
from pathlib import Path

import numpy as np
import pytest

from posrel import equivalence, poset
from posrel.equivalence import all_posets_up_to_iso
from posrel.exreg import ExRegObject, NotCongruence
from posrel.poset import FinPoset

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "posrel").glob("*.py"))

ROW_HELPERS = {"_bit_rows", "_bool_rows", "_close_rows", "close_rows_with", "up_rows",
               "_least_order", "_row_colours"}


def named(node):
    """The name a node spells, as a name, an attribute or an import, else None."""
    for kind, field in ((ast.Name, "id"), (ast.Attribute, "attr"), (ast.alias, "name")):
        if isinstance(node, kind):
            return getattr(node, field)
    return None


def row_sites(source):
    """The row helpers that ``source`` names, and "rows to _trusted" if it calls
    ``FinPoset._trusted`` with a third argument."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if named(node) in ROW_HELPERS:
            found.add(named(node))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_trusted"
                and ast.unparse(node.func.value).split(".")[-1] == "FinPoset"
                and (len(node.args) > 2 or any(k.arg == "rows" for k in node.keywords))):
            found.add("rows to _trusted")
    return found


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "poset.py"], ids=lambda p: p.name)
def test_no_module_but_poset_touches_bit_rows(path):
    assert row_sites(path.read_text()) == set()


def test_every_form_is_reported():
    source = (
        "from .poset import _bit_rows as pack\n"
        "def a(P):\n"
        "    return poset.up_rows(P), _least_order(up, down)\n"
        "def b(n, up):\n"
        "    return FinPoset._trusted(leq, None, up), poset.FinPoset._trusted(leq, rows=up)\n"
        "def c(leq):\n"
        "    return FinPoset._trusted(leq), MonotoneMap._trusted(X, Y, assign)\n"
    )
    assert row_sites(source) == {"_bit_rows", "up_rows", "_least_order", "rows to _trusted"}


def test_poset_is_read_and_every_module_is_checked():
    assert row_sites((SOURCES[0].parent / "poset.py").read_text()) == ROW_HELPERS | {"rows to _trusted"}
    assert {p.name for p in SOURCES} >= {"equivalence.py", "exreg.py", "formats.py", "harness.py"}


def counting(monkeypatch, name):
    """The arguments of each call of ``poset.<name>``, which still runs."""
    calls = []
    real = getattr(poset, name)
    monkeypatch.setattr(poset, name, lambda arg: calls.append(arg) or real(arg))
    return calls


def test_a_validated_congruence_makes_one_closure_pass(monkeypatch):
    X = FinPoset.chain(3)
    closed = ExRegObject.from_pairs(X, [(1, 0)]).E.pairs
    broken = X.leq | np.eye(3, k=-1, dtype=bool)  # 1 ~ 0 and 2 ~ 1, but not 2 ~ 0
    cases = [(E, poset._bit_rows(E)) for E in (X.leq, closed, broken)]
    passes, packed = counting(monkeypatch, "_close_rows"), counting(monkeypatch, "_bit_rows")
    for E, rows in cases:
        del passes[:], packed[:]
        if E is broken:
            with pytest.raises(NotCongruence, match="^congruence is not transitive$"):
                ExRegObject(X, E)
        else:
            assert ExRegObject(X, E).E.pairs.tolist() == E.tolist()
        assert passes == [rows]
        assert [m.tolist() for m in packed] == [E.tolist()]


def test_a_cold_catalogue_packs_its_down_sets_in_poset(monkeypatch):
    equivalence._one_point_extensions.cache_clear()
    packed = counting(monkeypatch, "_bit_rows")
    assert len(all_posets_up_to_iso(4)) == 16
    calls = list(packed)
    parents = [P for k in range(4) for P in all_posets_up_to_iso(k)]
    # the empty poset keeps no rows and packs its up-sets first; then each parent packs
    # its down-sets, and every other parent hands its kept up-set rows over
    assert [m.tolist() for m in calls] == [[]] + [P.leq.T.tolist() for P in parents]
