"""Every two-axis pullback of an order goes through ``poset.comma_mask``: no other
``posrel`` function chains two ``take`` calls, and no subscript broadcasts an index
with ``None`` (``idx[:, None]``) outside the functions named in ``BROADCASTS``."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "posrel").glob("*.py"))

CHAINED_TAKES = {"comma_mask": "the one helper: leq.take(rows, 0).take(cols, -1)"}
BROADCASTS = {
    "realize_morphisms": "its monotonicity cross-check needs one kernel per map of a stack, "
                         "which comma_mask's outer shape rule does not give",
    "ord_hom_poset": "an Ord oracle, kept independent of the helper whose results it checks",
}


def is_take(node):
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "take"


def is_none_axis(node):
    return (isinstance(node, ast.Constant) and node.value is None) or (
        isinstance(node, ast.Attribute) and node.attr == "newaxis")


def pullback_sites(source):
    """(function, kind) for each function of ``source`` that chains two ``take`` calls
    ("take") or subscripts with a tuple holding a ``None`` axis ("broadcast")."""
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if is_take(node) and is_take(node.func.value):
            found.add((function, "take"))
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple):
            if any(is_none_axis(index) for index in node.slice.elts):
                found.add((function, "broadcast"))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def all_sites():
    return set().union(*(pullback_sites(path.read_text()) for path in SOURCES))


@pytest.mark.parametrize("kind, allowed", [("take", CHAINED_TAKES), ("broadcast", BROADCASTS)])
def test_only_the_named_functions_pull_an_order_back_by_hand(kind, allowed):
    # equal, not a subset: an exception whose function no longer needs it is dropped
    assert {function for function, k in all_sites() if k == kind} == set(allowed)


def test_both_forms_are_reported():
    source = (
        "def kernel(leq, f):\n"
        "    return leq.take(f, 0).take(f, 1)\n"
        "def restrict(leq, idx):\n"
        "    return leq[idx[:, None], idx]\n"
        "def stack(pairs, rows):\n"
        "    return pairs[None], pairs[np.newaxis, :], pairs.take(rows.take([0]), 0)\n"
    )
    assert pullback_sites(source) == {("kernel", "take"), ("restrict", "broadcast"),
                                      ("stack", "broadcast")}


def test_every_module_is_checked():
    assert {p.name for p in SOURCES} >= {"equivalence.py", "exreg.py", "poset.py", "relation.py"}
