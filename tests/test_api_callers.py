"""Every public definition in ``posrel`` has a caller in the package or a README line.

A public definition is a module-level function or class, or a method of such
a class, whose name does not start with ``_``.  It counts as called when some
``src/posrel`` module reads its name (an ``ast.Name``, or an ``ast.Attribute``
whose root is not an imported library module such as ``np``, so ``np.empty``
does not count as reading ``Relation.empty``).  It counts as documented when
README names it in backticks: ``name`` (or ``module.name``) for a module-level
definition, ``Class.method`` for a method.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "posrel").glob("*.py"))
README = ROOT / "README.md"


def public_definitions(source):
    """The public functions, classes and methods of ``source``; a method is
    named ``Class.method``."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append(node.name)
            if isinstance(node, ast.ClassDef):
                found.extend(
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                )
    return found


def _root(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def names_read(source):
    """The names and attribute names ``source`` reads, leaving out attributes
    of a module bound by a plain ``import`` (``numpy``, the standard library)."""
    tree = ast.parse(source)
    libraries = {
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            root = _root(node)
            if not (isinstance(root, ast.Name) and root.id in libraries):
                read.add(node.attr)
    return read


def backticked(text):
    """The dotted identifiers inside the backtick spans of ``text``."""
    return {
        word
        for span in re.findall(r"`([^`\n]+)`", text)
        for word in re.findall(r"[A-Za-z_][\w.]*\w|[A-Za-z_]", span)
    }


def documented(name, words):
    return any(word == name or word.endswith("." + name) for word in words)


def uncalled(sources):
    """(module, name) for each public definition of ``sources`` (a dict of
    module name to source text) that no source reads."""
    read = set().union(*(names_read(text) for text in sources.values()))
    return [
        (module, name)
        for module, text in sorted(sources.items())
        for name in public_definitions(text)
        if name.rpartition(".")[2] not in read
    ]


def undocumented(sources, readme):
    """``module.name`` for each definition of ``uncalled(sources)`` that
    ``readme`` does not name."""
    words = backticked(readme)
    return [f"{m}.{name}" for m, name in uncalled(sources) if not documented(name, words)]


def test_every_public_definition_is_called_or_documented():
    sources = {path.stem: path.read_text() for path in SOURCES}
    no_caller = [f"{m}.{name}" for m, name in uncalled(sources)]
    assert undocumented(sources, README.read_text()) == [], f"no caller in src/posrel: {no_caller}"


def test_an_uncalled_definition_is_reported():
    sources = {
        "a": (
            "import numpy as np\n"
            "class R:\n"
            "    def empty(self):\n"
            "        return np.empty(0)\n"
            "    def full(self):\n"
            "        pass\n"
            "    def _private(self):\n"
            "        pass\n"
            "def helper():\n"
            "    pass\n"
            "def listed():\n"
            "    pass\n"
            "def _hidden():\n"
            "    pass\n"
        ),
        "b": "from .a import R\nR().full()\nR()\n",
    }
    assert uncalled(sources) == [("a", "R.empty"), ("a", "helper"), ("a", "listed")]
    readme = "The `listed` helper and `b.R(x)`; `empty` alone names no method.\n"
    assert undocumented(sources, readme) == ["a.R.empty", "a.helper"]


@pytest.mark.parametrize(
    "name, readme, expected",
    [
        ("FinPoset.chain", "`FinPoset.chain(n)`", True),
        ("FinPoset.chain", "`chain`", False),
        ("delta", "`relation.delta`", True),
        ("delta", "`delta_x`", False),
        ("OrdObject.to_poset", "`equivalence.OrdObject.to_poset`", True),
    ],
)
def test_readme_names_match_whole_dotted_words(name, readme, expected):
    assert documented(name, backticked(readme)) is expected


def test_every_module_is_scanned():
    assert {p.name for p in SOURCES} >= {"exreg.py", "poset.py", "relation.py", "cli.py"}
