"""Each module of the package imports only public names from its siblings.

A private name belongs to its module: a sibling that needs it should call
the public function built on it, so that each rule has one owner.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kuniform"

# (importing module, imported module, name): the one allowed reach across
ALLOWED = {
    # the integer core of `a_to_c`, which `cross_validate_alpha` (the
    # `verify --suite alpha` command) compares with the sums of the
    # recurrence without building a Fraction
    ("bounds", "enumerators", "_c_numerators"),
}


def _statements(body):
    """Every statement in `body`, nested ones too (an import is a statement)."""
    for node in body:
        yield node
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _statements(getattr(node, field, ()))


def _private_imports():
    for path in sorted(SRC.glob("*.py")):
        for node in _statements(ast.parse(path.read_text(encoding="utf-8")).body):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("kuniform")):
                source = (node.module or "").rpartition(".")[2]
                for alias in node.names:
                    if alias.name.startswith("_") and not alias.name.startswith("__"):
                        yield path.stem, source, alias.name


def test_no_module_imports_a_private_name_of_a_sibling():
    found = set(_private_imports())
    assert found - ALLOWED == set()
    assert ALLOWED <= found  # an exception no longer taken should go
