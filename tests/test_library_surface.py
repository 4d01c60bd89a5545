"""The library is what the commands run: every function, class and method
of ``src/floquet_sensor`` is used by the package itself.

A closed form or reference construction that only a test calls belongs in
``tests/oracles.py``.  The scan reads the package's source with ``ast``:
an undecorated top-level function or class, or an undecorated method, must
be referenced by name (an ``ast.Name`` or an ``ast.Attribute``) from some
module other than ``__init__``.  Dunder methods are called by Python and
decorated definitions (click commands, properties) are reached through
their decorator, so neither is checked.  The match is by name only, so it
can miss an unused method that shares its name with a used attribute.
"""

import ast
from pathlib import Path

import floquet_sensor

PACKAGE = Path(floquet_sensor.__file__).parent

# the only definitions that no module of the package uses, and why they stay
ALLOWED = {
    "evolve": "public API: the acceptance tests call it, bench/tracing.py wraps it",
    "micromotion_error": "public API: acceptance criterion 9 measures the "
                         "micromotion factorization with it",
    "_reduce_product": "bench/layers.py times it as the substep product layer",
}


def _definitions(tree: ast.Module) -> set[str]:
    """Names of the undecorated top-level functions and classes and of the
    undecorated, non-dunder methods of every top-level class."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.decorator_list:
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(
                item.name for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.decorator_list
                and not (item.name.startswith("__") and item.name.endswith("__")))
    return names


def _references(tree: ast.Module) -> set[str]:
    """Every name read as an ``ast.Name`` or an ``ast.Attribute`` in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_definition_is_used_by_the_package():
    defined, used = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined |= _definitions(tree)
        if path.name != "__init__.py":
            used |= _references(tree)
    assert defined - used == set(ALLOWED)
