"""src/liesym holds only the program.

Every top-level function and class under src/liesym must be named in
src/liesym outside its own definition: code that only tests reach
belongs in tests/ (the reference_*.py oracles), and a wrapper no
command calls is deleted.  An import alone does not count as a use, so
a re-export in a package __init__ keeps nothing alive.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "liesym"

# Top-level names no other program code names, each with its reason.
ALLOWED = {
    "adjoint_exp": "closed-form adjoint maps; acceptance criterion 5 checks "
                   "the paper's adjoint matrices from it",
    "generators_to_text": "the writer of the generator-file format",
}


def _unnamed_definitions():
    defined, named = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = path.relative_to(SRC)
                for sub in ast.walk(node):
                    owner[id(sub)] = node.name
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Name):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            else:
                continue
            if owner.get(id(sub)) != name:
                named.add(name)
    return {name: str(path) for name, path in defined.items() if name not in named}


def test_every_definition_is_named_in_the_program():
    unnamed = _unnamed_definitions()
    assert set(unnamed) - set(ALLOWED) == set(), unnamed
    # an exception that the program now names is no longer one
    assert set(ALLOWED) <= set(unnamed), sorted(set(ALLOWED) - set(unnamed))
