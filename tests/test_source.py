"""Checks on the text of the package source."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sl2kit"

# The private names of the fractions module differ between the Python
# versions pyproject.toml allows (>= 3.10): Fraction(..., _normalize=False)
# is gone in 3.12, Fraction._from_coprime_ints is new there, and module
# constants such as _PyHASH_MODULUS may move.  The package uses the public
# API only (sys.hash_info for the hash modulus).
PRIVATE_FRACTIONS = re.compile(
    r"\b(?:Fraction|fractions)\s*\.\s*_\w+"
    r"|\bfrom\s+fractions\s+import\b[^\n]*\b_\w+"
    r"|\b_normalize\s*="
    r"|\._(?:numerator|denominator)\b")


def test_the_pattern_catches_each_private_form():
    for line in ["Fraction._from_coprime_ints(n, d)",
                 "fractions._PyHASH_MODULUS",
                 "from fractions import Fraction, _PyHASH_INF",
                 "Fraction(n, d, _normalize=False)",
                 "q._numerator * r._denominator"]:
        assert PRIVATE_FRACTIONS.search(line), line
    for line in ["from fractions import Fraction",
                 "Fraction(n, d).limit_denominator()",
                 "x._nums, x._den, q.numerator, q.denominator"]:
        assert not PRIVATE_FRACTIONS.search(line), line


def test_no_private_fractions_api():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 10
    hits = [f"{path.name}:{n}: {line.strip()}"
            for path in files
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if PRIVATE_FRACTIONS.search(line)]
    assert hits == []


def _unused_imports(text: str):
    """Names bound by a module-level import that the module never reads;
    from __future__ imports are exempt."""
    tree = ast.parse(text)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_the_import_check_catches_an_unused_name():
    text = ("from __future__ import annotations\n"
            "import math, os.path\n"
            "from fractions import Fraction as F, gcd\n"
            "x = math.inf + F(1) + os.sep\n")
    assert _unused_imports(text) == [(3, "gcd")]


def test_no_unused_module_imports():
    # __init__.py imports to re-export, so it is exempt
    hits = [f"{path.name}:{line}: {name}"
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
            for line, name in _unused_imports(path.read_text())]
    assert hits == []


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree):
    """(line, name) of each function, class and constant a module defines
    at its top level, and of each method of its classes."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield node.lineno, node.name
        if isinstance(node, ast.ClassDef):
            yield from ((item.lineno, item.name) for item in node.body
                        if isinstance(item, _DEFS[:2]))
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        yield from ((node.lineno, t.id) for t in targets
                    if isinstance(t, ast.Name))


def _unread_private_definitions(texts):
    """(module, line, name) for each private definition (a leading
    underscore, dunder names exempt) that none of the modules reads as a
    name or an attribute."""
    defined, read = [], set()
    for module, text in texts.items():
        tree = ast.parse(text)
        defined += [(module, line, name) for line, name in _definitions(tree)
                    if name.startswith("_") and not name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(d for d in defined if d[2] not in read)


def test_the_private_definition_check_catches_an_unread_name():
    texts = {"a.py": ("_LIMIT = 3\n_TABLE = {}\n__all__ = []\n"
                      "def _used():\n    return _LIMIT\n"
                      "def _table():\n    return 0\n"
                      "class _Kept:\n"
                      "    def __init__(self):\n        self._x = _used()\n"
                      "    def _read(self):\n        return 1\n"
                      "    def _left(self):\n        return 2\n"),
             "b.py": "from a import _Kept\n_Kept()._read()\n"}
    assert _unread_private_definitions(texts) == [
        ("a.py", 2, "_TABLE"), ("a.py", 6, "_table"), ("a.py", 13, "_left")]


def test_no_unread_private_definitions():
    texts = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _unread_private_definitions(texts) == []


def _names_defined_twice(texts):
    """(name, modules) for each top-level function, class or assigned name
    that more than one of the modules defines."""
    where = {}
    for module, text in texts.items():
        for node in ast.parse(text).body:
            if isinstance(node, _DEFS):
                names = [node.name]
            else:
                targets = node.targets if isinstance(node, ast.Assign) else \
                    [node.target] if isinstance(node, ast.AnnAssign) else []
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            for name in names:
                where.setdefault(name, set()).add(module)
    return sorted((name, sorted(modules)) for name, modules in where.items()
                  if len(modules) > 1)


def test_the_name_check_catches_a_name_defined_twice():
    texts = {"a.py": ("import math\n_TOL: float = 1e-9\n"
                      "def _product(x, y):\n    return x * y\n"
                      "class Kept:\n    def _product(self):\n        return 0\n"),
             "b.py": ("from a import Kept\n_TOL = 1e-12\nLIMIT = 3\n"
                      "def _product(x):\n    return x\n"),
             "c.py": "LIMIT, OTHER = 3, 4\nclass _product:\n    pass\n"}
    assert _names_defined_twice(texts) == [
        ("_TOL", ["a.py", "b.py"]), ("_product", ["a.py", "b.py", "c.py"])]


def test_no_name_defined_in_two_modules():
    texts = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _names_defined_twice(texts) == []
