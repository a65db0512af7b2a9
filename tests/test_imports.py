"""Every import in src/, tests/, demos/ and perfbench/ is used, every
name the engine exports has a caller in src/, and attention masks stay
behind one function.

Package `__init__.py` files are exempt: their imports are re-exports.
A name counts as used when it appears as a name anywhere in the module
(attribute bases such as `np` in `np.zeros` included) or in `__all__`.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name the module never uses."""
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    files = [p for top in ("src", "tests", "demos", "perfbench") for p in sorted((ROOT / top).rglob("*.py"))
             if p.name != "__init__.py"]
    assert len(files) > 20
    unused = [f"{p.relative_to(ROOT)}:{line} {name}"
              for p in files for line, name in _unused_imports(p.read_text())]
    assert unused == []


def test_unused_import_is_found():
    source = ("from __future__ import annotations\nimport os.path\nimport json\n"
              "from math import pi, tau as turn\n__all__ = ['pi']\nprint(os.sep)\n")
    assert _unused_imports(source) == [(3, "json"), (4, "turn")]


def _uses(source: str) -> Counter:
    """How often each name is read (as a name, or as an attribute such as
    `engine.softmax`) outside the function or class that defines it."""
    uses: Counter = Counter()

    def visit(node, defining: frozenset):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        elif isinstance(node, ast.Name) and node.id not in defining:
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute) and node.attr not in defining:
            uses[node.attr] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(ast.parse(source), frozenset())
    return uses


def test_every_engine_export_has_a_caller_in_src():
    """Nothing public exists without a caller: each name in
    `engine.__all__` is read somewhere under src/ outside its own
    definition. Test-only helpers live in tests/gradcheck.py."""
    engine = ROOT / "src" / "paravox" / "engine.py"
    exported = next(ast.literal_eval(node.value) for node in ast.parse(engine.read_text()).body
                    if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__")
    uses = sum((_uses(p.read_text()) for p in sorted((ROOT / "src").rglob("*.py"))), Counter())
    assert len(exported) > 20
    assert [name for name in exported if not uses[name]] == []


def test_a_name_read_only_inside_its_definition_has_no_use():
    source = ("def alone(n):\n    return alone(n - 1) if n else 0\n"
              "class Used:\n    def f(self):\n        return Used\n"
              "x = Used()\n")
    uses = _uses(source)
    assert uses["alone"] == 0 and uses["Used"] == 1


def test_only_engine_names_the_mask_constant():
    """`engine.attention` builds every attention mask, so no other module
    under src/ names `NEG_MASK`."""
    files = sorted((ROOT / "src").rglob("*.py"))
    naming = [str(p.relative_to(ROOT)) for p in files if "NEG_MASK" in p.read_text()]
    assert naming == ["src/paravox/engine.py"]
