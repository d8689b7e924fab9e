"""Guard against test-only twins of the production path.

Every public top-level function or class in ``src/etbell``, and every
public method of such a class, must be used somewhere in ``src/etbell``
(a name or attribute reference, not just an import).  Only top-level
names may sit on the short allow-list below; methods have none.  A helper
that only tests call is a second implementation of something the product
does its own way; re-point its tests at the function ``etbell run``
executes instead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "etbell"

# name -> why it may have no caller in src/
ALLOWED_UNREFERENCED = {
    "main": "console-script entry point (pyproject [project.scripts])",
    "match_bruteforce": "independent oracle for tagger.match",
    "deterministic_bound_check": "independent oracle behind `etbell oracle hug-bound`",
    "quadrature_faked_correlation": "independent quadrature oracle",
    "quadrature_selection_rate": "independent quadrature oracle",
    "chsh_three_term": "qmodel closed form",
    "critical_visibility": "qmodel closed form",
    "read_timetags_binary": "reads the time-tag format the run writes",
    "sample_quantum_events": "composes the draws and cell resolution the shard loop runs",
}


def _is_public(node: ast.stmt) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")


def public_definitions(src: Path) -> dict[str, str]:
    """Public top-level function and class names, and ``Class.method`` for
    each public method of those classes -> defining file name."""
    out = {}
    for path in sorted(src.glob("*.py")):
        for node in filter(_is_public, ast.parse(path.read_text(encoding="utf-8")).body):
            out[node.name] = path.name
            if isinstance(node, ast.ClassDef):
                for method in filter(_is_public, node.body):
                    out[f"{node.name}.{method.name}"] = path.name
    return out


def referenced_names(src: Path) -> set[str]:
    """Every name read or attribute accessed anywhere in the package."""
    names = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def unreferenced(src: Path) -> list[str]:
    used = referenced_names(src)
    return sorted(
        f"{module}:{name}"
        for name, module in public_definitions(src).items()
        if name.rsplit(".", 1)[-1] not in used and name not in ALLOWED_UNREFERENCED
    )


def test_every_public_definition_has_a_caller_in_src():
    assert unreferenced(SRC) == []


def test_allow_list_names_exist():
    assert set(ALLOWED_UNREFERENCED) <= set(public_definitions(SRC))


def test_guard_flags_an_unused_helper(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\ndef twin():\n    return used()\n\n\n"
        "def _private():\n    pass\n\n\nclass Orphan:\n    pass\n\n\n"
        "class Kept:\n    def run(self):\n        return self._step()\n\n"
        "    def _step(self):\n        return 1\n\n    def rate(self):\n        return 2\n"
    )
    (tmp_path / "b.py").write_text("from .a import Kept, Orphan\n\nprint(Orphan, Kept().run())\n")
    assert unreferenced(tmp_path) == ["a.py:Kept.rate", "a.py:twin"]
