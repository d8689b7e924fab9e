"""Guard against test-only twins of the production path.

Every public top-level function or class in ``src/etbell`` must be used
somewhere in ``src/etbell`` (a name or attribute reference, not just an
import), or be on the short allow-list below.  A helper that only tests
call is a second implementation of something the product does its own
way; re-point its tests at the function ``etbell run`` executes instead.
Methods are not checked.
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


def public_definitions(src: Path) -> dict[str, str]:
    """Public top-level function and class names -> defining file name."""
    out = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                out[node.name] = path.name
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
        if name not in used and name not in ALLOWED_UNREFERENCED
    )


def test_every_public_definition_has_a_caller_in_src():
    assert unreferenced(SRC) == []


def test_allow_list_names_exist():
    assert set(ALLOWED_UNREFERENCED) <= set(public_definitions(SRC))


def test_guard_flags_an_unused_helper(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\ndef twin():\n    return used()\n\n\n"
        "def _private():\n    pass\n\n\nclass Orphan:\n    pass\n"
    )
    (tmp_path / "b.py").write_text("from .a import Orphan\n\nprint(Orphan)\n")
    assert unreferenced(tmp_path) == ["a.py:twin"]
