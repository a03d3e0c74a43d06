"""Every definition under ``src/repro`` has a product caller.

The guard walks every module-level function and class, and every method,
under ``src/repro`` and fails on any that no *product* file names
outside its own definition.  Product files are ``src/``, ``benchmarks/``,
``examples/``, ``perfbench/`` and the CI workflows in ``.github/``; a
name only ``tests/`` uses counts as unused, so a helper kept alive by
its own unit test is flagged too.

"Names" is a name-level reference, not a call graph: any ``Name`` or
attribute load, any imported name, and any ``.name`` spelled inside a
string literal (generated code is text: the codegen engine emits calls
such as ``eng._call_by_name(...)``) counts for every definition of that
name.  Docstrings and comments never count.  Dunder methods are
protocol hooks and exempt; anything else kept on purpose goes in
:data:`ALLOWLIST` with a one-line reason.

When this fails: delete the definition (and the tests that only
exercise it), give it a product caller, or allowlist it with a reason.
"""

from __future__ import annotations

import ast
import pathlib
import re
from collections import defaultdict
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Where product code lives.  ``tests/`` is deliberately absent.
PRODUCT_DIRS = ("src", "benchmarks", "examples", "perfbench", ".github")

#: Definitions kept although no product file names them, with the reason.
ALLOWLIST = {
    "AbsInt.contains": "the soundness oracle: property tests check that "
    "every concrete register value lies inside its abstract value",
}

_WORD = re.compile(r"[A-Za-z_]\w*")
_ATTRIBUTE_IN_TEXT = re.compile(r"\.([A-Za-z_]\w*)")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass(frozen=True)
class Definition:
    path: pathlib.Path
    qualname: str
    name: str
    first: int
    last: int

    def describe(self, root: pathlib.Path) -> str:
        return f"{self.path.relative_to(root)}:{self.first}: {self.qualname}"


def _python_files(directory: pathlib.Path):
    return sorted(
        p for p in directory.rglob("*.py") if "__pycache__" not in p.parts
    )


def definitions(package: pathlib.Path) -> list[Definition]:
    """Module-level functions and classes, and their methods."""
    found = []
    for path in _python_files(package):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, _DEFS):
                continue
            found.append(Definition(
                path, node.name, node.name, node.lineno, node.end_lineno
            ))
            if isinstance(node, ast.ClassDef):
                found.extend(
                    Definition(
                        path, f"{node.name}.{m.name}", m.name,
                        m.lineno, m.end_lineno,
                    )
                    for m in node.body
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
    return found


def _docstring_ids(tree: ast.AST) -> set[int]:
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, *_DEFS))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }


def _python_uses(path: pathlib.Path, uses: dict) -> None:
    tree = ast.parse(path.read_text())
    docstrings = _docstring_ids(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            uses[node.id].append((path, node.lineno))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            uses[node.attr].append((path, node.lineno))
        elif isinstance(node, ast.alias):
            uses[node.name.rsplit(".", 1)[-1]].append((path, node.lineno))
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            for name in _ATTRIBUTE_IN_TEXT.findall(node.value):
                uses[name].append((path, node.lineno))


def product_uses(root: pathlib.Path, product_dirs=PRODUCT_DIRS) -> dict:
    """name -> [(path, line)] for every reference in product files."""
    uses: dict[str, list] = defaultdict(list)
    for top in product_dirs:
        directory = root / top
        for path in _python_files(directory):
            _python_uses(path, uses)
        for path in sorted(directory.rglob("*.y*ml")):
            for line, text in enumerate(path.read_text().splitlines(), 1):
                for name in _WORD.findall(text):
                    uses[name].append((path, line))
    return uses


def dead_definitions(
    root: pathlib.Path,
    package: str = "src/repro",
    product_dirs=PRODUCT_DIRS,
    allowlist=ALLOWLIST,
) -> list[Definition]:
    """Definitions under ``root/package`` no product file names."""
    uses = product_uses(root, product_dirs)
    return [
        d
        for d in definitions(root / package)
        if not (d.name.startswith("__") and d.name.endswith("__"))
        and d.qualname not in allowlist
        and all(
            path == d.path and d.first <= line <= d.last
            for path, line in uses.get(d.name, ())
        )
    ]


# ------------------------------------------------------------- the tree


def test_every_definition_has_a_product_caller():
    dead = dead_definitions(ROOT)
    assert not dead, (
        "named by no product file (delete it, give it a product caller, "
        "or allowlist it with a reason):\n"
        + "\n".join(d.describe(ROOT) for d in dead)
    )


def test_allowlist_holds_only_otherwise_dead_definitions():
    dead = {d.qualname for d in dead_definitions(ROOT, allowlist={})}
    assert set(ALLOWLIST) <= dead, set(ALLOWLIST) - dead
    assert all(reason.strip() for reason in ALLOWLIST.values())


# ------------------------------------------------------ the scanner itself


FIXTURE = {
    "src/pkg/mod.py": '''
def used():
    """Named by another product file."""


def dead():
    """Named by nothing."""


def tested():
    """Named only by a test."""


def recursive(n):
    return recursive(n - 1) if n else 0


class Engine:
    def __repr__(self):
        return "Engine()"

    def hook(self):
        """Allowlisted."""

    def _helper(self):
        """Called from generated code text."""


TEMPLATE = "eng._helper(ctx)"
''',
    "src/pkg/user.py": "from pkg.mod import used\n\nused()\n",
    "tests/test_mod.py": "from pkg.mod import tested\n\ntested()\n",
}


def _write_tree(root: pathlib.Path, files: dict[str, str]) -> None:
    for relative, text in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def _fixture_dead(tmp_path, allowlist) -> set[str]:
    _write_tree(tmp_path, FIXTURE)
    return {
        d.qualname
        for d in dead_definitions(tmp_path, "src/pkg", allowlist=allowlist)
    }


def test_scanner_flags_a_dead_and_a_self_recursive_definition(tmp_path):
    dead = _fixture_dead(tmp_path, {"Engine.hook": "kept"})
    assert {"dead", "recursive"} <= dead
    assert "used" not in dead


def test_scanner_flags_a_definition_only_tests_name(tmp_path):
    assert "tested" in _fixture_dead(tmp_path, {"Engine.hook": "kept"})


def test_scanner_passes_allowlisted_dunder_and_generated_code_uses(tmp_path):
    dead = _fixture_dead(tmp_path, {"Engine.hook": "kept"})
    assert dead == {"dead", "recursive", "tested", "Engine"}
    assert "Engine.hook" in _fixture_dead(tmp_path, {})


def test_scanner_counts_an_attribute_call_from_another_file(tmp_path):
    _write_tree(tmp_path, {
        "src/pkg/mod.py": "class Cache:\n    def flush(self):\n        pass\n",
        "src/pkg/user.py": "from pkg.mod import Cache\n\nCache().flush()\n",
    })
    assert dead_definitions(tmp_path, "src/pkg", allowlist={}) == []


def test_scanner_counts_a_name_in_a_ci_workflow(tmp_path):
    _write_tree(tmp_path, {
        "src/pkg/mod.py": "def gate():\n    pass\n",
        ".github/workflows/ci.yml": (
            "steps:\n  - run: python -c 'from pkg.mod import gate; gate()'\n"
        ),
    })
    assert dead_definitions(tmp_path, "src/pkg", allowlist={}) == []


def test_scanner_ignores_docstrings_and_comments(tmp_path):
    _write_tree(tmp_path, {
        "src/pkg/mod.py": "def ghost():\n    pass\n",
        "src/pkg/user.py": '"""Mentions ghost and pkg.ghost."""\n# ghost()\n',
    })
    dead = dead_definitions(tmp_path, "src/pkg", allowlist={})
    assert [d.qualname for d in dead] == ["ghost"]
