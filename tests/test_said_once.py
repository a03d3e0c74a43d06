"""Rules that are said once, in one module, and nowhere else.

* IR operator semantics live in ``repro/ir/ops.py``: the sign-wrap
  literal may appear only there (and in the sample of generated code in
  ``vm/codegen.py``'s docstring).
* The VM does not import up from the compiler, but for the lazy
  compile-cache lookup.
* Packed counter slots are split in ``repro/machine/perf.py`` alone:
  their 48-bit field width and its fold.
* Counter slots live as long as their machine: no weakref and no
  finalizer under ``machine/`` or ``runtime/``.

Each rule is a line pattern over the source files; a hand-written copy
of what one module owns fails here with its ``path:line``.
"""

from __future__ import annotations

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: rule -> (file globs, pattern, exempt: a line that matches it is
#: allowed).  ``exempt`` sees ``path:line:text``, ``path`` relative to
#: the repo.
RULES = {
    "the sign wrap is spelled outside repro/ir/ops.py": (
        ("src/repro/**/*.py",),
        r"0x80000000",
        r"^src/repro/ir/ops\.py:|^src/repro/vm/codegen\.py:\d+: +r0 = ",
    ),
    "repro.vm imports up from repro.compiler": (
        ("src/repro/vm/*.py",),
        r"from repro\.compiler",
        r"from repro\.compiler\.cache import resolve_cache",
    ),
    "packed counter fields are split outside repro/machine/perf.py": (
        ("src/repro/**/*.py",),
        r"\b_FIELD|(<<|>>|\*) *48\b|= *48$|& \(\(1 <<",
        r"^src/repro/machine/perf\.py:",
    ),
    "counter slots live as long as their machine: no weakref, no __del__": (
        ("src/repro/machine/**/*.py", "src/repro/runtime/**/*.py"),
        r"weakref|def __del__",
        None,
    ),
}


def _files(globs: tuple[str, ...]) -> list[pathlib.Path]:
    return sorted(path for spec in globs for path in ROOT.glob(spec))


def violations(globs: tuple[str, ...], pattern: str, exempt: str | None) -> list[str]:
    """``path:line:text`` of every line of the ``globs``' files that
    matches ``pattern`` and not ``exempt``."""
    found = []
    for path in _files(globs):
        name = path.relative_to(ROOT).as_posix()
        lines = path.read_text(encoding="utf-8").splitlines()
        for number, line in enumerate(lines, 1):
            where = f"{name}:{number}:{line}"
            if re.search(pattern, line) and not (exempt and re.search(exempt, where)):
                found.append(where)
    return found


@pytest.mark.parametrize("rule", sorted(RULES))
def test_said_once(rule):
    globs, pattern, exempt = RULES[rule]
    assert _files(globs), f"{globs} name no files"
    assert violations(globs, pattern, exempt) == [], rule
