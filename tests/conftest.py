"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pathlib

import pytest

from repro.compiler.driver import CompileOptions, compile_program
from repro.machine.config import CELL_LIKE, DSP_WORD, SMP_UNIFORM, MachineConfig
from repro.machine.machine import Machine
from repro.vm.interpreter import RunOptions, RunResult, run_program

try:
    from hypothesis import settings
except ImportError:  # only tests/properties needs hypothesis
    pass
else:
    # Tier-1 must be reproducible: property tests draw the same examples
    # on every run, so a counter-example is a deterministic failure to
    # fix rather than a flake in ``-x`` runs.  Fuzzing sessions restore
    # random exploration, at FUZZ_SCALE times each test's budget, with
    # ``pytest tests/properties --hypothesis-profile=fuzz``.
    settings.register_profile("tier1", derandomize=True)
    settings.register_profile("fuzz", derandomize=False, deadline=None)
    settings.load_profile("tier1")

#: How many times its pinned ``max_examples`` a property test draws under
#: the ``fuzz`` profile.
FUZZ_SCALE = 20


def pytest_collection_modifyitems(config, items):
    """Under ``--hypothesis-profile=fuzz``, scale every property test's
    budget: a ``@settings(max_examples=...)`` on the test outranks any
    profile, so the profile alone cannot raise it."""
    if config.getoption("hypothesis_profile", None) != "fuzz":
        return
    # Once per function: parametrized items and methods share one.
    tests = {getattr(test, "__func__", test) for test in (getattr(item, "obj", None) for item in items)}
    for test in tests:
        pinned = getattr(test, "_hypothesis_internal_use_settings", None)
        if pinned is not None:
            test._hypothesis_internal_use_settings = settings(
                pinned, max_examples=pinned.max_examples * FUZZ_SCALE
            )


def corpus_sources() -> list[tuple[str, str]]:
    """(name, source) for every ``repro.tools.check`` corpus generator
    and every ``perfbench/sources/*.om`` — the programs the lexer and
    checker are pinned on."""
    from repro.tools.check import _game_corpus

    root = pathlib.Path(__file__).resolve().parents[1]
    sources = list(_game_corpus())
    for path in sorted((root / "perfbench" / "sources").glob("*.om")):
        sources.append((f"perfbench:{path.name}", path.read_text()))
    return sources


@pytest.fixture
def cell_machine() -> Machine:
    return Machine(CELL_LIKE)


@pytest.fixture
def smp_machine() -> Machine:
    return Machine(SMP_UNIFORM)


@pytest.fixture
def dsp_machine() -> Machine:
    return Machine(DSP_WORD)


def run_source(
    source: str,
    config: MachineConfig = CELL_LIKE,
    options: CompileOptions | None = None,
    run_options: RunOptions | None = None,
) -> RunResult:
    """Compile and execute a source string on a fresh machine."""
    program = compile_program(source, config, options)
    machine = Machine(config)
    return run_program(program, machine, run_options)


def printed(source: str, config: MachineConfig = CELL_LIKE) -> list[object]:
    """The values a program prints, in order."""
    return run_source(source, config).printed


def error_codes(error) -> list[str]:
    """The diagnostic codes a :class:`~repro.errors.CompileError` carries."""
    return [d.code for d in error.diagnostics]
