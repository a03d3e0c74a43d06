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
    # random exploration with ``pytest --hypothesis-profile=default``.
    settings.register_profile("tier1", derandomize=True)
    settings.load_profile("tier1")


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
