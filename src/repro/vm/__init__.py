"""Execution engine: runs IR programs on the simulated machine.

The interpreter is deterministic: each logical thread (the host plus one
per offload launch) executes to completion with its own cycle counter;
parallelism is modelled by clock combination at launch/join points, so
measured cycle counts are exactly reproducible run to run.

Two engines share the contract (identical cycles, counters, traces):
the source-codegen engine (:mod:`repro.vm.codegen`; the default —
:data:`DEFAULT_ENGINE` — whose code objects the compile cache keeps
across processes) and the reference decode loop
(:mod:`repro.vm.interpreter`; the semantic source of truth and the
oracle of the equivalence suite).
"""

from repro.vm.codegen import (
    CodegenInterpreter,
    CodegenStats,
    generate_module_source,
    warm_translations,
)
from repro.vm.interpreter import (
    DEFAULT_ENGINE,
    ENGINE_NAMES,
    Interpreter,
    RunOptions,
    RunResult,
    make_interpreter,
    run_program,
    validate_engine,
)

__all__ = [
    "CodegenInterpreter",
    "CodegenStats",
    "DEFAULT_ENGINE",
    "ENGINE_NAMES",
    "Interpreter",
    "RunOptions",
    "RunResult",
    "generate_module_source",
    "make_interpreter",
    "run_program",
    "validate_engine",
    "warm_translations",
]
