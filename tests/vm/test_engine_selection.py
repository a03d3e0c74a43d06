"""Engine selection and validation: RunOptions / --engine / REPRO_VM_ENGINE.

Unknown engine names must fail loudly at option-parse time with an
error listing the known engines, not deep inside the VM; the env-var
override goes through the same validation the first time an interpreter
is built.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.compiler.driver import compile_program
from repro.machine.config import CELL_LIKE
from repro.machine.machine import Machine
from repro.vm.codegen import CodegenInterpreter
from repro.vm.interpreter import (
    ENGINE_NAMES,
    Interpreter,
    RunOptions,
    make_interpreter,
    validate_engine,
)


@pytest.fixture()
def program():
    return compile_program("void main() { print_int(7); }", CELL_LIKE)


class TestValidateEngine:
    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_known_engines_pass_through(self, engine):
        assert validate_engine(engine) == engine

    def test_unknown_engine_lists_known_ones(self):
        with pytest.raises(ValueError) as excinfo:
            validate_engine("jit", source="--engine")
        message = str(excinfo.value)
        assert "unknown execution engine 'jit'" in message
        assert "--engine" in message
        for engine in ENGINE_NAMES:
            assert repr(engine) in message

    def test_run_options_reject_unknown_engine_at_construction(self):
        with pytest.raises(ValueError, match="unknown execution engine"):
            RunOptions(engine="turbo")

    def test_run_options_accept_none(self):
        assert RunOptions().engine is None


class TestSelection:
    def test_each_name_selects_its_class(self, program):
        machine = Machine(CELL_LIKE)
        interp = make_interpreter(
            program, machine, RunOptions(engine="reference")
        )
        assert type(interp) is Interpreter
        interp = make_interpreter(
            program, Machine(CELL_LIKE), RunOptions(engine="codegen")
        )
        assert type(interp) is CodegenInterpreter

    def test_default_engine_is_codegen(self):
        # DEFAULT_ENGINE is read at import time, so ask an interpreter
        # that starts with REPRO_VM_ENGINE unset.
        env = {
            k: v for k, v in os.environ.items() if k != "REPRO_VM_ENGINE"
        }
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        script = (
            "from repro.compiler.driver import compile_program\n"
            "from repro.machine import Machine, resolve_target\n"
            "from repro.vm import DEFAULT_ENGINE, make_interpreter\n"
            "config = resolve_target('cell')\n"
            "program = compile_program('void main() { }', config)\n"
            "engine = make_interpreter(program, Machine(config))\n"
            "print(DEFAULT_ENGINE, type(engine).__name__)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["codegen", "CodegenInterpreter"]

    def test_env_override_selects_engine(self, program, monkeypatch):
        import repro.vm.interpreter as interpreter_module

        monkeypatch.setattr(
            interpreter_module, "DEFAULT_ENGINE", "codegen"
        )
        interp = make_interpreter(program, Machine(CELL_LIKE), None)
        assert type(interp) is CodegenInterpreter

    def test_bad_env_override_fails_with_source(self, program, monkeypatch):
        import repro.vm.interpreter as interpreter_module

        monkeypatch.setattr(interpreter_module, "DEFAULT_ENGINE", "warp")
        with pytest.raises(ValueError) as excinfo:
            make_interpreter(program, Machine(CELL_LIKE), None)
        message = str(excinfo.value)
        assert "unknown execution engine 'warp'" in message
        assert "REPRO_VM_ENGINE" in message

    def test_explicit_options_beat_env_override(self, program, monkeypatch):
        import repro.vm.interpreter as interpreter_module

        monkeypatch.setattr(interpreter_module, "DEFAULT_ENGINE", "warp")
        # An explicit engine never consults the (broken) default.
        interp = make_interpreter(
            program, Machine(CELL_LIKE), RunOptions(engine="reference")
        )
        assert type(interp) is Interpreter


class TestCliSurface:
    def test_run_tool_rejects_unknown_engine(self, tmp_path, capsys):
        from repro.tools.run import main

        source = tmp_path / "p.om"
        source.write_text("void main() { print_int(1); }")
        with pytest.raises(SystemExit):
            main([str(source), "--engine", "jit"])
        assert "--engine" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_run_tool_accepts_each_engine(self, tmp_path, capsys, engine):
        from repro.tools.run import main

        source = tmp_path / "p.om"
        source.write_text("void main() { print_int(41); }")
        assert main([str(source), "--engine", engine]) == 0
        assert "41" in capsys.readouterr().out


KNOWN_ENGINES = "known engines: 'codegen', 'reference'"


class TestRemovedEngineName:
    """``compiled`` named the deleted closure engine; a shell profile,
    CI env, script or batch file may still carry it.  Every way in
    rejects it with the structured unknown-engine message and the
    tool's usage exit code."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["repro.tools.farm", "--corpus", "mixed"],
            ["repro.tools.farm", "--corpus", "mixed", "--serial"],
            ["repro.tools.run", "SOURCE"],
            ["repro.tools.sched", "SOURCE"],
        ],
        ids=["farm", "farm-serial", "run", "sched"],
    )
    def test_stale_env_default_is_a_usage_error(self, tmp_path, argv):
        source = tmp_path / "p.om"
        source.write_text("void main() { print_int(1); }")
        argv = [str(source) if arg == "SOURCE" else arg for arg in argv]
        env = dict(os.environ, REPRO_VM_ENGINE="compiled")
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        done = subprocess.run(
            [sys.executable, "-m", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 1, done.stderr
        assert done.stderr.strip() == (
            "error: unknown execution engine 'compiled' "
            f"(from REPRO_VM_ENGINE); {KNOWN_ENGINES}"
        )

    def test_engine_flag_is_an_argparse_usage_error(self, tmp_path, capsys):
        from repro.tools.run import main

        source = tmp_path / "p.om"
        source.write_text("void main() { print_int(1); }")
        with pytest.raises(SystemExit) as excinfo:
            main([str(source), "--engine", "compiled"])
        assert excinfo.value.code == 2
        complaint = capsys.readouterr().err
        assert "invalid choice: 'compiled'" in complaint
        choices = complaint.split("choose from", 1)[1]
        assert "codegen" in choices and "reference" in choices
        assert "compiled" not in choices

    def test_farm_job_and_batch_file(self, tmp_path, capsys):
        from repro.farm import FarmJob
        from repro.tools.farm import main

        with pytest.raises(ValueError) as excinfo:
            FarmJob("w", source="void main() { }", engine="compiled")
        assert str(excinfo.value) == (
            "unknown execution engine 'compiled' (from FarmJob.engine); "
            + KNOWN_ENGINES
        )
        batch = tmp_path / "batch.json"
        batch.write_text(
            '[{"workload": "w", "source": "void main() { }",'
            ' "engine": "compiled"}]'
        )
        assert main([str(batch)]) == 1
        assert capsys.readouterr().err.strip() == (
            f"error: batch file {str(batch)!r}, job [0]: unknown execution "
            f"engine 'compiled' (from FarmJob.engine); {KNOWN_ENGINES}"
        )
