"""Serializable program artifacts: determinism and run equivalence.

The contract the compile cache depends on: compiling the same source
twice yields byte-identical canonical JSON, ``program_to_dict ->
program_from_dict -> program_to_dict`` is the identity on that JSON, and a deserialized program runs
cycle-for-cycle, counter-for-counter identically to the fresh compile on
both execution engines.
"""

import copy
import json

import pytest

from repro.compiler.driver import CompileOptions, compile_program
from repro.ir.instructions import AccSpace, BinOp, Copy, Load
from repro.ir.serialize import (
    ARTIFACT_VERSION,
    SCHEMA_DIGEST,
    ArtifactError,
    instr_from_record,
    instr_to_record,
    program_from_dict,
    program_from_json,
    program_to_dict,
    program_to_json,
)
from repro.machine.config import CELL_LIKE, DSP_WORD, SMP_UNIFORM
from repro.machine.machine import Machine
from repro.game.sources import (
    ai_kernel_source,
    figure2_source,
    move_loop_source,
    word_struct_source,
)
from repro.vm.interpreter import ENGINE_NAMES, RunOptions, run_program

WORKLOADS = [
    ("figure2-cell", figure2_source(entity_count=8, pair_count=6, frames=1), CELL_LIKE, CompileOptions()),
    ("figure2-smp", figure2_source(entity_count=8, pair_count=6, frames=1), SMP_UNIFORM, CompileOptions()),
    ("ai-demand", ai_kernel_source(entity_count=6), CELL_LIKE, CompileOptions(demand_load=True)),
    ("word-dsp", word_struct_source(packet_count=6), DSP_WORD, CompileOptions()),
    ("figure2-opt", figure2_source(entity_count=8, pair_count=6, frames=1), CELL_LIKE, CompileOptions(optimize=True)),
]

IDS = [w[0] for w in WORKLOADS]


@pytest.mark.parametrize("name,source,config,options", WORKLOADS, ids=IDS)
class TestDeterminism:
    def test_recompile_is_byte_identical(self, name, source, config, options):
        first = compile_program(source, config, options)
        second = compile_program(source, config, options)
        assert program_to_json(first) == program_to_json(second)

    def test_roundtrip_is_byte_identical(self, name, source, config, options):
        program = compile_program(source, config, options)
        text = program_to_json(program)
        assert program_to_json(program_from_json(text)) == text

    def test_roundtrip_preserves_structure(self, name, source, config, options):
        program = compile_program(source, config, options)
        clone = program_from_dict(program_to_dict(program))
        assert sorted(clone.functions) == sorted(program.functions)
        for fname, fn in program.functions.items():
            other = clone.functions[fname]
            # Dataclass equality covers every instruction field,
            # including recomputed derived ones via their inputs.
            assert other.code == fn.code
            assert other.labels == fn.labels
            assert other.num_regs == fn.num_regs
            assert other.frame_size == fn.frame_size
        assert clone.init_image == program.init_image
        assert clone.function_ids == program.function_ids
        assert clone.vtables == program.vtables
        assert clone.data_end == program.data_end

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_deserialized_program_runs_identically(
        self, name, source, config, options, engine
    ):
        program = compile_program(source, config, options)
        clone = program_from_dict(program_to_dict(program))
        run_options = RunOptions(engine=engine)
        fresh = run_program(program, Machine(config), run_options)
        loaded = run_program(clone, Machine(config), run_options)
        assert loaded.output == fresh.output
        assert loaded.cycles == fresh.cycles
        assert loaded.host_cycles == fresh.host_cycles
        assert loaded.perf() == fresh.perf()


class TestJsonSafety:
    def test_artifact_survives_json_dump_load(self):
        program = compile_program(figure2_source(), CELL_LIKE)
        data = json.loads(json.dumps(program_to_dict(program)))
        clone = program_from_dict(data)
        assert program_to_json(clone) == program_to_json(program)

    def test_no_pickle_like_payloads(self):
        data = program_to_dict(compile_program(figure2_source(), CELL_LIKE))

        def only_json_scalars(value):
            if isinstance(value, dict):
                return all(
                    isinstance(k, str) and only_json_scalars(v)
                    for k, v in value.items()
                )
            if isinstance(value, list):
                return all(only_json_scalars(v) for v in value)
            return value is None or isinstance(value, (str, int, float, bool))

        assert only_json_scalars(data)


class TestInstructions:
    def test_space_enums_roundtrip(self):
        load = Load(dst=1, addr=2, size=4, space=AccSpace.OUTER, signed=False)
        assert instr_from_record(instr_to_record(load)) == load
        copy = Copy(
            dst_addr=1,
            src_addr=2,
            size=64,
            dst_space=AccSpace.LOCAL,
            src_space=AccSpace.MAIN,
        )
        assert instr_from_record(instr_to_record(copy)) == copy

    def test_derived_fields_recomputed(self):
        binop = BinOp(op="==", dst=0, a=1, b=2)
        clone = instr_from_record(instr_to_record(binop))
        assert clone.is_compare
        load = Load(dst=0, addr=1, size=2, signed=False, is_float=False)
        clone = instr_from_record(instr_to_record(load))
        assert clone.scalar_key == (2, False, False)

    def test_record_is_positional_in_field_order(self):
        bare = BinOp(op="+", dst=0, a=1, b=2, signed=False)
        assert instr_to_record(bare) == ["BinOp", "", "+", 0, 1, 2, False, False]
        commented = BinOp(op="+", dst=0, a=1, b=2, comment="sum")
        clone = instr_from_record(instr_to_record(commented))
        assert clone.comment == "sum"

    def test_unknown_instruction_kind_rejected(self):
        with pytest.raises(ArtifactError, match="unknown instruction"):
            instr_from_record(["Quantum", "", 0])

    @pytest.mark.parametrize(
        "record",
        [
            ["BinOp"],  # no fields: never filled in from defaults
            ["BinOp", "", "+", 0, 1, 2, False],  # one field short
            ["BinOp", "", "+", 0, 1, 2, False, True, 0],  # one too many
            ["BinOp", "", "+", "0", 1, 2, False, True],  # retyped register
            ["BinOp", "", "+", 0, 1, 2, 0, True],  # int for a bool
            ["Const", "", 0, "1"],  # a string constant
            ["Load", "", 0, 1, 4, "remote", True, False],  # unknown space
            ["Call", "", None, "f", [0, "1"]],  # a non-register argument
            {"k": "BinOp"},  # the version-1 shape
            [], 7, None, [["BinOp"]],
        ],
    )
    def test_malformed_record_rejected(self, record):
        with pytest.raises(ArtifactError):
            instr_from_record(record)


class TestVersioning:
    def test_header_names_version_and_schema(self):
        data = program_to_dict(compile_program(figure2_source(), CELL_LIKE))
        assert (data["version"], data["schema"]) == (ARTIFACT_VERSION, SCHEMA_DIGEST)

    def test_schema_mismatch_rejected(self):
        # A build whose instruction fields are laid out differently.
        data = program_to_dict(compile_program(figure2_source(), CELL_LIKE))
        data["schema"] = "0" * 64
        with pytest.raises(ArtifactError, match="schema"):
            program_from_dict(data)

    def test_version_mismatch_rejected(self):
        data = program_to_dict(compile_program(figure2_source(), CELL_LIKE))
        data["version"] = 999
        with pytest.raises(ArtifactError, match="version"):
            program_from_dict(data)

    def test_format_tag_required(self):
        data = program_to_dict(compile_program(figure2_source(), CELL_LIKE))
        data["format"] = "tarball"
        with pytest.raises(ArtifactError, match="not a"):
            program_from_dict(data)


#: A value of another JSON type, per type: what "retype" substitutes.
_RETYPED = {int: "0", float: "0", bool: 0, str: 0, type(None): 0, list: {}, dict: []}


def mutations(node):
    """Mutate ``node`` in place, one way at a time, for every key and
    list element below it — drop, duplicate, retype, truncate — and yield
    while each mutation stands; each is undone before the next."""
    slots = list(node) if isinstance(node, dict) else range(len(node))
    for slot in slots:
        value = node[slot]
        if isinstance(node, dict):
            del node[slot]
            yield
            node[slot] = value
            node[f"{slot}~"] = value
            yield
            del node[f"{slot}~"]
        else:
            del node[slot]
            yield
            node.insert(slot, value)
            node.insert(slot, value)
            yield
            del node[slot]
        node[slot] = _RETYPED[type(value)]
        yield
        node[slot] = value
        if isinstance(value, (list, str)) and value:
            node[slot] = value[:-1]
            yield
            node[slot] = value
        if isinstance(value, (dict, list)):
            yield from mutations(value)


class TestTrustBoundary:
    """Every malformed artifact is an :class:`ArtifactError`: never
    another exception, never a program filled in from defaults."""

    def test_structure_aware_mutation(self):
        data = program_to_dict(compile_program(move_loop_source(), CELL_LIKE))
        pristine = copy.deepcopy(data)
        rejected = loaded = 0
        for _ in mutations(data):
            try:
                program_from_dict(data)
            except ArtifactError:
                rejected += 1
            else:
                loaded += 1
        assert data == pristine  # every mutation was undone
        # Renamed comments, duplicated instructions and extra keys still
        # load; everything else in a record or header is rejected.
        assert rejected > 4 * loaded > 0

    @pytest.mark.parametrize(
        "key", sorted(program_to_dict(compile_program(figure2_source(), CELL_LIKE)))
    )
    def test_every_top_level_key_is_required(self, key):
        data = program_to_dict(compile_program(figure2_source(), CELL_LIKE))
        del data[key]
        with pytest.raises(ArtifactError):
            program_from_dict(data)

    @pytest.mark.parametrize(
        "text", ["", "[]", "7", '{"format": "repro-ir-artifact"', "{}"]
    )
    def test_not_an_artifact(self, text):
        with pytest.raises(ArtifactError):
            program_from_json(text)

    def test_label_outside_its_function_rejected(self):
        data = program_to_dict(compile_program(figure2_source(), CELL_LIKE))
        function = next(f for f in data["functions"].values() if f["labels"])
        label = next(iter(function["labels"]))
        function["labels"][label] = len(function["code"]) + 1
        with pytest.raises(ArtifactError, match="label"):
            program_from_dict(data)

    @pytest.mark.parametrize(
        "kind, field, renamed, what",
        [
            ("BinOp", "op", "**", "operator"),
            ("UnOp", "op", "bitrev", "operator"),
            ("Call", "callee", "GameWorld::nowhere", "callee"),
        ],
        ids=["binop-op", "unop-op", "call-callee"],
    )
    def test_unknown_operator_or_callee_rejected(self, kind, field, renamed, what):
        # Neither engine could run it, and codegen translates every
        # function of a program that loads.
        data = program_to_dict(compile_program(figure2_source(), CELL_LIKE))
        code = next(
            function["code"] for function in data["functions"].values()
            if any(record[0] == kind for record in function["code"])
        )
        at = next(i for i, record in enumerate(code) if record[0] == kind)
        instr = instr_from_record(code[at])
        setattr(instr, field, renamed)
        code[at] = instr_to_record(instr)
        with pytest.raises(ArtifactError, match=f"unknown {what}: {kind}") as error:
            program_from_dict(data)
        assert repr(renamed) in str(error.value)
