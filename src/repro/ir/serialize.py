"""Serializable program artifacts.

Round-trips a fully compiled :class:`repro.ir.module.IRProgram` through
a JSON-safe dict — no pickle, no code objects — so compiled programs can
be persisted, content-addressed and reloaded by the compile cache
(:mod:`repro.compiler.cache`) or shipped between processes.

Design constraints:

* **Deterministic**: the same program always produces byte-identical
  canonical JSON (:func:`to_canonical_json` sorts keys and fixes
  separators; all compiler output is already insertion-ordered
  deterministically).  This is what makes content addressing sound.
* **Complete**: functions, instructions, labels, layout products
  (globals, vtables, function ids, init image) and per-offload metadata
  (domain tables, cache kinds, captures) all round-trip, so a
  ``from_dict`` program runs cycle-for-cycle identically to the fresh
  compile on every execution engine.
* **Self-describing**: artifacts carry a format tag, a version and a
  digest of the instruction field layout; a mismatch is rejected rather
  than misread (the cache treats it as a miss).
* **Compact and strict**: an instruction is a positional record,
  ``[class name, comment, field…]``; every malformed artifact raises
  :class:`ArtifactError`, never another exception or default values.

Derived dataclass fields (``init=False`` — scalar-codec keys, masks,
compare flags) are *not* stored; they are recomputed by each
instruction's ``__post_init__`` on reconstruction.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from operator import attrgetter
from typing import Any, Callable, NamedTuple

from repro.ir import instructions as instr_mod
from repro.ir.instructions import AccSpace, Instr
from repro.ir.module import GlobalSlot, IRFunction, IRProgram, OffloadMeta
from repro.runtime.dispatch import DomainTable, InnerEntry

#: Bump when the artifact layout changes incompatibly; old artifacts are
#: then treated as cache misses, never misread.
ARTIFACT_VERSION = 2

#: Format tag stored in every artifact header.
ARTIFACT_FORMAT = "repro-ir-artifact"

#: Instruction class registry: class name -> class.  Built from the
#: instruction module so new instructions serialize without edits here.
INSTR_CLASSES: dict[str, type] = {
    cls.__name__: cls
    for cls in vars(instr_mod).values()
    if isinstance(cls, type) and issubclass(cls, Instr) and cls is not Instr
}

#: Per-class stored fields (init-able only; derived fields recompute), in
#: record order: the base class's keyword-only ``comment``, then the
#: constructor's positional parameters.
_INSTR_FIELDS: dict[str, tuple[dataclasses.Field, ...]] = {
    name: tuple(f for f in dataclasses.fields(cls) if f.init)
    for name, cls in INSTR_CLASSES.items()
}

#: The JSON types a stored field may hold, by annotation (a new
#: annotation fails here at import, not in a misread artifact).
_JSON_TYPES: dict[str, tuple[type, ...]] = {
    "int": (int,), "bool": (bool,), "str": (str,), "AccSpace": (str,),
    "object": (int, float), "Optional[int]": (int, type(None)),
    "list[int]": (list,),
}

#: sha256 of every class's field names and annotations in record order:
#: records laid out for other fields are rejected, never misread.
SCHEMA_DIGEST = hashlib.sha256(json.dumps(
    {name: [[f.name, f.type] for f in fields]
     for name, fields in _INSTR_FIELDS.items()},
    sort_keys=True,
).encode("utf-8")).hexdigest()


class _Spec(NamedTuple):
    """What the codec needs about one class, computed once."""
    cls: type
    values: Callable[[Instr], tuple]  # stored field values, record order
    signatures: frozenset[tuple[type, ...]]  # every allowed type(element)
    spaces: tuple[int, ...]  # record positions of AccSpace fields
    lists: tuple[int, ...]  # ... and of register lists


def _spec(name: str, fields: tuple[dataclasses.Field, ...]) -> _Spec:
    positions = {f.name: 1 + index for index, f in enumerate(fields)}
    return _Spec(
        INSTR_CLASSES[name],
        attrgetter(*positions),
        frozenset(
            itertools.product((str,), *(_JSON_TYPES[f.type] for f in fields))
        ),
        tuple(positions[f.name] for f in fields if f.type == "AccSpace"),
        tuple(positions[f.name] for f in fields if f.type == "list[int]"),
    )


_INSTR_SPEC: dict[str, _Spec] = {
    name: _spec(name, fields) for name, fields in _INSTR_FIELDS.items()
}

_SPACE_BY_VALUE: dict[str, AccSpace] = {
    member.value: member for member in AccSpace
}


class ArtifactError(ValueError):
    """A malformed or incompatible artifact dict."""


def _check(value: Any, what: str, *kinds: type) -> Any:
    """``value``, which must be exactly of one of the JSON ``kinds``."""
    if type(value) not in kinds:
        raise ArtifactError(f"{what} holds {value!r:.60}")
    return value


def _list(values: Any, what: str, kind: type) -> list:  # a checked copy
    if type(values) is not list or any(type(v) is not kind for v in values):
        raise ArtifactError(f"{what} holds {values!r:.60}")
    return list(values)


# ----------------------------------------------------------- instructions


def instr_to_record(instr: Instr) -> list:
    """One instruction -> ``[class name, comment, field…]``."""
    name = type(instr).__name__
    spec = _INSTR_SPEC.get(name)
    if spec is None:
        raise ArtifactError(f"unregistered instruction class {name!r}")
    record = [name, *spec.values(instr)]
    for position in spec.spaces:
        record[position] = record[position].value
    return record


def instr_from_record(record: list) -> Instr:
    """Inverse of :func:`instr_to_record`, the compile cache's warm-path
    hot loop: one set lookup checks the length and every field's type."""
    try:
        spec = _INSTR_SPEC[record[0]]
    except (KeyError, IndexError, TypeError):
        raise ArtifactError(f"unknown instruction {record!r:.60}") from None
    if tuple(map(type, record)) not in spec.signatures:
        raise ArtifactError(f"malformed instruction {record!r:.80}")
    if spec.spaces or spec.lists:
        record = list(record)  # the caller's data is left as it was
        for position in spec.spaces:
            record[position] = _SPACE_BY_VALUE.get(record[position])
            if record[position] is None:
                raise ArtifactError(f"unknown access space in {record!r:.80}")
        for position in spec.lists:
            record[position] = _list(record[position], "args", int)
    if record[1]:
        return spec.cls(*record[2:], comment=record[1])
    return spec.cls(*record[2:])  # most have no comment: no keyword call


# -------------------------------------------------------------- functions


def function_to_dict(function: IRFunction) -> dict[str, Any]:
    return {
        "name": function.name,
        "params": list(function.params),
        "space": function.space,
        "source_name": function.source_name,
        "duplicate_id": function.duplicate_id,
        "num_regs": function.num_regs,
        "frame_size": function.frame_size,
        "code": [instr_to_record(i) for i in function.code],
        "labels": dict(function.labels),
    }


def function_from_dict(data: dict[str, Any]) -> IRFunction:
    code = [instr_from_record(i) for i in _check(data["code"], "code", list)]
    labels = data["labels"]
    for label, index in labels.items():
        if type(index) is not int or not 0 <= index <= len(code):
            raise ArtifactError(f"label {label!r} at {index!r:.60}")
    return IRFunction(
        name=_check(data["name"], "name", str),
        params=_list(data["params"], "params", str),
        space=_check(data["space"], "space", str),
        source_name=_check(data["source_name"], "source_name", str),
        duplicate_id=_check(data["duplicate_id"], "duplicate_id", str),
        num_regs=_check(data["num_regs"], "num_regs", int),
        frame_size=_check(data["frame_size"], "frame_size", int),
        code=code,
        labels=dict(labels),
    )


# ----------------------------------------------------------- offload meta


def _domain_to_dict(table: DomainTable) -> dict[str, Any]:
    return {
        "outer": list(table.outer),
        "method_names": list(table.method_names),
        "inner": [
            [
                {"id": e.duplicate_id, "target": e.target, "demand": e.demand}
                for e in row
            ]
            for row in table.inner
        ],
    }


def _domain_from_dict(data: dict[str, Any]) -> DomainTable:
    table = DomainTable()
    table.outer = _list(data["outer"], "outer", int)
    table.method_names = _list(data["method_names"], "method_names", str)
    table.inner = [
        [
            InnerEntry(
                duplicate_id=_check(e["id"], "id", str),
                target=_check(e["target"], "target", str),
                demand=_check(e["demand"], "demand", bool),
            )
            for e in _list(row, "inner row", dict)
        ]
        for row in _list(data["inner"], "inner", list)
    ]
    return table


def _meta_to_dict(meta: OffloadMeta) -> dict[str, Any]:
    return {
        "offload_id": meta.offload_id,
        "entry": meta.entry,
        "cache_kind": meta.cache_kind,
        "domain": _domain_to_dict(meta.domain),
        "annotation_count": meta.annotation_count,
        "capture_names": list(meta.capture_names),
    }


def _meta_from_dict(data: dict[str, Any]) -> OffloadMeta:
    return OffloadMeta(
        offload_id=_check(data["offload_id"], "offload_id", int),
        entry=_check(data["entry"], "entry", str),
        cache_kind=_check(data["cache_kind"], "cache_kind", str, type(None)),
        domain=_domain_from_dict(data["domain"]),
        annotation_count=_check(data["annotation_count"], "count", int),
        capture_names=_list(data["capture_names"], "capture_names", str),
    )


# ---------------------------------------------------------------- program


def program_to_dict(program: IRProgram) -> dict[str, Any]:
    """The whole program as a JSON-safe dict (see module docstring)."""
    return {
        "format": ARTIFACT_FORMAT,
        "version": ARTIFACT_VERSION,
        "schema": SCHEMA_DIGEST,
        "target_name": program.target_name,
        "entry": program.entry,
        "data_end": program.data_end,
        "functions": {
            name: function_to_dict(fn)
            for name, fn in program.functions.items()
        },
        "globals": {
            name: {"address": slot.address, "size": slot.size}
            for name, slot in program.globals.items()
        },
        "init_image": [
            [address, data.hex()] for address, data in program.init_image
        ],
        "function_ids": {
            str(fid): name for fid, name in program.function_ids.items()
        },
        "vtables": dict(program.vtables),
        "offload_meta": {
            str(oid): _meta_to_dict(meta)
            for oid, meta in program.offload_meta.items()
        },
    }


def program_from_dict(data: dict[str, Any]) -> IRProgram:
    """Reconstruct a runnable, validated :class:`IRProgram` from an
    artifact dict; anything else raises :class:`ArtifactError`."""
    try:
        for key, supported in (("format", ARTIFACT_FORMAT),
                               ("version", ARTIFACT_VERSION),
                               ("schema", SCHEMA_DIGEST)):
            if data.get(key) != supported:
                raise ArtifactError(
                    f"artifact {key} {data.get(key)!r:.70} is not a "
                    f"supported {key} ({supported})"
                )
        program = IRProgram(
            entry=_check(data["entry"], "entry", str),
            data_end=_check(data["data_end"], "data_end", int),
            target_name=_check(data["target_name"], "target_name", str),
        )
        program.functions = {
            name: function_from_dict(fn)
            for name, fn in data["functions"].items()
        }
        program.globals = {
            name: GlobalSlot(name, _check(g["address"], "address", int),
                             _check(g["size"], "size", int))
            for name, g in data["globals"].items()
        }
        program.init_image = [
            (_check(address, "init_image", int), bytes.fromhex(blob))
            for address, blob in _check(data["init_image"], "image", list)
        ]
        program.function_ids = {
            int(fid): _check(name, "function_ids", str)
            for fid, name in data["function_ids"].items()
        }
        program.vtables = {
            name: _check(address, "vtables", int)
            for name, address in data["vtables"].items()
        }
        program.offload_meta = {
            int(oid): _meta_from_dict(meta)
            for oid, meta in data["offload_meta"].items()
        }
        program.validate()
        return program
    except (AttributeError, KeyError, TypeError, ValueError) as error:
        # A missing key or container of the wrong type, bad hex, validate().
        raise error if isinstance(error, ArtifactError) else ArtifactError(
            f"malformed artifact: {type(error).__name__}: {error}"
        ) from None


# ------------------------------------------------------------------- JSON


def to_canonical_json(data: dict[str, Any]) -> str:
    """Deterministic JSON: sorted keys, fixed separators, no whitespace.

    The canonical form is what gets hashed for content addressing and
    written to disk, so equal programs are equal *bytes*.
    """
    return json.dumps(
        data, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def _fields_json(frozen: object) -> str:
    """Canonical JSON of a frozen dataclass's fields, kept on the object
    after the first call (its fields cannot change under it)."""
    text = frozen.__dict__.get("_fields_json")
    if text is None:
        text = to_canonical_json(dataclasses.asdict(frozen))  # type: ignore[call-overload]
        object.__setattr__(frozen, "_fields_json", text)
    return text


def program_to_json(program: IRProgram) -> str:
    return to_canonical_json(program_to_dict(program))


def program_from_json(text: str) -> IRProgram:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise ArtifactError(f"artifact is not JSON: {error}") from None
    return program_from_dict(data)


def artifact_digest(text: str) -> str:
    """sha256 of a canonical artifact ``text`` (:func:`program_to_json`):
    the program identity consumers of the compile cache key derived
    entries on.  Whoever already holds the text (the cache does, after a
    store or a load) hashes it instead of serializing the program again.
    """
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def save_program(program: IRProgram, path: str) -> None:
    """Write ``program`` to ``path`` as a canonical-JSON artifact."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(program_to_json(program))
        handle.write("\n")


def load_program(path: str) -> IRProgram:
    """Load and validate an artifact written by :func:`save_program`."""
    with open(path, "r", encoding="utf-8") as handle:
        return program_from_json(handle.read())
