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
* **Self-describing**: artifacts carry a format tag and version; version
  mismatches are rejected rather than misread (the cache treats them as
  misses).

Derived dataclass fields (``init=False`` — scalar-codec keys, masks,
compare flags) are *not* stored; they are recomputed by each
instruction's ``__post_init__`` on reconstruction.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

from repro.ir import instructions as instr_mod
from repro.ir.instructions import AccSpace, Instr
from repro.ir.module import GlobalSlot, IRFunction, IRProgram, OffloadMeta
from repro.runtime.dispatch import DomainTable, InnerEntry

#: Bump when the artifact layout changes incompatibly; old artifacts are
#: then treated as cache misses, never misread.
ARTIFACT_VERSION = 1

#: Format tag stored in every artifact header.
ARTIFACT_FORMAT = "repro-ir-artifact"

#: Instruction class registry: class name -> class.  Built from the
#: instruction module so new instructions serialize without edits here.
INSTR_CLASSES: dict[str, type] = {
    cls.__name__: cls
    for cls in vars(instr_mod).values()
    if isinstance(cls, type) and issubclass(cls, Instr)
}

#: Per-class stored fields (init-able only; derived fields recompute).
_INSTR_FIELDS: dict[str, tuple[dataclasses.Field, ...]] = {
    name: tuple(f for f in dataclasses.fields(cls) if f.init)
    for name, cls in INSTR_CLASSES.items()
}

#: Decode spec per class, precomputed once: (class, stored field names,
#: the subset holding AccSpace values, whether an ``args`` list exists).
#: ``instr_from_dict`` is the compile cache's warm-path hot loop.
_INSTR_SPEC: dict[str, tuple[type, tuple[str, ...], tuple[str, ...], bool]] = {
    name: (
        INSTR_CLASSES[name],
        tuple(f.name for f in fields),
        tuple(
            f.name
            for f in fields
            if f.name == "space" or f.name.endswith("_space")
        ),
        any(f.name == "args" for f in fields),
    )
    for name, fields in _INSTR_FIELDS.items()
}

_SPACE_BY_VALUE: dict[str, AccSpace] = {
    member.value: member for member in AccSpace
}


class ArtifactError(ValueError):
    """A malformed or incompatible artifact dict."""


# ----------------------------------------------------------- instructions


def instr_to_dict(instr: Instr) -> dict[str, Any]:
    """One instruction -> a JSON-safe dict tagged with its class name."""
    name = type(instr).__name__
    fields = _INSTR_FIELDS.get(name)
    if fields is None:
        raise ArtifactError(f"unregistered instruction class {name!r}")
    out: dict[str, Any] = {"k": name}
    for f in fields:
        value = getattr(instr, f.name)
        if f.name == "comment" and not value:
            continue
        if isinstance(value, AccSpace):
            value = value.value
        out[f.name] = value
    return out


def instr_from_dict(data: dict[str, Any]) -> Instr:
    """Inverse of :func:`instr_to_dict`."""
    spec = _INSTR_SPEC.get(data.get("k"))  # type: ignore[arg-type]
    if spec is None:
        raise ArtifactError(f"unknown instruction kind {data.get('k')!r}")
    cls, field_names, space_fields, has_args = spec
    kwargs = {name: data[name] for name in field_names if name in data}
    for name in space_fields:
        if name in kwargs:
            try:
                kwargs[name] = _SPACE_BY_VALUE[kwargs[name]]
            except KeyError:
                raise ArtifactError(
                    f"unknown access space {kwargs[name]!r}"
                ) from None
    if has_args and "args" in kwargs:
        kwargs["args"] = list(kwargs["args"])
    return cls(**kwargs)


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
        "code": [instr_to_dict(i) for i in function.code],
        "labels": dict(function.labels),
    }


def function_from_dict(data: dict[str, Any]) -> IRFunction:
    return IRFunction(
        name=data["name"],
        params=list(data["params"]),
        space=data["space"],
        source_name=data.get("source_name", ""),
        duplicate_id=data.get("duplicate_id", ""),
        num_regs=data["num_regs"],
        frame_size=data["frame_size"],
        code=[instr_from_dict(i) for i in data["code"]],
        labels={str(k): int(v) for k, v in data["labels"].items()},
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
    table.outer = [int(a) for a in data["outer"]]
    table.method_names = list(data["method_names"])
    table.inner = [
        [
            InnerEntry(
                duplicate_id=e["id"],
                target=e["target"],
                demand=bool(e.get("demand", False)),
            )
            for e in row
        ]
        for row in data["inner"]
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
        offload_id=int(data["offload_id"]),
        entry=data["entry"],
        cache_kind=data["cache_kind"],
        domain=_domain_from_dict(data["domain"]),
        annotation_count=int(data["annotation_count"]),
        capture_names=list(data["capture_names"]),
    )


# ---------------------------------------------------------------- program


def program_to_dict(program: IRProgram) -> dict[str, Any]:
    """The whole program as a JSON-safe dict (see module docstring)."""
    return {
        "format": ARTIFACT_FORMAT,
        "version": ARTIFACT_VERSION,
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
    """Reconstruct a runnable :class:`IRProgram` from an artifact dict."""
    if data.get("format") != ARTIFACT_FORMAT:
        raise ArtifactError(
            f"not a {ARTIFACT_FORMAT} artifact: format="
            f"{data.get('format')!r}"
        )
    if data.get("version") != ARTIFACT_VERSION:
        raise ArtifactError(
            f"artifact version {data.get('version')!r} is not the "
            f"supported version {ARTIFACT_VERSION}"
        )
    program = IRProgram(
        entry=data["entry"],
        data_end=int(data["data_end"]),
        target_name=data["target_name"],
    )
    program.functions = {
        name: function_from_dict(fn)
        for name, fn in data["functions"].items()
    }
    program.globals = {
        name: GlobalSlot(name, int(g["address"]), int(g["size"]))
        for name, g in data["globals"].items()
    }
    program.init_image = [
        (int(address), bytes.fromhex(blob))
        for address, blob in data["init_image"]
    ]
    program.function_ids = {
        int(fid): name for fid, name in data["function_ids"].items()
    }
    program.vtables = {
        name: int(address) for name, address in data["vtables"].items()
    }
    program.offload_meta = {
        int(oid): _meta_from_dict(meta)
        for oid, meta in data["offload_meta"].items()
    }
    return program


# ------------------------------------------------------------------- JSON


def to_canonical_json(data: dict[str, Any]) -> str:
    """Deterministic JSON: sorted keys, fixed separators, no whitespace.

    The canonical form is what gets hashed for content addressing and
    written to disk, so equal programs are equal *bytes*.
    """
    return json.dumps(
        data, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def program_to_json(program: IRProgram) -> str:
    return to_canonical_json(program_to_dict(program))


def program_from_json(text: str) -> IRProgram:
    return program_from_dict(json.loads(text))


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
    """Load an artifact written by :func:`save_program` and validate it."""
    with open(path, "r", encoding="utf-8") as handle:
        program = program_from_json(handle.read())
    program.validate()
    return program
