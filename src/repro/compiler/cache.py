"""Content-addressed compile cache.

``compile_program()`` on a service that fields the same programs over
and over (the ROADMAP's compile-once-run-many shape) should pay the
parse -> sema -> lower pipeline once per distinct compilation, not once
per request.  This module provides the cache ``repro.compiler.driver``
consults:

* **Key**: sha256 over canonical JSON of the *semantic inputs* — the
  source fingerprint (:func:`repro.lang.source.source_fingerprint`),
  the full target :class:`~repro.machine.config.MachineConfig`
  (including its cost model) and every
  :class:`~repro.compiler.driver.CompileOptions` field — plus the
  artifact format version.  Filenames are excluded on purpose: they
  affect diagnostics only, never generated code.
* **Value**: the serialized program artifact
  (:mod:`repro.ir.serialize`), stored on disk under
  ``<dir>/<key[:2]>/<key>.json`` with atomic writes, plus an in-memory
  text layer so a warm process never re-reads the file.  Consumers may
  park derived binary entries next to the artifacts
  (``<key>.<kind>.bin``, :meth:`CompileCache.store_bytes`); the codegen
  engine keeps its marshalled code objects there.
* **Safety**: ``load`` always *deserializes a fresh program object
  graph*; callers may mutate what they get back without poisoning later
  hits.  Corrupt or version-skewed entries are treated as misses and
  overwritten, never propagated.

Activation: pass a :class:`CompileCache` to ``compile_program``
explicitly, or set ``REPRO_COMPILE_CACHE=<directory>`` to switch every
``compile_program`` call in the process to a shared on-disk cache.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import tempfile
from typing import Optional, TYPE_CHECKING

from repro.ir.serialize import (
    ARTIFACT_VERSION,
    ArtifactError,
    artifact_digest,
    program_from_json,
    program_to_json,
    to_canonical_json,
)
from repro.lang.source import source_fingerprint
from repro.machine.config import MachineConfig, resolve_target

if TYPE_CHECKING:
    from repro.compiler.driver import CompileOptions
    from repro.ir.module import IRProgram

#: Environment variable naming the process-wide cache directory.
CACHE_ENV_VAR = "REPRO_COMPILE_CACHE"

#: File-name suffixes of program artifacts (:meth:`CompileCache.path_for`),
#: auxiliary entries (:meth:`CompileCache.aux_path`) and the temp files
#: an interrupted publish can leave behind.
ARTIFACT_SUFFIX = ".json"
AUX_SUFFIX = ".bin"
TMP_SUFFIX = ".tmp"

#: Every suffix the cache writes under its directory — the one list
#: :meth:`CompileCache.clear` (and anything sizing a cache directory)
#: goes by.
OWNED_SUFFIXES = (ARTIFACT_SUFFIX, AUX_SUFFIX, TMP_SUFFIX)


def _publish(path: str, data: bytes) -> None:
    """Atomically publish ``data`` at ``path`` (concurrent-writer safe).

    The write lands in a uniquely named temp file in the *destination
    directory* (same filesystem, so the rename cannot degrade to a
    copy) and is published with ``os.replace``.  Parallel farm workers
    racing on one key each publish a complete file and the last rename
    wins; a reader holding the old inode keeps a complete old entry.
    No reader can ever observe a torn file.
    """
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=TMP_SUFFIX)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_path, path)
    except OSError:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def compile_cache_key(
    source: str, config: "MachineConfig | str", options: "CompileOptions"
) -> str:
    """The content address of one compilation.

    ``config`` is a :class:`MachineConfig` or a registered target name
    (resolved through :func:`repro.machine.config.resolve_target`).
    Two calls share a key exactly when nothing that can influence the
    generated artifact differs: same (fingerprinted) source text, same
    target machine description down to individual cycle costs and
    scheduler parameters (every ``MachineConfig`` field is hashed, so
    distinct registry targets can never collide in one cache
    directory), same compiler options, same artifact format version.
    """
    config = resolve_target(config, source="compile_cache_key")
    # ``to_canonical_json`` of the four fields, spelled out so each
    # frozen dataclass is serialized once per object, not once per key.
    material = (
        f'{{"artifact_version":{ARTIFACT_VERSION},'
        f'"config":{_fields_json(config)},'
        f'"options":{_fields_json(options)},'
        f'"source":"{source_fingerprint(source)}"}}'
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def _fields_json(frozen: object) -> str:
    """Canonical JSON of a frozen dataclass's fields, kept on the object
    after the first call (its fields cannot change under it)."""
    text = frozen.__dict__.get("_fields_json")
    if text is None:
        text = to_canonical_json(dataclasses.asdict(frozen))  # type: ignore[call-overload]
        object.__setattr__(frozen, "_fields_json", text)
    return text


@dataclasses.dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`CompileCache` instance.

    Program artifacts and auxiliary binary entries (engine code
    objects, see :meth:`CompileCache.store_bytes`) are counted
    separately so artifact-cache assertions stay exact."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions_bad: int = 0  # corrupt/version-skewed entries discarded
    aux_hits: int = 0
    aux_misses: int = 0
    aux_stores: int = 0
    aux_bad: int = 0  # entries their consumer rejected (also misses)


class CompileCache:
    """On-disk, content-addressed store of compiled program artifacts.

    Args:
        directory: Cache root; created on first store.  Safe to share
            between processes — writes are atomic renames and readers
            only ever see complete artifacts.
    """

    def __init__(self, directory: str):
        self.directory = directory
        self.stats = CacheStats()
        #: key -> artifact JSON text; avoids disk reads on a warm
        #: process while still deserializing fresh objects per load.
        self._text: dict[str, str] = {}

    # -------------------------------------------------------------- paths

    def path_for(self, key: str) -> str:
        return os.path.join(
            self.directory, key[:2], f"{key}{ARTIFACT_SUFFIX}"
        )

    def aux_path(self, key: str, kind: str) -> str:
        """Path of the auxiliary ``kind`` entry stored alongside ``key``
        (kind ``"codegen1.cpython-311"`` ->
        ``<dir>/<key[:2]>/<key>.codegen1.cpython-311.bin``)."""
        return os.path.join(
            self.directory, key[:2], f"{key}.{kind}{AUX_SUFFIX}"
        )

    def __contains__(self, key: str) -> bool:
        return key in self._text or os.path.exists(self.path_for(key))

    # ---------------------------------------------------------------- API

    def load(self, key: str) -> Optional["IRProgram"]:
        """A fresh program for ``key``, or None on a miss."""
        text = self._text.get(key)
        if text is None:
            path = self.path_for(key)
            try:
                # Undecodable bytes become U+FFFD and fail as bad JSON.
                with open(path, encoding="utf-8", errors="replace") as handle:
                    # Without store()'s trailing newline, so
                    # artifact_digest() is the same after either.
                    text = handle.read().rstrip("\n")
            except OSError:
                self.stats.misses += 1
                return None
        try:
            program = program_from_json(text)  # validated
        except ArtifactError:
            # Corrupt, truncated or version-skewed entry: drop it and
            # recompile rather than surfacing a broken program.
            self._text.pop(key, None)
            self._discard(key)
            self.stats.evictions_bad += 1
            self.stats.misses += 1
            return None
        self._text[key] = text
        self.stats.hits += 1
        return program

    def store(self, key: str, program: "IRProgram") -> None:
        """Persist ``program`` under ``key`` (atomic, last-writer-wins)."""
        text = program_to_json(program)
        _publish(self.path_for(key), (text + "\n").encode("utf-8"))
        self._text[key] = text
        self.stats.stores += 1

    def artifact_digest(self, key: str) -> Optional[str]:
        """sha256 of the artifact text this cache object last stored or
        loaded under ``key`` (None before either): the identity of that
        program, for whoever keys derived entries on it and would
        otherwise serialize the program a second time.  It describes the
        artifact, not any program object — a caller that has since
        mutated the program it got back must not use it.
        """
        text = self._text.get(key)
        return None if text is None else artifact_digest(text)

    def load_bytes(self, key: str, kind: str) -> Optional[bytes]:
        """The auxiliary ``kind`` entry stored under ``key``, or None.

        The file is outside input and there is no validation layer
        here: the consumer validates what it is handed and reports an
        entry it cannot use with :meth:`reject_bytes`.
        """
        try:
            with open(self.aux_path(key, kind), "rb") as handle:
                data = handle.read()
        except OSError:
            self.stats.aux_misses += 1
            return None
        self.stats.aux_hits += 1
        return data

    def reject_bytes(self) -> None:
        """The entry :meth:`load_bytes` just returned was unusable:
        recount that hit as a bad entry (:attr:`CacheStats.aux_bad`) and
        a miss, like a corrupt artifact.  The caller regenerates and
        :meth:`store_bytes` overwrites it."""
        self.stats.aux_hits -= 1
        self.stats.aux_misses += 1
        self.stats.aux_bad += 1

    def store_bytes(self, key: str, data: bytes, kind: str) -> None:
        """Persist auxiliary bytes under ``key`` (atomic, like :meth:`store`)."""
        _publish(self.aux_path(key, kind), data)
        self.stats.aux_stores += 1

    def _discard(self, key: str) -> None:
        try:
            os.unlink(self.path_for(key))
        except OSError:
            pass

    def clear(self) -> None:
        """Drop every entry (in memory and on disk), auxiliary entries
        included: every file whose suffix is in :data:`OWNED_SUFFIXES`."""
        self._text.clear()
        if not os.path.isdir(self.directory):
            return
        for shard in os.listdir(self.directory):
            shard_dir = os.path.join(self.directory, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in os.listdir(shard_dir):
                # ``.tmp`` files are droppings from writers killed
                # mid-publish (e.g. a farm worker hit by a timeout);
                # they were never visible to readers but should not
                # accumulate.
                if name.endswith(OWNED_SUFFIXES):
                    try:
                        os.unlink(os.path.join(shard_dir, name))
                    except OSError:
                        pass


#: Process-wide caches keyed by directory, so every ``compile_program``
#: call under one ``REPRO_COMPILE_CACHE`` shares the in-memory layer.
_CACHES: dict[str, CompileCache] = {}


def cache_at(directory: str) -> CompileCache:
    """The shared :class:`CompileCache` for ``directory``."""
    directory = os.path.abspath(directory)
    cache = _CACHES.get(directory)
    if cache is None:
        cache = _CACHES[directory] = CompileCache(directory)
    return cache


def resolve_cache(
    explicit: Optional[CompileCache] = None,
) -> Optional[CompileCache]:
    """The cache ``compile_program`` should use, if any.

    An explicit cache wins; otherwise a non-empty ``REPRO_COMPILE_CACHE``
    selects the shared cache for that directory; otherwise caching is
    off.
    """
    if explicit is not None:
        return explicit
    directory = os.environ.get(CACHE_ENV_VAR, "").strip()
    if not directory:
        return None
    return cache_at(directory)
