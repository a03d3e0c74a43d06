"""Environment hygiene: what must be true before ``repro`` is imported.

``repro.vm`` reads ``REPRO_VM_ENGINE`` at import time and
``compile_program`` consults ``REPRO_COMPILE_CACHE`` on every call, so a
stray variable would silently change what the benchmark measures (a
process-wide compile cache makes ``edit_cold`` secretly warm).
:func:`prepare_environment` therefore runs first, before any module that
imports ``repro`` is loaded.
"""

from __future__ import annotations

import os
import platform
import sys
import tempfile

#: Variables that change engine, cache or target defaults behind the
#: benchmark's back.
SCRUBBED_VARIABLES = ("REPRO_VM_ENGINE", "REPRO_COMPILE_CACHE", "REPRO_TARGET")

#: The checkout root (the directory holding ``BENCHMARK.json``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Everything the benchmark writes lands here (ignored by git).
OUT_DIR = os.path.join(ROOT, "perfbench", "out")


def prepare_environment() -> None:
    """Scrub the ``REPRO_*`` switches and make ``src/`` importable.

    ``PYTHONPATH`` is set as well as ``sys.path`` because the
    per-workload subprocesses and spawned farm workers import ``repro``
    from a fresh interpreter.
    """
    for name in SCRUBBED_VARIABLES:
        os.environ.pop(name, None)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"perfbench: no program to measure: {src}/repro is missing")
    if src not in sys.path:
        sys.path.insert(0, src)
    inherited = os.environ.get("PYTHONPATH", "")
    if src not in inherited.split(os.pathsep):
        os.environ["PYTHONPATH"] = (
            src + os.pathsep + inherited if inherited else src
        )


def fresh_dir(prefix: str) -> str:
    """A new, empty directory under :data:`OUT_DIR`."""
    os.makedirs(OUT_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix + "-", dir=OUT_DIR)


def environment_record(seed: int) -> dict:
    """Host facts recorded with every result set."""
    from repro.vm import DEFAULT_ENGINE

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "default_engine": DEFAULT_ENGINE,
        "seed": seed,
    }
