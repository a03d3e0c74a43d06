"""The single registry of software-cache kind names.

The paper's ``cache(...)`` offload annotation, the compiler's
``--cache`` default, :class:`repro.ir.module.OffloadMeta` and the
runtime cache factory all speak the same small vocabulary of cache
organisations.  This module is the one place that vocabulary is defined;
everything else (sema's annotation check, ``CompileOptions`` validation,
argparse choices, :func:`repro.runtime.softcache.make_cache`) imports it
instead of repeating string literals.

It is deliberately dependency-free so that both the front end
(:mod:`repro.lang.sema`) and the runtime can import it without cycles.
"""

from __future__ import annotations

#: Cache organisations with an implementation in
#: :mod:`repro.runtime.softcache`, in canonical order.
SOFT_CACHE_KINDS: tuple[str, ...] = ("direct", "setassoc", "victim")

#: The raw per-access DMA strategy (no software cache at all).
NO_CACHE: str = "none"

#: Every spelling accepted by annotations and command-line flags.
CACHE_KIND_CHOICES: tuple[str, ...] = (NO_CACHE, *SOFT_CACHE_KINDS)


def is_cache_kind(kind: str) -> bool:
    """True when ``kind`` names a known cache choice (including "none")."""
    return kind in CACHE_KIND_CHOICES
