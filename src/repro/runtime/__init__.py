"""The Offload runtime library.

Everything an offloaded program needs at run time on a machine with
multiple memory spaces:

* software caches over outer memory (:mod:`repro.runtime.softcache`),
* the stream accessor for multi-buffered transfers
  (:mod:`repro.runtime.accessors`),
* the outer/inner domain machinery for virtual dispatch across memory
  spaces (:mod:`repro.runtime.dispatch`).

These classes are used two ways, mirroring the paper: directly from
hand-written "intrinsics-style" host code (Figure 1), and as the lowering
targets of the Offload compiler (Sections 3-4).
"""

from repro.runtime.accessors import StreamAccessor
from repro.runtime.dispatch import DomainTable, InnerEntry
from repro.runtime.softcache import (
    DirectMappedCache,
    SetAssociativeCache,
    SoftwareCache,
    VictimCache,
    make_cache,
)

__all__ = [
    "DirectMappedCache",
    "DomainTable",
    "InnerEntry",
    "SetAssociativeCache",
    "SoftwareCache",
    "StreamAccessor",
    "VictimCache",
    "make_cache",
]
