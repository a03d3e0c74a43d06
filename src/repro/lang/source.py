"""Source buffers, position tracking, and stable source fingerprints."""

from __future__ import annotations

import hashlib
import re

from repro.errors import SourceLocation, SourceSpan


def source_fingerprint(text: str) -> str:
    """Stable content hash of one translation unit's sema input.

    This is the ``source`` component of the compile-cache key
    (:func:`repro.compiler.cache.compile_cache_key`).  Line endings are
    normalised so that a CRLF checkout and an LF checkout of the same
    program share one cache entry; nothing else is canonicalised —
    whitespace and comments *can* change diagnostics, and a fingerprint
    that is too clever is worse than a cache miss.
    """
    normalized = text.replace("\r\n", "\n").replace("\r", "\n")
    return hashlib.sha256(normalized.encode("utf-8")).hexdigest()


class SourceFile:
    """A named source buffer with offset -> line/column translation."""

    def __init__(self, text: str, filename: str = "<input>"):
        self.text = text
        self.filename = filename
        self._line_starts = [0]
        self._line_starts.extend(m.end() for m in re.finditer("\n", text))

    def location(self, offset: int) -> SourceLocation:
        """Translate a character offset into a 1-based line/column."""
        offset = max(0, min(offset, len(self.text)))
        lo, hi = 0, len(self._line_starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._line_starts[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        line = lo + 1
        column = offset - self._line_starts[lo] + 1
        return SourceLocation(self.filename, line, column)

    def span(self, start_offset: int, end_offset: int) -> SourceSpan:
        """Build a span from two character offsets."""
        return SourceSpan(self.location(start_offset), self.location(end_offset))
