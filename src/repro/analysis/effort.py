"""Source-effort metrics.

The paper quantifies engineering effort in source terms: offloading a
AAA game's AI cost "~200 lines of additional code"; restructuring the
component system took "1 day".  These helpers measure the analogous
quantities on OffloadMini sources so EXPERIMENTS.md can report
paper-vs-measured effort numbers.
"""

from __future__ import annotations

from dataclasses import dataclass


def count_loc(source: str) -> int:
    """Non-blank, non-comment-only lines of an OffloadMini source."""
    count = 0
    in_block_comment = False
    for raw_line in source.splitlines():
        line = raw_line.strip()
        if in_block_comment:
            if "*/" in line:
                in_block_comment = False
                line = line.split("*/", 1)[1].strip()
            else:
                continue
        if line.startswith("/*"):
            if "*/" not in line:
                in_block_comment = True
                continue
            line = line.split("*/", 1)[1].strip()
        if "//" in line:
            line = line.split("//", 1)[0].strip()
        if line:
            count += 1
    return count


@dataclass(frozen=True)
class SourceDelta:
    """Line-level difference between a baseline and a modified source."""

    baseline_loc: int
    modified_loc: int
    added_lines: int
    removed_lines: int


def source_delta(baseline: str, modified: str) -> SourceDelta:
    """Count lines added/removed between two sources (multiset diff).

    This mirrors how the paper counts "additional code": lines present
    in the offloaded version but not the original.
    """

    def _lines(source: str) -> list[str]:
        result = []
        for raw_line in source.splitlines():
            line = raw_line.strip()
            if line and not line.startswith("//"):
                result.append(line)
        return result

    from collections import Counter

    base_counts = Counter(_lines(baseline))
    mod_counts = Counter(_lines(modified))
    added = sum((mod_counts - base_counts).values())
    removed = sum((base_counts - mod_counts).values())
    return SourceDelta(
        baseline_loc=count_loc(baseline),
        modified_loc=count_loc(modified),
        added_lines=added,
        removed_lines=removed,
    )
