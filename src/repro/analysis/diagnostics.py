"""Unified analysis diagnostics: stable codes, severities, renderers.

Every static analysis in :mod:`repro.analysis` reports through one
:class:`Finding` type carrying a machine-readable code from the
:data:`CODES` registry.  The registry is the single source of truth for
severity and the one-line meaning of each code — the docs table in
``docs/static-analysis.md`` and the SARIF rule metadata are both
generated from it.

Renderers: :func:`format_text` (human CLI output), :func:`format_json`
(canonical machine-readable JSON) and :func:`format_sarif` (SARIF 2.1.0,
the format CI annotation services ingest).  Baseline suppression:
:func:`fingerprint` gives each finding a stable identity (independent of
instruction indices, so unrelated edits don't churn baselines), and
:func:`load_baseline` / :func:`write_baseline` read and write the
suppression file consumed by ``repro.tools.check --baseline``.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.errors import SourceSpan

SEV_ERROR = "error"
SEV_WARNING = "warning"
SEV_NOTE = "note"

#: Rank for ``--fail-on`` comparisons (higher = more severe).
_SEVERITY_RANK = {SEV_NOTE: 0, SEV_WARNING: 1, SEV_ERROR: 2}


@dataclass(frozen=True)
class CodeInfo:
    """Registry entry for one diagnostic code."""

    severity: str
    summary: str


#: Every diagnostic code the analyses can emit, with severity and a
#: one-line meaning.  Codes are stable API: tests, baselines and CI
#: configuration key on them.
CODES: dict[str, CodeInfo] = {
    "E-dma-race": CodeInfo(
        SEV_ERROR,
        "two in-flight DMA transfers may touch overlapping memory with "
        "no dma_wait between them",
    ),
    "E-dma-leak": CodeInfo(
        SEV_ERROR,
        "an offload block can return while DMA transfers it issued are "
        "still in flight",
    ),
    "E-dma-orphan-wait": CodeInfo(
        SEV_ERROR,
        "dma_wait on a tag that no execution path ever issued a "
        "transfer with",
    ),
    "E-local-overflow": CodeInfo(
        SEV_ERROR,
        "estimated local-store footprint of an offload exceeds the "
        "target's scratch-pad capacity",
    ),
    "W-local-pressure": CodeInfo(
        SEV_WARNING,
        "estimated local-store footprint is close to scratch-pad "
        "capacity",
    ),
    "W-local-recursion": CodeInfo(
        SEV_WARNING,
        "recursive call cycle reachable from an offload block; frame "
        "depth is statically unbounded",
    ),
    "W-outer-loop-traffic": CodeInfo(
        SEV_WARNING,
        "a loop in uncached offload code performs repeated outer-memory "
        "accesses; a software cache or DMA batching would amortise them",
    ),
    "E-domain-missing": CodeInfo(
        SEV_ERROR,
        "a virtual method reachable from an offload block is missing "
        "from its domain(...) annotation",
    ),
    "W-offload-unjoined": CodeInfo(
        SEV_WARNING,
        "an offload handle is never joined, so its completion is "
        "unsynchronized with the host",
    ),
    "E-dma-oob": CodeInfo(
        SEV_ERROR,
        "a DMA transfer provably reads or writes outside its "
        "source/destination buffer extent on some loop iteration",
    ),
    "W-dma-unaligned": CodeInfo(
        SEV_WARNING,
        "a DMA transfer address is provably misaligned for the "
        "target's DMA alignment grain",
    ),
    "W-dma-tiny-transfer": CodeInfo(
        SEV_WARNING,
        "a DMA inside a loop moves provably fewer bytes per iteration "
        "than setup+latency can amortise (many-small-DMAs anti-pattern)",
    ),
    "W-cost-unbounded": CodeInfo(
        SEV_WARNING,
        "a loop in offloaded code cannot be statically bounded, so the "
        "static cycle/DMA-traffic estimate for its offload is open-ended",
    ),
}


@dataclass(frozen=True)
class RelatedLocation:
    """A secondary location attached to a finding — the loop back edge
    an address varies around, or a call site on the interprocedural
    path to the reported instruction.  Rendered as SARIF
    ``relatedLocations``."""

    message: str
    file: str = "<input>"
    function: str = ""
    instr_index: Optional[int] = None


@dataclass(frozen=True)
class Finding:
    """One analysis result, anchored to a function and instruction.

    ``file`` is the source path the program came from; ``function`` the
    mangled IR function name (or offload entry); ``instr_index`` the IR
    instruction the finding anchors to, when one exists.  ``span`` is a
    source range when the producing analysis works at the AST level.
    """

    code: str
    message: str
    file: str = "<input>"
    function: str = ""
    instr_index: Optional[int] = None
    span: Optional[SourceSpan] = None
    notes: tuple[str, ...] = ()
    analysis: str = ""
    related: tuple[RelatedLocation, ...] = ()

    @property
    def severity(self) -> str:
        return CODES[self.code].severity

    def render(self) -> str:
        where = self.file
        if self.span is not None:
            where = str(self.span.start)
        elif self.function:
            where = f"{self.file}:{self.function}"
            if self.instr_index is not None:
                where += f"[{self.instr_index}]"
        text = f"{where}: {self.severity}[{self.code}]: {self.message}"
        for note in self.notes:
            text += f"\n  note: {note}"
        for rel in self.related:
            rwhere = f"{rel.file}:{rel.function}" if rel.function else rel.file
            if rel.instr_index is not None:
                rwhere += f"[{rel.instr_index}]"
            text += f"\n  see: {rwhere}: {rel.message}"
        return text


def severity_rank(severity: str) -> int:
    return _SEVERITY_RANK[severity]


def meets_threshold(finding: Finding, fail_on: str) -> bool:
    """True when a finding is at or above the ``--fail-on`` severity."""
    return severity_rank(finding.severity) >= severity_rank(fail_on)


def sort_findings(findings: Iterable[Finding]) -> list[Finding]:
    """Deterministic order: severity (errors first), file, function,
    instruction, code."""
    return sorted(
        findings,
        key=lambda f: (
            -severity_rank(f.severity),
            f.file,
            f.function,
            f.instr_index if f.instr_index is not None else -1,
            f.code,
            f.message,
        ),
    )


# ------------------------------------------------------------ fingerprints


#: Compiled-duplicate mangling suffix: ``name@<offload>$<signature>``.
#: One *source* function fans out into one duplicate per (offload,
#: signature) pair; fingerprints strip the suffix so a diagnostic at a
#: shared source site has one identity, not one per duplicate.
_DUPLICATE_SUFFIX = re.compile(r"@\d+\$[A-Za-z0-9_]*")


def _normalize_duplicates(text: str) -> str:
    return _DUPLICATE_SUFFIX.sub("", text)


def fingerprint(finding: Finding) -> str:
    """A stable identity for baseline suppression and deduplication.

    Deliberately excludes instruction indices and note text so that
    unrelated edits (which shift IR indices) don't invalidate baselines;
    includes code, file, function and message.  Compiled-duplicate
    mangling (``name@<offload>$<sig>``) is stripped from the function
    name *and* the message, so per-duplicate re-reports of one source
    site collapse to one fingerprint (the runner dedupes on it).
    """
    function = _normalize_duplicates(finding.function)
    message = _normalize_duplicates(finding.message)
    payload = f"{finding.code}|{finding.file}|{function}|{message}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def dedupe_findings(findings: Iterable[Finding]) -> list[Finding]:
    """Sorted findings, one per fingerprint.  Per-duplicate specialized
    functions re-derive the same source site; fingerprints normalize the
    duplicate mangling away, so one source-level problem keeps exactly
    one (deterministically first in sorted order) finding."""
    kept: dict[str, Finding] = {}
    for finding in sort_findings(findings):
        kept.setdefault(fingerprint(finding), finding)
    return list(kept.values())


def load_baseline(path: str) -> set[str]:
    """Read a baseline file; returns the suppressed fingerprints."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or "suppress" not in data:
        raise ValueError(f"{path}: not a repro-check baseline file")
    return set(data["suppress"])


def write_baseline(path: str, findings: Iterable[Finding]) -> int:
    """Write the baseline suppressing every given finding; returns the
    number of fingerprints written."""
    prints = sorted({fingerprint(f) for f in findings})
    payload = {"version": 1, "tool": "repro-check", "suppress": prints}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return len(prints)


def apply_baseline(
    findings: Iterable[Finding], suppressed: set[str]
) -> tuple[list[Finding], int]:
    """Split findings into (kept, suppressed_count)."""
    kept: list[Finding] = []
    hidden = 0
    for finding in findings:
        if fingerprint(finding) in suppressed:
            hidden += 1
        else:
            kept.append(finding)
    return kept, hidden


# --------------------------------------------------------------- renderers


def format_text(findings: list[Finding]) -> str:
    """One rendered finding per line group (the CLI default)."""
    return "\n".join(f.render() for f in findings)


def findings_to_dicts(findings: list[Finding]) -> list[dict]:
    out = []
    for f in findings:
        entry = {
            "code": f.code,
            "severity": f.severity,
            "message": f.message,
            "file": f.file,
            "function": f.function,
            "fingerprint": fingerprint(f),
        }
        if f.instr_index is not None:
            entry["instr_index"] = f.instr_index
        if f.span is not None:
            entry["line"] = f.span.start.line
            entry["column"] = f.span.start.column
        if f.notes:
            entry["notes"] = list(f.notes)
        if f.analysis:
            entry["analysis"] = f.analysis
        if f.related:
            entry["related"] = [
                {
                    "message": rel.message,
                    "file": rel.file,
                    "function": rel.function,
                    **(
                        {"instr_index": rel.instr_index}
                        if rel.instr_index is not None
                        else {}
                    ),
                }
                for rel in f.related
            ]
        out.append(entry)
    return out


def format_json(findings: list[Finding]) -> str:
    """Canonical JSON: ``{"version": 1, "findings": [...]}``."""
    payload = {"version": 1, "findings": findings_to_dicts(findings)}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


_SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
_SARIF_LEVEL = {SEV_ERROR: "error", SEV_WARNING: "warning", SEV_NOTE: "note"}


def sarif_report(findings: list[Finding]) -> dict:
    """A SARIF 2.1.0 log object (one run, rules from :data:`CODES`)."""
    rules = [
        {
            "id": code,
            "shortDescription": {"text": info.summary},
            "defaultConfiguration": {"level": _SARIF_LEVEL[info.severity]},
        }
        for code, info in sorted(CODES.items())
    ]
    results = []
    for f in findings:
        location: dict = {
            "physicalLocation": {
                "artifactLocation": {"uri": f.file},
            }
        }
        if f.span is not None:
            location["physicalLocation"]["region"] = {
                "startLine": f.span.start.line,
                "startColumn": f.span.start.column,
            }
        if f.function:
            location["logicalLocations"] = [
                {"name": f.function, "kind": "function"}
            ]
        message = f.message
        if f.notes:
            message += "".join(f"\n{note}" for note in f.notes)
        result = {
            "ruleId": f.code,
            "level": _SARIF_LEVEL[f.severity],
            "message": {"text": message},
            "locations": [location],
            "partialFingerprints": {"reproCheck/v1": fingerprint(f)},
        }
        if f.related:
            related = []
            for rel in f.related:
                entry: dict = {
                    "message": {"text": rel.message},
                    "physicalLocation": {
                        "artifactLocation": {"uri": rel.file},
                    },
                }
                if rel.function:
                    entry["logicalLocations"] = [
                        {"name": rel.function, "kind": "function"}
                    ]
                related.append(entry)
            result["relatedLocations"] = related
        results.append(result)
    return {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-check",
                        "informationUri": (
                            "https://example.invalid/repro/docs/"
                            "static-analysis"
                        ),
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }


def format_sarif(findings: list[Finding]) -> str:
    return (
        json.dumps(sarif_report(findings), sort_keys=True, indent=2) + "\n"
    )
