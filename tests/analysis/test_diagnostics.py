"""Tests for the unified diagnostics layer: codes, renderers, baselines."""

import json

import pytest

from repro.analysis.diagnostics import (
    CODES,
    SEV_ERROR,
    SEV_WARNING,
    Finding,
    RelatedLocation,
    apply_baseline,
    fingerprint,
    format_json,
    format_text,
    load_baseline,
    meets_threshold,
    sarif_report,
    sort_findings,
    write_baseline,
)
from tests.sarif import validate_sarif


def race(index=3, message="overlap"):
    return Finding(
        code="E-dma-race",
        message=message,
        file="demo.om",
        function="__offload_0",
        instr_index=index,
        analysis="dma-discipline",
    )


def warning():
    return Finding(
        code="W-outer-loop-traffic",
        message="hot loop",
        file="demo.om",
        function="__offload_0",
        instr_index=10,
        notes=("use a cache",),
        analysis="outer-traffic",
    )


class TestRegistry:
    def test_code_naming_convention_matches_severity(self):
        for code, info in CODES.items():
            assert info.severity in (SEV_ERROR, SEV_WARNING)
            assert code.startswith("E-" if info.severity == SEV_ERROR else "W-")
            assert info.summary

    def test_every_code_renders(self):
        for code in CODES:
            text = Finding(code=code, message="m", file="f.om").render()
            assert f"[{code}]" in text

    def test_unknown_code_rejected(self):
        with pytest.raises(KeyError):
            Finding(code="E-nope", message="m").severity

    def test_docs_reference_table_covers_every_code(self):
        # docs/static-analysis.md promises its table mirrors CODES.
        from pathlib import Path

        doc = (
            Path(__file__).resolve().parents[2]
            / "docs"
            / "static-analysis.md"
        ).read_text()
        for code, info in CODES.items():
            assert f"`{code}`" in doc, f"{code} missing from docs table"
            assert f"| `{code}` | {info.severity} |" in doc


class TestRenderAndSort:
    def test_render_anchors_function_and_instruction(self):
        text = race().render()
        assert text.startswith("demo.om:__offload_0[3]: error[E-dma-race]")

    def test_render_includes_notes(self):
        assert "  note: use a cache" in warning().render()

    def test_sort_errors_first_then_position(self):
        ordered = sort_findings([warning(), race(index=9), race(index=2)])
        assert [f.code for f in ordered] == [
            "E-dma-race", "E-dma-race", "W-outer-loop-traffic",
        ]
        assert ordered[0].instr_index == 2

    def test_meets_threshold(self):
        assert meets_threshold(race(), SEV_WARNING)
        assert meets_threshold(race(), SEV_ERROR)
        assert meets_threshold(warning(), SEV_WARNING)
        assert not meets_threshold(warning(), SEV_ERROR)

    def test_format_text_joins_renders(self):
        text = format_text([race(), warning()])
        assert text.count("demo.om") == 2


class TestFingerprints:
    def test_stable_across_instruction_moves(self):
        # Unrelated edits shift IR indices; baselines must survive that.
        assert fingerprint(race(index=3)) == fingerprint(race(index=40))

    def test_sensitive_to_code_file_function_message(self):
        base = fingerprint(race())
        assert fingerprint(race(message="other")) != base
        moved = Finding(
            code="E-dma-race", message="overlap",
            file="other.om", function="__offload_0",
        )
        assert fingerprint(moved) != base

    def test_baseline_round_trip(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        count = write_baseline(path, [race(), race(index=9), warning()])
        assert count == 2  # the two races share a fingerprint
        suppressed = load_baseline(path)
        kept, hidden = apply_baseline([race(), warning()], suppressed)
        assert kept == [] and hidden == 2
        kept, hidden = apply_baseline([race(message="new bug")], suppressed)
        assert len(kept) == 1 and hidden == 0

    def test_load_rejects_non_baseline_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ValueError, match="baseline"):
            load_baseline(str(path))


class TestJsonFormat:
    def test_payload_shape(self):
        payload = json.loads(format_json([race(), warning()]))
        assert payload["version"] == 1
        entry = payload["findings"][0]
        assert entry["code"] == "E-dma-race"
        assert entry["severity"] == "error"
        assert entry["fingerprint"] == fingerprint(race())
        assert entry["instr_index"] == 3
        assert payload["findings"][1]["notes"] == ["use a cache"]


class TestSarif:
    def test_report_validates(self):
        log = sarif_report([race(), warning()])
        assert validate_sarif(log) == []
        assert log["version"] == "2.1.0"

    def test_rules_generated_from_registry(self):
        log = sarif_report([])
        rules = log["runs"][0]["tool"]["driver"]["rules"]
        assert {r["id"] for r in rules} == set(CODES)

    def test_results_carry_level_and_fingerprint(self):
        result = sarif_report([warning()])["runs"][0]["results"][0]
        assert result["level"] == "warning"
        assert result["partialFingerprints"]["reproCheck/v1"] == fingerprint(
            warning()
        )
        assert "use a cache" in result["message"]["text"]

    def test_validator_catches_wrong_version(self):
        log = sarif_report([])
        log["version"] = "2.0.0"
        assert any("version" in p for p in validate_sarif(log))

    def test_validator_catches_missing_driver_name(self):
        log = sarif_report([])
        del log["runs"][0]["tool"]["driver"]["name"]
        assert any("driver.name" in p for p in validate_sarif(log))

    def test_validator_catches_unknown_rule_id(self):
        log = sarif_report([race()])
        log["runs"][0]["results"][0]["ruleId"] = "E-unregistered"
        assert any("ruleId" in p for p in validate_sarif(log))

    def test_validator_catches_bad_level_and_missing_message(self):
        log = sarif_report([race()])
        log["runs"][0]["results"][0]["level"] = "fatal"
        del log["runs"][0]["results"][0]["message"]
        problems = validate_sarif(log)
        assert any("level" in p for p in problems)
        assert any("message.text" in p for p in problems)

    def test_validator_requires_runs(self):
        assert validate_sarif({"version": "2.1.0"}) != []
        assert validate_sarif("nope") == ["top level must be an object"]


def interprocedural():
    return Finding(
        code="E-dma-oob",
        message="the outer side overruns global 'g_data'",
        file="demo.om",
        function="stage@0$",
        instr_index=7,
        analysis="dma-bounds",
        related=(
            RelatedLocation(
                message="called from __offload_0",
                file="demo.om",
                function="__offload_0",
                instr_index=12,
            ),
        ),
    )


class TestRelatedLocations:
    def test_render_appends_see_lines(self):
        text = interprocedural().render()
        assert "  see: demo.om:__offload_0[12]: called from __offload_0" in text

    def test_sarif_carries_related_locations(self):
        log = sarif_report([interprocedural()])
        assert validate_sarif(log) == []
        result = log["runs"][0]["results"][0]
        (rel,) = result["relatedLocations"]
        assert rel["message"]["text"] == "called from __offload_0"
        location = rel["physicalLocation"]["artifactLocation"]
        assert location["uri"] == "demo.om"

    def test_validator_catches_missing_related_message(self):
        log = sarif_report([interprocedural()])
        del log["runs"][0]["results"][0]["relatedLocations"][0]["message"]
        assert any("relatedLocations" in p for p in validate_sarif(log))

    def test_validator_catches_missing_related_uri(self):
        log = sarif_report([interprocedural()])
        rel = log["runs"][0]["results"][0]["relatedLocations"][0]
        del rel["physicalLocation"]["artifactLocation"]["uri"]
        assert any("relatedLocations" in p for p in validate_sarif(log))

    def test_json_payload_carries_related(self):
        payload = json.loads(format_json([interprocedural()]))
        (entry,) = payload["findings"]
        assert entry["related"][0]["function"] == "__offload_0"


class TestDuplicateDeduplication:
    def test_fingerprint_ignores_duplicate_mangles(self):
        """A helper compiled once per offload yields `stage@0$O`,
        `stage@1$O`, ... copies of the *same source site*; their
        fingerprints must collide so one site is one finding."""

        def at(mangle):
            return Finding(
                code="W-dma-unaligned",
                message=f"dma_get in {mangle} is misaligned",
                file="demo.om",
                function=mangle,
                analysis="dma-bounds",
            )

        assert fingerprint(at("stage@0$O")) == fingerprint(at("stage@1$O"))
        # The bare `$` form (empty cache-kind signature) too.
        assert fingerprint(at("stage@0$")) == fingerprint(at("stage@1$"))
        # But genuinely different functions keep distinct identities.
        assert fingerprint(at("stage@0$O")) != fingerprint(at("other@0$O"))

    def test_pipeline_reports_one_finding_per_source_site(self):
        """End-to-end: a helper called from two offload blocks is
        compiled twice, but the analysis pipeline reports its finding
        once."""
        from repro.analysis.runner import run_analyses
        from repro.compiler.driver import compile_program
        from repro.machine.config import CELL_LIKE

        source = """
        char g_raw[64];
        void stage() {
            Array<char, 16> buf(&g_raw[2]);
            buf[0] = buf[0];
        }
        void main() {
            __offload { stage(); };
            __offload { stage(); };
        }
        """
        program = compile_program(source, CELL_LIKE)
        result = run_analyses(program, CELL_LIKE)
        unaligned = [
            f for f in result.findings if f.code == "W-dma-unaligned"
        ]
        assert len(unaligned) == 1
