"""Tests for the static DMA bounds/alignment checker
(:mod:`repro.analysis.bounds`).

The acceptance property: a loop-computed out-of-bounds DMA that every
PR 4 checker provably misses is caught as ``E-dma-oob``, with zero
false positives on every shipped example under every registry target.
"""

import pathlib

from repro.analysis import bounds, cost, dmacheck
from repro.analysis.runner import run_analyses
from repro.compiler.driver import compile_program
from repro.machine.config import CELL_LIKE, resolve_target, target_names
from repro.machine.machine import Machine
from repro.tools.check import _game_corpus
from repro.vm.interpreter import run_program

# int g_data[16] is 64 bytes; twenty 16-byte gets walk bytes [0, 92) —
# the last seven iterations read past the end of the global into its
# neighbours.  The dynamic DMA engine only validates whole-memory
# bounds, so this runs "successfully" while corrupting reads.
LOOP_OOB = """
int g_data[16];
int g_sink[32];
void main() {
    __offload {
        int a[16];
        for (int i = 0; i < 20; i = i + 1) {
            dma_get(&a[0], &g_data[i], 16, 3);
            dma_wait(3);
        }
    };
}
"""


class TestLoopComputedOOB:
    def test_bounds_reports_e_dma_oob(self):
        program = compile_program(LOOP_OOB, CELL_LIKE)
        findings = bounds.check_program(program, CELL_LIKE)
        oob = [f for f in findings if f.code == "E-dma-oob"]
        assert len(oob) == 1
        assert "g_data" in oob[0].message
        assert "[0, 92)" in oob[0].message
        assert "64 bytes" in oob[0].message

    def test_pr4_checkers_provably_miss_it(self):
        """The same program is clean under every earlier checker: the
        discipline checker sees a well-waited transfer with no overlap,
        and the dynamic run completes without a trap (whole-memory
        bounds only)."""
        program = compile_program(LOOP_OOB, CELL_LIKE)
        assert dmacheck.check_program(program) == []
        result = run_program(program, Machine(CELL_LIKE))
        assert not result.races
        assert not result.diagnostics

    def test_pipeline_reports_it(self):
        """`run_analyses` (what `repro.tools.check` drives) surfaces the
        new error through the unified findings stream."""
        program = compile_program(LOOP_OOB, CELL_LIKE)
        result = run_analyses(program, CELL_LIKE)
        assert any(f.code == "E-dma-oob" for f in result.findings)

    def test_loop_related_location(self):
        """The finding points back at the loop back edge that makes the
        address loop-carried."""
        program = compile_program(LOOP_OOB, CELL_LIKE)
        findings = bounds.check_program(program, CELL_LIKE)
        (oob,) = [f for f in findings if f.code == "E-dma-oob"]
        assert oob.related
        assert any("back edge" in rel.message for rel in oob.related)


class TestRingIndexGoesNegative:
    """``ring_index_bad.om``: ``(i - 3) % 8`` is -3, -2, -1 on the
    first three iterations (``%`` truncates toward zero), so the
    transfer starts 12 bytes before ``g_ring``.  While the interval
    domain read ``x % n`` as ``[0, n-1]`` for any ``x`` this was
    "proved" in range; it runs without a trap either way."""

    SOURCE = (
        pathlib.Path(__file__).with_name("ring_index_bad.om").read_text()
    )

    def test_the_negative_index_is_flagged(self):
        program = compile_program(self.SOURCE, CELL_LIKE)
        (oob,) = [
            f for f in bounds.check_program(program, CELL_LIKE)
            if f.code == "E-dma-oob"
        ]
        assert "byte -12 of global 'g_ring'" in oob.message
        assert not run_program(program, Machine(CELL_LIKE)).diagnostics

    def test_the_non_negative_spelling_is_clean(self):
        fixed = self.SOURCE.replace("(i - 3) % 8", "(i + 5) % 8")
        program = compile_program(fixed, CELL_LIKE)
        assert not [
            f for f in bounds.check_program(program, CELL_LIKE)
            if f.code == "E-dma-oob"
        ]


class TestInterproceduralOOB:
    # The accessor's staging transfer lives in `stage`, not in the
    # offload entry: the OOB proof needs the call-site argument joins
    # (i in [0, 19]) to flow into the callee's summary.
    SOURCE = """
    int g_data[16];
    void stage(int i) {
        Array<int, 8> buf(&g_data[i]);
        buf[0] = buf[0] + 1;
    }
    void main() {
        __offload {
            for (int i = 0; i < 20; i = i + 1) {
                stage(i);
            }
        };
    }
    """

    def test_callee_transfer_is_flagged_with_call_chain(self):
        program = compile_program(self.SOURCE, CELL_LIKE)
        findings = bounds.check_program(program, CELL_LIKE)
        oob = [f for f in findings if f.code == "E-dma-oob"]
        assert oob, "summary-driven OOB in the callee should be caught"
        flagged = oob[0]
        assert "stage" in flagged.function
        assert any(
            rel.message.startswith("called from") for rel in flagged.related
        )


class TestAlignment:
    def test_provably_misaligned_outer_address_warns(self):
        # The layout engine places globals at word (4-byte) grain, so a
        # +2 byte offset into a char array is misaligned on *every*
        # attainable address, not just some.
        source = """
        char g_raw[64];
        void main() {
            __offload {
                int a[8];
                dma_get(&a[0], &g_raw[2], 16, 1);
                dma_wait(1);
            };
        }
        """
        program = compile_program(source, CELL_LIKE)
        findings = bounds.check_program(program, CELL_LIKE)
        assert [f.code for f in findings] == ["W-dma-unaligned"]
        assert "outer address" in findings[0].message

    def test_word_aligned_transfers_stay_quiet(self):
        source = """
        char g_raw[64];
        void main() {
            __offload {
                int a[8];
                dma_get(&a[0], &g_raw[4], 16, 1);
                dma_wait(1);
            };
        }
        """
        program = compile_program(source, CELL_LIKE)
        assert bounds.check_program(program, CELL_LIKE) == []


class TestTinyTransfers:
    def test_sub_line_loop_dma_warns(self):
        source = """
        int g_data[16];
        void main() {
            __offload {
                int a[1];
                for (int i = 0; i < 16; i = i + 1) {
                    dma_get(&a[0], &g_data[i], 4, 1);
                    dma_wait(1);
                }
            };
        }
        """
        program = compile_program(source, CELL_LIKE)
        findings = bounds.check_program(program, CELL_LIKE)
        assert [f.code for f in findings] == ["W-dma-tiny-transfer"]
        assert any("back edge" in rel.message for rel in findings[0].related)

    def test_straight_line_small_dma_is_fine(self):
        # Outside a loop a small transfer is a one-off, not the §5
        # anti-pattern.
        source = """
        int g_data[16];
        void main() {
            __offload {
                int a[1];
                dma_get(&a[0], &g_data[0], 4, 1);
                dma_wait(1);
            };
        }
        """
        program = compile_program(source, CELL_LIKE)
        assert bounds.check_program(program, CELL_LIKE) == []


class TestZeroFalsePositives:
    def test_shipped_corpus_is_clean_on_every_target(self):
        """Acceptance: no new-analysis findings on any shipped example
        under any registry target."""
        for tname in target_names():
            config = resolve_target(tname)
            for filename, source in _game_corpus():
                program = compile_program(source, config)
                hits = bounds.check_program(program, config)
                hits += cost.check_program(program, config)
                assert hits == [], (
                    f"false positives on {filename} ({tname}): "
                    f"{[f.code for f in hits]}"
                )
