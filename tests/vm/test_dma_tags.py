"""Out-of-range DMA tags trap instead of silently aliasing.

The engines used to mask ``tag & 31``, so tag 33 aliased tag 1: a
``dma_wait(1)`` would observe the completion of a transfer issued with
tag 33 — exactly the wrong-transfer synchronization bug the discipline
checks exist to catch.  Both engines must now trap, identically.
"""

import pytest

from repro.compiler.driver import compile_program
from repro.errors import RuntimeTrap
from repro.machine.config import CELL_LIKE
from repro.machine.dma import NUM_TAGS
from repro.machine.machine import Machine
from repro.vm.interpreter import ENGINE_NAMES, RunOptions, run_program
from tests.conftest import printed


def dma_source(get_tag, wait_tag):
    return f"""
    int g_data[8];
    void main() {{
        for (int i = 0; i < 8; i++) {{ g_data[i] = i + 1; }}
        int result = 0;
        __offload {{
            int staging[8];
            dma_get(&staging[0], &g_data[0], 32, {get_tag});
            dma_wait({wait_tag});
            int sum = 0;
            for (int i = 0; i < 8; i++) {{ sum += staging[i]; }}
            result = sum;
        }};
        print_int(result);
    }}
    """


def trap_message_both_engines(source):
    """Run under both engines; assert both trap with the same message."""
    program = compile_program(source, CELL_LIKE)
    messages = []
    for engine in ENGINE_NAMES:
        with pytest.raises(RuntimeTrap) as excinfo:
            run_program(
                program, Machine(CELL_LIKE), RunOptions(engine=engine)
            )
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]
    return messages[0]


class TestDmaTagRange:
    def test_max_valid_tag_works(self):
        assert printed(dma_source(NUM_TAGS - 1, NUM_TAGS - 1)) == [36]

    def test_tag_33_traps_instead_of_aliasing_tag_1(self):
        message = trap_message_both_engines(dma_source(33, 1))
        assert "out-of-range DMA tag 33" in message
        assert f"valid tags are 0..{NUM_TAGS - 1}" in message

    def test_tag_32_traps(self):
        message = trap_message_both_engines(dma_source(32, 32))
        assert "out-of-range DMA tag 32" in message

    def test_negative_tag_traps(self):
        message = trap_message_both_engines(dma_source(0 - 1, 0))
        assert "out-of-range DMA tag -1" in message

    def test_wait_on_out_of_range_tag_traps(self):
        message = trap_message_both_engines(dma_source(2, 64))
        assert "dma_wait with out-of-range DMA tag 64" in message

    def test_trap_names_the_intrinsic(self):
        message = trap_message_both_engines(dma_source(40, 8))
        assert message.startswith("dma_get ")
