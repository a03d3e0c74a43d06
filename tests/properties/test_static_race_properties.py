"""Property test relating the static and dynamic DMA race checkers.

Hypothesis generates small straight-line DMA programs (constant
addresses, sizes and tags — the fragment where both checkers are exact)
and asserts that the static verdict agrees with the dynamic race
checker, which observes the same programs actually executing on the
Cell-like machine.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.analysis import dmacheck
from repro.compiler.driver import compile_program
from repro.machine.config import CELL_LIKE
from repro.vm.interpreter import RunOptions
from tests.conftest import run_source

# The generated offload owns `int a[64]` (256 local bytes) and the
# program owns `int g_data[64]` (256 outer bytes).  Slots and offsets
# keep every transfer inside both buffers at the largest size.
TAGS = (0, 1, 2)

transfer_ops = st.tuples(
    st.just("xfer"),
    st.sampled_from(("get", "put")),
    st.integers(0, 3),            # local slot, x16 bytes
    st.integers(0, 5),            # outer offset, x8 bytes
    st.sampled_from((8, 16, 32)),  # transfer size in bytes
    st.sampled_from(TAGS),
)
wait_ops = st.tuples(st.just("wait"), st.sampled_from(TAGS))
programs = st.lists(st.one_of(transfer_ops, wait_ops), max_size=8)


def render_program(ops) -> str:
    lines = []
    for op in ops:
        if op[0] == "xfer":
            _, kind, slot, outer, size, tag = op
            lines.append(
                f"dma_{kind}(&a[{slot * 4}], &g_data[{outer * 2}], "
                f"{size}, {tag});"
            )
        else:
            lines.append(f"dma_wait({op[1]});")
    # Drain every tag so nothing is in flight when the block returns
    # (keeps all generated programs leak-free and executable).
    lines.extend(f"dma_wait({tag});" for tag in TAGS)
    body = "\n                ".join(lines)
    return f"""
    int g_data[64];
    void main() {{
        __offload {{
            int a[64];
            {body}
        }};
    }}
    """


def static_races(program):
    return [
        f for f in dmacheck.check_program(program) if f.code == "E-dma-race"
    ]


@settings(max_examples=40, deadline=None)
@given(programs)
def test_static_verdict_matches_dynamic_checker(ops):
    source = render_program(ops)
    program = compile_program(source, CELL_LIKE)
    statically_racy = bool(static_races(program))
    result = run_source(source, run_options=RunOptions(racecheck="record"))
    dynamically_racy = bool(result.races)
    assert statically_racy == dynamically_racy, (
        f"static={statically_racy} dynamic={dynamically_racy}\n{source}"
    )
