"""Unit tests for the Figure 3 domain dispatch machinery."""

import pytest

from repro.errors import MissingDuplicateError
from repro.machine.config import CELL_LIKE
from repro.machine.machine import Machine
from repro.runtime.dispatch import DomainTable, InnerEntry


@pytest.fixture
def core():
    return Machine(CELL_LIKE).accelerator(0)


def table_with(entries):
    table = DomainTable()
    for address, name, inner in entries:
        table.add(address, name, [InnerEntry(*pair) for pair in inner])
    return table


class TestLookup:
    def test_finds_matching_duplicate(self, core):
        table = table_with(
            [(0x100, "A::f", [("O", "A::f$O")]), (0x104, "B::f", [("O", "B::f$O")])]
        )
        target, _ = table.lookup(core, 0x104, "O", 0)
        assert target == "B::f$O"

    def test_selects_by_duplicate_id(self, core):
        table = table_with(
            [(0x100, "A::f", [("O", "A::f$O"), ("L", "A::f$L")])]
        )
        target, _ = table.lookup(core, 0x100, "L", 0)
        assert target == "A::f$L"

    def test_unknown_address_raises_missing_duplicate(self, core):
        table = table_with([(0x100, "A::f", [("O", "A::f$O")])])
        with pytest.raises(MissingDuplicateError):
            table.lookup(core, 0xDEAD, "O", 0)

    def test_unknown_signature_raises_with_known_list(self, core):
        table = table_with([(0x100, "A::f", [("O", "A::f$O")])])
        with pytest.raises(MissingDuplicateError) as excinfo:
            table.lookup(core, 0x100, "L", 0)
        assert excinfo.value.method_name == "A::f"
        assert excinfo.value.known == ["O"]
        assert "domain annotation" in str(excinfo.value)

    def test_merging_same_address_extends_inner_row(self, core):
        table = DomainTable()
        table.add(0x100, "A::f", [InnerEntry("O", "A::f$O")])
        table.add(0x100, "A::f", [InnerEntry("L", "A::f$L")])
        assert len(table) == 1
        target, _ = table.lookup(core, 0x100, "L", 0)
        assert target == "A::f$L"


class TestCostModel:
    def test_later_entries_cost_more_probes(self, core):
        entries = [
            (0x100 + 4 * i, f"C{i}::f", [("O", f"C{i}::f$O")]) for i in range(10)
        ]
        table = table_with(entries)
        _, t_first = table.lookup(core, 0x100, "O", 0)
        _, t_last = table.lookup(core, 0x100 + 36, "O", 0)
        assert t_last - 0 > t_first - 0

    def test_probe_counters(self, core):
        table = table_with(
            [(0x100, "A::f", [("O", "A::f$O")]), (0x104, "B::f", [("O", "B::f$O")])]
        )
        table.lookup(core, 0x104, "O", 0)
        assert core.perf.get("dispatch.outer_probes") == 2
        assert core.perf.get("dispatch.inner_probes") == 1
        assert core.perf.get("dispatch.domain_hits") == 1

    def test_linear_scan_cost_scales_with_domain_size(self, core):
        """The E3 ablation premise: dispatch cost grows with annotation
        count, which is why the Section 4.1 restructuring helped."""
        small = table_with(
            [(0x100 + 4 * i, f"C{i}::f", [("O", f"t{i}")]) for i in range(4)]
        )
        large = table_with(
            [(0x100 + 4 * i, f"C{i}::f", [("O", f"t{i}")]) for i in range(100)]
        )
        _, t_small = small.lookup(core, 0x100 + 4 * 3, "O", 0)
        _, t_large = large.lookup(core, 0x100 + 4 * 99, "O", 0)
        assert t_large > t_small * 10
