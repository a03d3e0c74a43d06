"""Unit tests for the Figure 3 domain dispatch machinery."""

import pytest

from repro.errors import MissingDuplicateError
from repro.machine.config import CELL_LIKE
from repro.machine.machine import Machine
from repro.obs.trace import EV_DISPATCH_HIT, TraceRecorder
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

    def test_empty_search_leaves_probe_counters_unset(self, core):
        with pytest.raises(MissingDuplicateError):
            DomainTable().lookup(core, 0x100, "O", 0)
        perf = core.perf.as_dict()
        assert "dispatch.outer_probes" not in perf
        assert perf["dispatch.missing_duplicates"] == 1

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


def _dispatch_counters(core) -> dict[str, int]:
    return {
        name: value for name, value in core.perf.as_dict().items()
        if name.startswith("dispatch.")
    }


class TestMemo:
    """Successful lookups are memoised; a memo hit must be
    indistinguishable from the search it replaces."""

    def table(self):
        return table_with([
            (0x100 + 4 * i, f"C{i}::f", [("L", f"C{i}::f$L"), ("O", f"C{i}::f$O")])
            for i in range(5)
        ])

    def test_tenth_lookup_charges_and_counts_as_the_first(self, core):
        table = self.table()
        now = 1000
        entry, after = table.lookup_entry(core, 0x100 + 4 * 3, "O", now)
        first_cost = after - now
        first_counts = _dispatch_counters(core)
        for _ in range(9):
            now = after
            again, after = table.lookup_entry(core, 0x100 + 4 * 3, "O", now)
            assert again is entry
            assert after - now == first_cost
        assert first_cost == 4 * core.cost.domain_probe + 2 * core.cost.inner_domain_probe
        assert _dispatch_counters(core) == {
            name: 10 * value for name, value in first_counts.items()
        }

    def test_add_after_a_lookup_invalidates_the_memo(self, core):
        table = table_with([(0x100, "A::f", [("O", "A::f$O")])])
        assert table.lookup(core, 0x100, "O", 0)[0] == "A::f$O"
        with pytest.raises(MissingDuplicateError):
            table.lookup(core, 0x100, "L", 0)
        table.add(0x100, "A::f", [InnerEntry("L", "A::f$L")])
        assert table.lookup(core, 0x100, "L", 0)[0] == "A::f$L"
        # Rows edited in place put a new entry first; once add() runs, a
        # memoised hit re-searches (a stale memo would charge one probe).
        table = table_with([(0x104, "B::f", [("O", "B::f$O")])])
        _, before = table.lookup(core, 0x104, "O", 0)
        table.outer.insert(0, 0x100)
        table.inner.insert(0, [])
        table.method_names.insert(0, "A::f")
        table.add(0x200, "C::f", [])
        _, after = table.lookup(core, 0x104, "O", 0)
        assert after == before + core.cost.domain_probe

    def test_missing_duplicate_raises_the_same_message_every_time(self, core):
        table = self.table()
        messages = []
        for _ in range(10):
            for address, signature in ((0x100, "X"), (0xDEAD, "O")):
                with pytest.raises(MissingDuplicateError) as excinfo:
                    table.lookup(core, address, signature, 0)
                messages.append(str(excinfo.value))
        assert messages == messages[:2] * 10
        assert "C0::f" in messages[0] and "0xdead" in messages[1]

    def test_trace_events_identical_with_the_memo(self):
        def events(memoised: bool) -> list:
            machine = Machine(CELL_LIKE)
            recorder = TraceRecorder(capacity=256)
            machine.attach_trace(recorder)
            core = machine.accelerator(0)
            table = self.table()
            now = 0
            for step in range(6):
                if not memoised:
                    table.add(0x999, "unused", [])  # clears the memo
                _, now = table.lookup(core, 0x100 + 4 * (step % 3), "O", now)
            return recorder.events()

        memoised = events(True)
        assert memoised == events(False)
        assert [event[3] for event in memoised] == [EV_DISPATCH_HIT] * 6
