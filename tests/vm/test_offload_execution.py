"""End-to-end offload execution: captures, timing, DMA, accessors."""

import pytest

from repro.errors import DmaRaceError, LocalStoreOverflow, RuntimeTrap
from repro.machine.config import CELL_LIKE, SMP_UNIFORM
from repro.vm.interpreter import ENGINE_NAMES, RunOptions
from tests.conftest import printed, run_source


class TestCaptures:
    def test_scalar_capture_read_write(self):
        assert printed(
            """
            void main() {
                int total = 10;
                __offload { total += 5; };
                print_int(total);
            }
            """
        ) == [15]

    def test_multiple_captures(self):
        assert printed(
            """
            void main() {
                int a = 1; int b = 2; int c = 3;
                __offload { a = b + c; };
                print_int(a);
            }
            """
        ) == [5]

    def test_pointer_capture(self):
        assert printed(
            """
            int g[4];
            void main() {
                g[2] = 7;
                int* p = &g[2];
                __offload { *p = *p + 1; };
                print_int(g[2]);
            }
            """
        ) == [8]

    def test_float_capture(self):
        assert printed(
            """
            void main() {
                float f = 0.5f;
                __offload { f = f * 4.0f; };
                print_float(f);
            }
            """
        ) == [2.0]

    def test_this_capture_in_method(self):
        assert printed(
            """
            class Counter {
                int n;
                void bump_offloaded() {
                    __offload { n = n + 10; };
                }
            };
            Counter g_c;
            void main() {
                g_c.n = 1;
                g_c.bump_offloaded();
                print_int(g_c.n);
            }
            """
        ) == [11]

    def test_globals_visible_without_capture(self):
        assert printed(
            """
            int g = 3;
            void main() {
                __offload { g = g * 7; };
                print_int(g);
            }
            """
        ) == [21]


class TestHandlesAndOverlap:
    def test_join_sees_accelerator_results(self):
        assert printed(
            """
            int g = 0;
            void main() {
                __offload_handle_t h = __offload { g = 42; };
                __offload_join(h);
                print_int(g);
            }
            """
        ) == [42]

    def test_overlap_reduces_wall_clock(self):
        """The Figure 2 effect: host work between launch and join is
        hidden behind the accelerator's work."""

        def frame(offloaded):
            body = """
                int acc_work = 0;
                for (int i = 0; i < 500; i++) { acc_work += i; }
                g_acc = acc_work;
            """
            if offloaded:
                return f"""
                int g_acc = 0; int g_host = 0;
                void main() {{
                    __offload_handle_t h = __offload {{ {body} }};
                    int host_work = 0;
                    for (int i = 0; i < 200; i++) {{ host_work += i; }}
                    g_host = host_work;
                    __offload_join(h);
                    print_int(g_acc + g_host);
                }}
                """
            return f"""
            int g_acc = 0; int g_host = 0;
            void main() {{
                {body}
                int host_work = 0;
                for (int i = 0; i < 200; i++) {{ host_work += i; }}
                g_host = host_work;
                print_int(g_acc + g_host);
            }}
            """

        overlapped = run_source(frame(True))
        sequential = run_source(frame(False))
        assert overlapped.printed == sequential.printed
        assert overlapped.cycles < sequential.cycles

    def test_multiple_offloads_spread_across_accelerators(self):
        source = """
        int g[4];
        void main() {
            __offload_handle_t h0 = __offload { int w = 0;
                for (int i = 0; i < 300; i++) { w += i; } g[0] = w; };
            __offload_handle_t h1 = __offload { int w = 0;
                for (int i = 0; i < 300; i++) { w += i; } g[1] = w; };
            __offload_join(h0);
            __offload_join(h1);
            print_int(g[0] + g[1]);
        }
        """
        result = run_source(source)
        assert result.printed == [2 * sum(range(300))]
        # Both ran concurrently: two accelerators have advanced clocks.
        busy = [
            a.clock.now for a in result.machine.accelerators if a.clock.now > 0
        ]
        assert len(busy) == 2

    def test_bare_offload_joins_implicitly(self):
        assert printed(
            """
            int g = 0;
            void main() {
                __offload { g = 9; };
                print_int(g);
            }
            """
        ) == [9]


class TestDmaExecution:
    DMA_SOURCE = """
    int g_data[8];
    void main() {
        for (int i = 0; i < 8; i++) { g_data[i] = i + 1; }
        int result = 0;
        __offload {
            int staging[8];
            dma_get(&staging[0], &g_data[0], 32, 2);
            dma_wait(2);
            int sum = 0;
            for (int i = 0; i < 8; i++) { sum += staging[i]; }
            result = sum;
        };
        print_int(result);
    }
    """

    def test_explicit_dma_round_trip(self):
        assert printed(self.DMA_SOURCE) == [36]

    def test_read_before_wait_traps(self):
        source = """
        int g_data[8];
        void main() {
            int result = 0;
            __offload {
                int staging[8];
                dma_get(&staging[0], &g_data[0], 32, 2);
                result = staging[0];   // BUG: no dma_wait
                dma_wait(2);
            };
            print_int(result);
        }
        """
        with pytest.raises(RuntimeTrap) as excinfo:
            run_source(source)
        assert "dma_wait" in str(excinfo.value)

    def test_dma_put_writes_back(self):
        assert printed(
            """
            int g_out[4];
            void main() {
                __offload {
                    int staging[4];
                    for (int i = 0; i < 4; i++) { staging[i] = i * 11; }
                    dma_put(&staging[0], &g_out[0], 16, 1);
                    dma_wait(1);
                };
                print_int(g_out[3]);
            }
            """
        ) == [33]

    def test_dma_race_detected_at_runtime(self):
        source = """
        int g_data[8];
        void main() {
            __offload {
                int a[8]; int b[8];
                for (int i = 0; i < 8; i++) { a[i] = i; }
                dma_put(&a[0], &g_data[0], 32, 1);
                dma_put(&a[0], &g_data[4], 32, 2);  // overlaps in outer
                dma_wait(1);
                dma_wait(2);
            };
        }
        """
        with pytest.raises(DmaRaceError):
            run_source(source)

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_bulk_copy_before_wait_traps(self, engine):
        """A struct copy out of a get's target lowers to a local->local
        Copy; it traps like a scalar read of the same bytes."""

        def message(read):
            source = f"""
            struct V {{ int x; int y; }};
            V g_data[4];
            void main() {{
                int result = 0;
                __offload {{
                    V staging[4];
                    dma_get(&staging[0], &g_data[0], 32, 2);
                    {read}   // BUG: no dma_wait
                    dma_wait(2);
                }};
                print_int(result);
            }}
            """
            with pytest.raises(RuntimeTrap) as excinfo:
                run_source(source, run_options=RunOptions(engine=engine))
            return str(excinfo.value)

        copied = message("V local = staging[0]; result = local.y;")
        assert copied.startswith("local store read at 0x0 overlaps in-flight dma_get(")
        assert copied.endswith("; missing dma_wait")
        assert copied == message("result = staging[0].x;")

    def test_dma_source_portable_to_shared_memory(self):
        """dma_get degrades to a copy on SMP — same output."""
        assert printed(self.DMA_SOURCE, SMP_UNIFORM) == [36]


class TestAccessorsInLanguage:
    ACCESSOR_SOURCE = """
    int g_values[16];
    void main() {
        for (int i = 0; i < 16; i++) { g_values[i] = i; }
        int sum = 0;
        __offload {
            Array<int, 16> values(g_values);
            for (int i = 0; i < 16; i++) { sum += values[i]; }
        };
        print_int(sum);
    }
    """

    def test_accessor_reads(self):
        assert printed(self.ACCESSOR_SOURCE) == [120]

    def test_accessor_write_and_put_back(self):
        assert printed(
            """
            int g_values[8];
            void main() {
                __offload {
                    Array<int, 8> values(g_values);
                    for (int i = 0; i < 8; i++) { values[i] = i * 3; }
                    values.put_back();
                };
                print_int(g_values[7]);
            }
            """
        ) == [21]

    def test_accessor_writes_invisible_without_put_back(self):
        assert printed(
            """
            int g_values[8];
            void main() {
                __offload {
                    Array<int, 8> values(g_values);
                    values[0] = 99;
                };
                print_int(g_values[0]);
            }
            """
        ) == [0]

    def test_accessor_uses_one_bulk_transfer(self):
        result = run_source(self.ACCESSOR_SOURCE)
        perf = result.perf()
        assert perf["accessor.bulk_gets"] == 1
        assert perf["accessor.bytes_in"] == 64

    def test_accessor_on_host_code(self):
        assert printed(
            """
            int g_values[4];
            void main() {
                g_values[2] = 5;
                Array<int, 4> values(g_values);
                print_int(values[2]);
            }
            """
        ) == [5]

    def test_accessor_portable_to_shared_memory(self):
        assert printed(self.ACCESSOR_SOURCE, SMP_UNIFORM) == [120]


class TestLocalStoreLimits:
    def test_oversized_frame_overflows_local_store(self):
        source = """
        void main() {
            __offload {
                int huge[70000];   // 280 KB > 256 KB local store
                huge[0] = 1;
            };
        }
        """
        with pytest.raises(LocalStoreOverflow):
            run_source(source)

    def test_same_frame_fits_on_host(self):
        source = """
        void main() {
            int huge[70000];
            huge[0] = 1;
            print_int(huge[0]);
        }
        """
        assert printed(source) == [1]


class TestCacheStrategies:
    COUNT_SOURCE = """
    int g_data[32];
    void main() {
        for (int i = 0; i < 32; i++) { g_data[i] = 1; }
        int sum = 0;
        __offload [cache(direct)] {
            for (int pass = 0; pass < 4; pass++) {
                for (int i = 0; i < 32; i++) { sum += g_data[i]; }
            }
        };
        print_int(sum);
    }
    """

    def test_cached_offload_correct(self):
        assert printed(self.COUNT_SOURCE) == [128]

    def test_cache_hits_on_revisit(self):
        result = run_source(self.COUNT_SOURCE)
        perf = result.perf()
        assert perf["softcache.hits"] > perf["softcache.misses"] * 10

    def test_cache_faster_than_raw(self):
        cached = run_source(self.COUNT_SOURCE)
        raw = run_source(self.COUNT_SOURCE.replace("[cache(direct)]", ""))
        assert cached.printed == raw.printed
        assert cached.cycles < raw.cycles / 3

    def test_dirty_lines_flushed_at_offload_end(self):
        assert printed(
            """
            int g = 1;
            void main() {
                __offload [cache(victim)] { g = g + 41; };
                print_int(g);
            }
            """
        ) == [42]
