"""Stack-sampling profiler: classification, overhead, lifecycle."""

import threading
import time

import pytest

from repro.obs.profile import SamplingProfiler, classify_stack
from repro.obs.registry import MetricsRegistry


class FakeCode:
    def __init__(self, filename, name):
        self.co_filename = filename
        self.co_name = name


class FakeFrame:
    def __init__(self, filename, name, back=None):
        self.f_code = FakeCode(filename, name)
        self.f_back = back


def stack(*frames):
    """Build a frame chain from ``(filename, function)`` outermost-first;
    returns the innermost frame."""
    current = None
    for filename, name in frames:
        current = FakeFrame(filename, name, back=current)
    return current


REPRO = "/x/src/repro"


class TestClassifyStack:
    def test_innermost_function_match_wins(self):
        frame = stack(
            (f"{REPRO}/core/operator.py", "_join_phase"),
            (f"{REPRO}/core/operator.py", "compare_block"),
        )
        assert classify_stack(frame) == (
            "join.compare_block", "operator.py:compare_block",
        )

    def test_outer_function_matches_when_inner_does_not(self):
        frame = stack(
            (f"{REPRO}/core/operator.py", "_partition_phase"),
            (f"{REPRO}/core/signatures.py", "_bit_positions"),
        )
        # signatures.py only offers a module fallback; the walk keeps
        # going and the _partition_phase *function* match further out
        # is authoritative.
        phase, label = classify_stack(frame)
        assert phase == "partition"
        assert label == "operator.py:_partition_phase"

    def test_module_fallback(self):
        frame = stack(
            (f"{REPRO}/storage/btree.py", "_descend"),
        )
        assert classify_stack(frame) == (
            "storage.btree", "btree.py:_descend",
        )

    def test_non_repro_stack_is_ignored(self):
        frame = stack(
            ("/usr/lib/python3/threading.py", "wait"),
            ("/usr/lib/python3/selectors.py", "select"),
        )
        assert classify_stack(frame) is None

    def test_unmatched_repro_stack_lands_in_unknown(self):
        frame = stack(
            (f"{REPRO}/brand_new_module.py", "novel_function"),
        )
        phase, label = classify_stack(frame)
        assert phase == "unknown"
        assert label == "brand_new_module.py:novel_function"


class TestSamplingProfiler:
    def make(self, **kwargs):
        return SamplingProfiler(**kwargs)

    def test_rejects_nonpositive_hz(self):
        with pytest.raises(ValueError, match="hz"):
            self.make(hz=0)

    def test_sample_once_attributes_synthetic_frames(self):
        profiler = self.make(hz=10)
        frames = {
            1: stack((f"{REPRO}/core/operator.py", "compare_block")),
            2: stack((f"{REPRO}/storage/wal.py", "append")),
            3: stack(("/usr/lib/python3/threading.py", "wait")),
        }
        assert profiler.sample_once(frames) == 2
        report = profiler.report()
        assert report["samples"] == 1
        assert report["attributed"] == 2
        phases = {row["phase"]: row["share"] for row in report["phases"]}
        assert phases == {"join.compare_block": 0.5, "storage.wal": 0.5}

    def test_sampler_skips_its_own_thread(self):
        profiler = self.make(hz=10)
        frames = {
            threading.get_ident():
                stack((f"{REPRO}/core/operator.py", "compare_block")),
        }
        assert profiler.sample_once(frames) == 0

    def test_unknown_share_in_report(self):
        profiler = self.make(hz=10)
        profiler.sample_once({
            1: stack((f"{REPRO}/core/operator.py", "compare_block")),
            2: stack((f"{REPRO}/mystery.py", "f")),
        })
        report = profiler.report()
        assert report["unknown_share"] == 0.5

    def test_overhead_measured_with_injected_clock(self):
        # Each clock() call advances 1ms; sample_once reads the clock
        # twice, so sampler time is 1ms per tick against elapsed wall
        # driven by the same clock.
        ticks = {"n": 0}

        def clock():
            ticks["n"] += 1
            return ticks["n"] * 0.001

        profiler = self.make(hz=10, clock=clock, frames=dict)
        start = clock()
        for __ in range(10):
            profiler.sample_once({})
        # elapsed from profiler.start would use the daemon path; emulate
        # the accounting directly: sampler spent 10 x 1ms.
        elapsed = clock() - start
        assert profiler._sampler_seconds == pytest.approx(0.010)
        assert elapsed > 0

    def test_live_sampling_under_load_stays_cheap(self):
        profiler = self.make(hz=67)
        stop = threading.Event()

        def burn():
            while not stop.is_set():
                sum(i * i for i in range(200))

        worker = threading.Thread(target=burn, daemon=True)
        worker.start()
        with profiler:
            time.sleep(0.25)
        stop.set()
        worker.join(timeout=2.0)
        report = profiler.report()
        assert report["samples"] >= 3
        assert report["elapsed_seconds"] > 0
        # The <5% overhead budget from the acceptance criteria.
        assert report["overhead"] < 0.05

    def test_start_stop_idempotent_and_restartable(self):
        profiler = self.make(hz=500)
        profiler.start()
        profiler.start()  # no-op, not an error
        time.sleep(0.02)
        profiler.stop()
        profiler.stop()  # idempotent
        first = profiler.report()["samples"]
        assert first >= 1
        profiler.start()
        time.sleep(0.02)
        profiler.stop()
        assert profiler.report()["samples"] > first

    def test_reset_clears_counts(self):
        profiler = self.make(hz=10)
        profiler.sample_once({
            1: stack((f"{REPRO}/core/operator.py", "compare_block")),
        })
        profiler.reset()
        report = profiler.report()
        assert report["samples"] == 0
        assert report["phases"] == []

    def test_render_mentions_hot_phase(self):
        profiler = self.make(hz=10)
        for __ in range(9):
            profiler.sample_once({
                1: stack((f"{REPRO}/core/operator.py", "compare_block")),
            })
        profiler.sample_once({
            1: stack((f"{REPRO}/storage/wal.py", "append")),
        })
        text = profiler.render()
        assert "join.compare_block" in text
        assert "90.0%" in text
