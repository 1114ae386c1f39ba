"""``repro-fbc bench``: the v6 record, its percentiles and the paired A/B timer."""

import gc
import json
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.experiments import bench
from repro.experiments.bench import (
    BENCH_SCHEMA_VERSION,
    PairedTimes,
    _latency_stats,
    paired_times,
    render_bench,
    run_bench,
)

V6_KEYS = {
    "name",
    "schema_version",
    "scale",
    "python",
    "platform",
    "workload",
    "policies",
    "planner",
}


class TestPairedTimes:
    def test_warm_up_pair_then_alternating_sides(self):
        calls = []
        paired_times(
            lambda: calls.append("b"), lambda: calls.append("t"), repeats=4
        )
        assert calls == ["b", "t", "b", "t", "t", "b", "b", "t", "t", "b"]

    def test_times_are_per_side_in_pair_order(self, monkeypatch):
        now = [0.0]
        clock = SimpleNamespace(perf_counter=lambda: now[0])
        monkeypatch.setattr(bench, "time", clock)

        def side(durations):
            steps = iter(durations)

            def run():
                now[0] += next(steps)

            return run

        # the warm-up pair's 100s are never timed
        times = paired_times(
            side([100.0, 1.0, 2.0, 3.0]), side([100.0, 10.0, 20.0, 30.0]), repeats=3
        )
        assert times == PairedTimes(
            baseline=(1.0, 2.0, 3.0), treatment=(10.0, 20.0, 30.0)
        )

    @pytest.mark.parametrize("enabled", [True, False])
    def test_gc_paused_for_timed_pairs_and_restored(self, enabled):
        seen = []
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            paired_times(
                lambda: seen.append(gc.isenabled()), lambda: None, repeats=2
            )
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()
        # the warm-up runs under the caller's GC state, the timed pairs without
        assert seen == [enabled, False, False]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_gc_restored_when_a_side_raises(self, enabled):
        calls = []

        def treatment():
            calls.append(gc.isenabled())
            if len(calls) == 2:  # the first timed call, after the warm-up
                raise RuntimeError("boom")

        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            with pytest.raises(RuntimeError, match="boom"):
                paired_times(lambda: None, treatment, repeats=3)
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()
        assert calls == [enabled, False]

    def test_statistics_exact(self):
        times = PairedTimes(baseline=(3.0, 1.0, 6.0), treatment=(4.0, 2.0, 8.0))
        assert times.slowdown_by_minima == 1.0  # 2.0 / 1.0 - 1
        assert times.drop_by_minima == 0.5  # 1 - 1.0 / 2.0
        # per-pair drops 0.25, 0.5, 0.25 -> median 0.25
        assert times.drop_by_pair_median == 0.25
        even = PairedTimes(baseline=(1.0, 3.0), treatment=(2.0, 4.0))
        assert even.drop_by_pair_median == (0.5 + 0.25) / 2


class TestLatencyStats:
    def test_nearest_rank_percentiles(self):
        stats = _latency_stats([float(x) for x in range(10, 0, -1)])
        assert stats["n"] == 10
        assert stats["mean_s"] == 5.5
        assert stats["p50_s"] == 5.0
        assert stats["p95_s"] == 10.0  # ceil(0.95 * 10) = rank 10
        assert stats["max_s"] == 10.0

    def test_p95_at_bench_scale(self):
        stats = _latency_stats([float(x) for x in range(1, 2951)])
        assert stats["p95_s"] == 2803.0  # ceil(0.95 * 2950) = rank 2803


class TestRunBench:
    def test_writes_exactly_the_v6_record(self, tmp_path):
        assert BENCH_SCHEMA_VERSION == 6
        record = run_bench(
            planner_candidates=(20,), policies=("landlord",), out_dir=tmp_path
        )
        written = json.loads((tmp_path / "BENCH_core.json").read_text())
        assert set(written) == V6_KEYS
        assert written["schema_version"] == 6
        assert [r["policy"] for r in written["policies"]] == ["landlord"]
        assert [r["n_candidates"] for r in written["planner"]] == [20]
        assert record["path"] == str(tmp_path / "BENCH_core.json")
        text = render_bench(written)
        assert "landlord" in text and "warm-planner" in text

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_bad_out_dir_fails_before_timing(self, tmp_path, capsys, kind):
        out_dir = tmp_path / "out"
        if kind == "file":
            out_dir.write_text("not a directory\n")
        before = sorted(tmp_path.rglob("*"))
        assert main(["bench", "--out-dir", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert sorted(tmp_path.rglob("*")) == before

    def test_write_failure_is_a_repro_error(self, tmp_path, monkeypatch):
        import repro.durability.atomicio as atomicio

        def refuse(path, text, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(atomicio, "atomic_write_text", refuse)
        with pytest.raises(ReproError, match="cannot write .*Permission denied"):
            run_bench(
                planner_candidates=(20,), policies=("landlord",), out_dir=tmp_path
            )
