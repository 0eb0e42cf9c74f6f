import hashlib
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydroforecast import evalbench
from hydroforecast.autodiff import ShapeError
from hydroforecast.evalbench import (
    PRESETS,
    BenchmarkCell,
    BenchmarkTable,
    compute_metrics,
    compute_metrics_reference,
    emit_report,
    plot_trajectory_svg,
    run_benchmark,
    time_inference,
)
from hydroforecast.hydrodata import gen_task1
from hydroforecast.models import ModelConfig, build_model


class TestMetrics:
    def test_zero_error(self, rng):
        x = rng.normal(size=(4, 10, 2))
        m = compute_metrics(x, x.copy())
        assert m.mae == 0.0 and m.rmse == 0.0

    def test_hand_values(self):
        pred = np.array([[1.0, 3.0]])
        truth = np.array([[0.0, 0.0]])
        m = compute_metrics(pred, truth)
        assert m.mae == pytest.approx(2.0)
        assert m.rmse == pytest.approx(np.sqrt(5.0))
        assert m.mae_per_axis == pytest.approx((1.0, 3.0))

    def test_constant_offset(self):
        pred = np.full((7, 3), 2.5)
        m = compute_metrics(pred, np.zeros((7, 3)))
        assert m.mae == pytest.approx(2.5)
        assert m.rmse == pytest.approx(2.5)

    def test_rmse_at_least_mae_and_reference_match(self, rng):
        pred = rng.normal(size=(1000, 2))
        truth = rng.normal(size=(1000, 2))
        m = compute_metrics(pred, truth)
        assert m.rmse >= m.mae
        ref_mae, ref_rmse = compute_metrics_reference(pred, truth)
        assert abs(m.mae - ref_mae) < 1e-12
        assert abs(m.rmse - ref_rmse) < 1e-12

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_power_mean_property(self, seed):
        r = np.random.default_rng(seed)
        pred = r.uniform(-100, 100, size=(50, 3))
        truth = r.uniform(-100, 100, size=(50, 3))
        m = compute_metrics(pred, truth)
        assert m.rmse >= m.mae >= 0.0
        for a in range(3):
            assert m.rmse_per_axis[a] >= m.mae_per_axis[a]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics(np.zeros((0, 2)), np.zeros((0, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            compute_metrics(np.zeros((3, 2)), np.zeros((2, 3)))

    def test_num_samples(self, rng):
        m = compute_metrics(rng.normal(size=(4, 25, 2)), rng.normal(size=(4, 25, 2)))
        assert m.num_samples == 100


TINY = ModelConfig(encoder="mlp", n_in=4, f_out=2, d_model=8, latent=8,
                   kernel_hidden=(8,))


class TestTiming:
    def test_mean_positive(self, rng):
        model = build_model(TINY)
        mean_ms = time_inference(model, rng.normal(size=(1, 10, 4)),
                                 rng.normal(size=(1, 2)), repeats=3, warmup=1)
        assert isinstance(mean_ms, float) and mean_ms > 0.0

    def test_single_repeat_degenerate(self, rng):
        model = build_model(TINY)
        mean_ms = time_inference(model, rng.normal(size=(1, 5, 4)),
                                 rng.normal(size=(1, 2)), repeats=1, warmup=0)
        assert mean_ms > 0.0

    def test_longer_sequence_slower(self, rng):
        model = build_model(TINY)
        short = time_inference(model, rng.normal(size=(1, 10, 4)),
                               rng.normal(size=(1, 2)), repeats=5, warmup=1)
        long = time_inference(model, rng.normal(size=(1, 200, 4)),
                              rng.normal(size=(1, 2)), repeats=5, warmup=1)
        assert long > short

    def test_invalid_repeats(self, rng):
        model = build_model(TINY)
        with pytest.raises(ValueError):
            time_inference(model, rng.normal(size=(1, 5, 4)),
                           rng.normal(size=(1, 2)), repeats=0)


class TestPresets:
    def test_both_presets_present(self):
        assert set(PRESETS) == {"desk", "paper"}

    def test_paper_preset_widths(self):
        p = PRESETS["paper"]
        assert p["kernel_hidden"] == (512, 512, 512)
        assert p["heads"] == 4
        assert p["lstm_hidden"] == 256


def _fake_table():
    rows = [
        BenchmarkCell(model="MLP-ODE-euler", solver="euler", task="1.1",
                      mae=0.5, rmse=0.7, mae_per_axis=(0.4, 0.6),
                      rmse_per_axis=(0.6, 0.8), params=100, seed=0),
        BenchmarkCell(model="Attention-ODE-euler", solver="euler", task="1.2",
                      failure="DivergenceError: boom, with comma"),
    ]
    return BenchmarkTable(rows=rows, config={"suite": "task1", "preset": "desk",
                                             "seed": 0, "max_epochs": 2})


class TestReportEmission:
    def test_csv_and_json_written(self, tmp_path):
        paths = emit_report(_fake_table(), tmp_path)
        assert sorted(p.name for p in paths) == ["results.csv", "results.json"]
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert lines[0].split(",")[:3] == ["model", "solver", "task"]
        assert len(lines) == 3

    def test_failed_cell_marked(self, tmp_path):
        emit_report(_fake_table(), tmp_path)
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert "FAIL:DivergenceError" in lines[2]
        # commas inside the failure reason must not break the csv row
        assert all(len(line.split(",")) == len(lines[0].split(","))
                   for line in lines[1:])

    def test_json_round_trip(self, tmp_path):
        emit_report(_fake_table(), tmp_path)
        payload = json.loads((tmp_path / "results.json").read_text())
        assert payload["config"]["preset"] == "desk"
        assert payload["rows"][0]["rmse"] == 0.7
        assert payload["rows"][1]["failure"].startswith("DivergenceError")

    def test_timing_column_optional(self, tmp_path):
        emit_report(_fake_table(), tmp_path, include_timing=False)
        header = (tmp_path / "results.csv").read_text().splitlines()[0]
        assert "time_ms_mean" not in header

    def test_emission_deterministic(self, tmp_path):
        emit_report(_fake_table(), tmp_path / "a")
        emit_report(_fake_table(), tmp_path / "b")
        assert ((tmp_path / "a" / "results.csv").read_bytes()
                == (tmp_path / "b" / "results.csv").read_bytes())


class TestBenchmarkRunner:
    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_benchmark(suite="task9")

    def test_zero_epochs_rejected_not_read_as_preset(self, monkeypatch):
        def generate(*args, **kwargs):
            raise AssertionError("the benchmark ran")

        monkeypatch.setattr(evalbench, "generate", generate)
        with pytest.raises(ValueError, match="max_epochs"):
            run_benchmark(suite="task1", max_epochs=0)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            run_benchmark(preset_name="cluster")

    def test_task1_row_structure(self):
        # tiny dataset and budget: this exercises structure, not accuracy
        ds = {t: gen_task1(v, num_conditions=12, length=20 if v == "static" else 20,
                           seed=0)
              for t, v in (("1.1", "static"), ("1.2", "switching"), ("1.3", "noisy"))}
        seen = []
        table = run_benchmark(suite="task1", preset_name="desk", seed=0,
                              datasets=ds, max_epochs=1,
                              on_row=lambda t: seen.append(len(t.rows)))
        assert len(table.rows) == 12
        assert seen == list(range(1, 13))
        names = [c.model for c in table.rows[::3]]
        assert names == ["MLP-ODE-euler", "Attention-ODE-euler",
                         "MLP-ODE-rk4", "Attention-ODE-rk4"]
        assert [c.task for c in table.rows[:3]] == ["1.1", "1.2", "1.3"]
        for cell in table.rows:
            assert cell.failure is None
            assert np.isfinite(cell.rmse) and np.isfinite(cell.mae)
            assert cell.params > 0

    def test_seed_reproducible(self):
        ds = {"1.1": gen_task1("static", num_conditions=12, length=20, seed=0),
              "1.2": gen_task1("switching", num_conditions=12, length=20, seed=0),
              "1.3": gen_task1("noisy", num_conditions=12, length=20, seed=0)}
        t1 = run_benchmark(suite="task1", preset_name="desk", seed=0,
                           datasets=ds, max_epochs=1)
        t2 = run_benchmark(suite="task1", preset_name="desk", seed=0,
                           datasets=ds, max_epochs=1)
        for a, b in zip(t1.rows, t2.rows):
            assert a.rmse == b.rmse and a.mae == b.mae


class TestSvg:
    def test_well_formed_and_complete(self, tmp_path, rng):
        times = 0.02 * np.arange(1, 51)
        truth = rng.normal(size=(50, 2))
        pred = truth + 0.1 * rng.normal(size=(50, 2))
        path = tmp_path / "overlay.svg"
        plot_trajectory_svg(times, truth, pred, path, title="trajectory 0",
                            axis_labels=["Fx", "Fy"])
        root = ET.fromstring(path.read_text())
        assert root.tag.endswith("svg")
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 4  # truth and prediction per axis
        assert sum(1 for p in polylines if p.get("stroke-dasharray")) == 2
        text = path.read_text()
        assert "time [s]" in text and "force [N]" in text
        assert "Fx truth" in text and "Fy pred" in text

    def test_force_overlay_bytes_fixed(self, tmp_path):
        """A force-only overlay's bytes, as they were before the torque unit."""
        k = np.arange(30)
        truth = np.column_stack([k % 7 - 3.0, (k % 5) * 0.5])
        path = tmp_path / "o.svg"
        plot_trajectory_svg(0.02 * (k + 1), truth, truth + 0.25, path,
                            title="trajectory 0 (test split)", axis_labels=["Fx", "Fy"])
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "9a49715613e8543fc12d0fe7267210eb2218305f6d71c8cdd5976ea4b605fefc")

    def test_deterministic_bytes(self, tmp_path, rng):
        times = 0.02 * np.arange(1, 21)
        truth = rng.normal(size=(20, 2))
        pred = rng.normal(size=(20, 2))
        plot_trajectory_svg(times, truth, pred, tmp_path / "a.svg")
        plot_trajectory_svg(times, truth, pred, tmp_path / "b.svg")
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()

    def test_flat_signal_does_not_crash(self, tmp_path):
        times = np.arange(1.0, 11.0)
        flat = np.zeros((10, 1))
        plot_trajectory_svg(times, flat, flat, tmp_path / "flat.svg")
        assert (tmp_path / "flat.svg").exists()
