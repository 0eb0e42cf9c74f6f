"""Every artifact write is atomic: a write that fails partway leaves the old
file intact and no temporary file behind."""

import contextlib
import resource
import signal

import numpy as np
import pytest

from hydroforecast import cli, evalbench, hydrodata
from hydroforecast.fileio import atomic_write
from hydroforecast.models import ModelConfig, build_model, checkpoint_save

LIMIT = 64  # bytes a file may grow to before a write fails


@contextlib.contextmanager
def file_size_limit(nbytes: int):
    """Writes that would grow any file past ``nbytes`` raise OSError (EFBIG),
    as on a full disk. Affects this process only, and only inside the block."""
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (nbytes, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        signal.signal(signal.SIGXFSZ, handler)


def _snapshot(directory) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _table(failure: str):
    return evalbench.BenchmarkTable(
        rows=[evalbench.BenchmarkCell(model="MLP-ODE-euler", solver="euler", task="1.1",
                                      mae=0.5, rmse=0.7, mae_per_axis=(0.4, 0.6),
                                      rmse_per_axis=(0.6, 0.8), params=100,
                                      time_ms_mean=1.25),
              evalbench.BenchmarkCell(model="Attention-ODE-rk4", solver="rk4", task="2",
                                      failure=failure)],
        config={"suite": "task2", "preset": "desk"})


def _write_checkpoint(out, version):
    model = build_model(ModelConfig(d_model=8, heads=2, latent=8, kernel_hidden=(8,),
                                    seed=version))
    checkpoint_save(model, out / "model.ckpt")


def _write_dataset(out, version):
    hydrodata.save_dataset(hydrodata.generate("1.1", seed=version, num_trajectories=2,
                                              length=10), out)


def _write_report(out, version):
    evalbench.emit_report(_table(f"DivergenceError: run {version}"), out)


def _write_svg(out, version):
    times = np.linspace(0.0, 1.0, 5)
    truth = np.full((5, 2), float(version))
    evalbench.plot_trajectory_svg(times, truth, truth + 1.0, out / "overlay_0000.svg")


def _write_predictions(out, version):
    ds = hydrodata.generate("1.1", seed=0, num_trajectories=2, length=10)
    cli._write_prediction_csvs(out, ds, np.full((2, 10, ds.f), float(version)))


def _write_resolved_config(out, version):
    cli._echo_config(out, "train", {"seed": version, "out": str(out), "threads": 1})


WRITERS = {"checkpoint": _write_checkpoint, "dataset": _write_dataset,
           "report": _write_report, "svg": _write_svg, "predictions": _write_predictions,
           "resolved_config": _write_resolved_config}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_old_file(tmp_path, writer):
    write = WRITERS[writer]
    write(tmp_path, 1)
    old = _snapshot(tmp_path)
    assert all(len(data) > LIMIT for data in old.values())
    with file_size_limit(LIMIT), pytest.raises(OSError):
        write(tmp_path, 2)
    assert _snapshot(tmp_path) == old


def test_helper_replaces_on_success_only(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("old")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write("half")
            raise RuntimeError("interrupted")
    assert path.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]
    with atomic_write(path, "wb") as fh:
        fh.write(b"new")
    assert path.read_bytes() == b"new"
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]
