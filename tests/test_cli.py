"""End-to-end CLI tests run through subprocesses against the installed
console entry point, covering exit codes, artifact layout, and run-to-run
byte determinism."""

import filecmp
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import hydroforecast
from hydroforecast import autodiff, cli, evalbench, hydrodata, models, odeint
from hydroforecast.models import checkpoint_load, checkpoint_save

CLI = [sys.executable, "-m", "hydroforecast.cli"]


def assert_dirs_equal(a, b):
    """Byte-compare run artifacts; the config echo may differ only in 'out'."""
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    plain = [n for n in names if n != "resolved_config.json"]
    match, mismatch, errors = filecmp.cmpfiles(a, b, plain, shallow=False)
    assert not mismatch and not errors
    ca = json.loads((a / "resolved_config.json").read_text())
    cb = json.loads((b / "resolved_config.json").read_text())
    ca.pop("out"), cb.pop("out")
    assert ca == cb


def run_cli(*argv, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + list(argv), capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=600)


def main_in_process(monkeypatch, *argv):
    """``cli.main`` in this process; the thread variables it sets are restored."""
    for var in cli.THREAD_VARS:
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    return cli.main(list(argv))


def flag_or_config(tmp_path, flag, value, source):
    """``--flag=value`` as a flag, or as the one key of a ``--config`` file."""
    if source == "flag":
        return [f"--{flag}={value}"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag.replace("-", "_"): value}))
    return ["--config", str(cfg)]


def edited_copy(dataset_dir, tmp_path, edit):
    """A copy of ``dataset_dir`` whose manifest ``edit`` changed in place."""
    copy = tmp_path / "broken"
    shutil.copytree(dataset_dir, copy)
    manifest = json.loads((copy / "manifest.json").read_text())
    edit(manifest)
    (copy / "manifest.json").write_text(json.dumps(manifest))
    return copy


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "task11"
    r = run_cli("gen-data", "--task", "1.1", "--trajectories", "24",
                "--length", "30", "--seed", "0", "--out", str(out))
    assert r.returncode == 0, r.stderr
    return out


@pytest.fixture(scope="module")
def checkpoint(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "train"
    r = run_cli("train", "--data", str(dataset_dir), "--model", "mlp-ode",
                "--max-epochs", "2", "--seed", "0", "--out", str(out))
    assert r.returncode == 0, r.stderr
    return out / "model.ckpt"


class TestGenData:
    def test_artifacts(self, dataset_dir):
        manifest = json.loads((dataset_dir / "manifest.json").read_text())
        assert manifest["task"] == "1.1"
        assert manifest["n"] == 4 and manifest["f"] == 2 and manifest["L"] == 30
        assert manifest["num_trajectories"] == 24
        assert set(manifest["splits"]) == {"train", "val", "test"}
        assert [p.name for p in dataset_dir.glob("trajectories_*.npy")] == [manifest["table"]]
        assert (dataset_dir / "resolved_config.json").exists()

    def test_resolved_config_echo(self, dataset_dir):
        resolved = json.loads((dataset_dir / "resolved_config.json").read_text())
        assert resolved["subcommand"] == "gen-data"
        assert resolved["task"] == "1.1"
        assert resolved["seed"] == 0

    def test_byte_determinism(self, tmp_path):
        for tag in ("a", "b"):
            r = run_cli("gen-data", "--task", "1.3", "--trajectories", "12",
                        "--length", "20", "--seed", "3", "--threads", "1",
                        "--out", str(tmp_path / tag))
            assert r.returncode == 0, r.stderr
        assert_dirs_equal(tmp_path / "a", tmp_path / "b")

    def test_unknown_task(self, tmp_path):
        r = run_cli("gen-data", "--task", "9", "--out", str(tmp_path / "x"))
        assert r.returncode == 2

    def test_missing_out(self):
        r = run_cli("gen-data", "--task", "1.1")
        assert r.returncode == 2
        assert "--out" in r.stderr

    def test_out_env_fallback(self, tmp_path):
        r = run_cli("gen-data", "--task", "1.1", "--trajectories", "12",
                    "--length", "20",
                    env_extra={"HYDROFORECAST_OUT": str(tmp_path)})
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "gen-data" / "manifest.json").exists()


class TestConfigFile:
    def test_config_file_and_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"task": "1.1", "trajectories": 12,
                                   "length": 20}))
        out = tmp_path / "out"
        r = run_cli("gen-data", "--config", str(cfg), "--trajectories", "16",
                    "--out", str(out))
        assert r.returncode == 0, r.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["num_trajectories"] == 16  # flag wins over file

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"task": "1.1", "warp_speed": 9}))
        r = run_cli("gen-data", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert r.returncode == 2
        assert "warp_speed" in r.stderr

    def test_invalid_json(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        r = run_cli("gen-data", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert r.returncode == 2

    def test_missing_config_file(self, tmp_path):
        r = run_cli("gen-data", "--task", "1.1",
                    "--config", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path / "o"))
        assert r.returncode == 3

    def test_top_level_not_object_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("42")
        r = run_cli("gen-data", "--task", "1.1", "--config", str(cfg),
                    "--out", str(tmp_path / "o"))
        assert r.returncode == 2
        assert "JSON object" in r.stderr and "Traceback" not in r.stderr

    def test_non_utf8_file_exit_3(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"task": "1.1\xff"}')
        r = run_cli("gen-data", "--task", "1.1", "--config", str(cfg),
                    "--out", str(tmp_path / "o"))
        assert r.returncode == 3
        assert "cannot read config file" in r.stderr and "Traceback" not in r.stderr

    def test_directory_exit_3(self, tmp_path):
        r = run_cli("gen-data", "--task", "1.1", "--config", str(tmp_path),
                    "--out", str(tmp_path / "o"))
        assert r.returncode == 3
        assert "cannot read config file" in r.stderr and "Traceback" not in r.stderr

    def test_wrongly_typed_value_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trajectories": "two"}))
        r = run_cli("gen-data", "--task", "1.1", "--config", str(cfg),
                    "--out", str(tmp_path / "o"))
        assert r.returncode == 2
        assert "'trajectories' must be int" in r.stderr and "Traceback" not in r.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", ['{"trajectories": ' + "9" * 4400 + "}",
                                      '{"dt": 1' + "0" * 400 + "}"],
                             ids=["int-too-many-digits", "int-beyond-float"])
    def test_huge_int_exit_2(self, tmp_path, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        r = run_cli("gen-data", "--task", "1.1", "--config", str(cfg),
                    "--out", str(tmp_path / "o"))
        assert r.returncode == 2
        assert str(cfg) in r.stderr and "Traceback" not in r.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("dt", ["NaN", "Infinity", "-Infinity", "0", "-0.1"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_dt_not_finite_positive_exit_2(self, tmp_path, dt, source):
        if source == "flag":
            args = [f"--dt={float(dt)}"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(f'{{"dt": {dt}}}')
            args = ["--config", str(cfg)]
        r = run_cli("gen-data", "--task", "1.1", "--trajectories", "4", "--length", "5",
                    "--out", str(tmp_path / "o"), *args)
        assert r.returncode == 2
        assert "dt" in r.stderr and "Traceback" not in r.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag,name", [("length", "length"),
                                           ("trajectories", "num_trajectories")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_count_below_one_exit_2(self, tmp_path, flag, name, source):
        counts = {"trajectories": 4, "length": 5, flag: 0}
        if source == "flag":
            args = [f"--{key}={value}" for key, value in counts.items()]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(counts))
            args = ["--config", str(cfg)]
        r = run_cli("gen-data", "--task", "1.1", "--out", str(tmp_path / "o"), *args)
        assert r.returncode == 2
        assert f"{name} must be at least 1, got 0" in r.stderr and "Traceback" not in r.stderr
        assert not (tmp_path / "o").exists()

    def test_dt_that_overflows_the_oracle_exit_2(self, tmp_path):
        # the sensor relaxation's RK4 substeps are unstable at this dt
        r = run_cli("gen-data", "--task", "2", "--trajectories", "10", "--dt", "3",
                    "--out", str(tmp_path / "o"))
        assert r.returncode == 2
        assert "--dt 3 is too large" in r.stderr and "stability limit" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "o").exists()

    def test_length_beyond_c_long_exit_2(self, tmp_path):
        r = run_cli("gen-data", "--task", "1.1", "--length", str(10 ** 30),
                    "--out", str(tmp_path / "o"))
        assert r.returncode == 2
        assert "too large" in r.stderr and "Traceback" not in r.stderr
        assert not (tmp_path / "o").exists()

    def test_unallocatable_length_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"task": "1.1", "trajectories": 20,
                                   "length": 100000000000}))
        r = run_cli("gen-data", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert r.returncode == 2
        assert "too large to allocate" in r.stderr and "Traceback" not in r.stderr
        assert not (tmp_path / "o").exists()


class TestOnePath:
    """Settings given as flags and the same settings given in a config file
    take one path: the echoes are byte-identical, an int in the file for a
    float flag included."""

    @pytest.mark.parametrize("settings", [
        ["gen-data", {"task": "1.2", "trajectories": 12, "length": 10, "dt": 0.05,
                      "seed": 3, "split_seed": 5}],
        ["train", {"model": "mlp-ode", "solver": "rk4", "lr": 0.01, "batch_size": 8,
                   "max_epochs": 1, "patience": 2, "grad_clip": 5, "lr_decay": 1,
                   "preset": "desk", "seed": 2}]], ids=["gen-data", "train"])
    def test_flags_and_config_file_echo_alike(self, dataset_dir, tmp_path, monkeypatch,
                                              settings):
        command, values = settings
        out = tmp_path / "o"
        common = [command, "--out", str(out)]
        if command == "train":
            common += ["--data", str(dataset_dir)]
        flags = [f"--{k.replace('_', '-')}={v}" for k, v in values.items()]
        assert main_in_process(monkeypatch, *common, *flags) == 0
        from_flags = (out / "resolved_config.json").read_bytes()
        shutil.rmtree(out)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        assert main_in_process(monkeypatch, *common, "--config", str(cfg)) == 0
        assert (out / "resolved_config.json").read_bytes() == from_flags


class TestDeclaredChoices:
    """The parser's literal choices, kept in cli.py so that building it loads
    no numpy, match what the library accepts."""

    @staticmethod
    def choices(command, dest):
        parser = cli.build_parser().parse_args([command]).parser
        (action,) = [a for a in parser._actions if a.dest == dest]
        return action.choices

    @pytest.mark.parametrize("command", ["train", "gradcheck"])
    def test_solvers(self, command):
        assert tuple(self.choices(command, "solver")) == models.SOLVERS
        assert models.SOLVERS == tuple(odeint._STAGES)

    @pytest.mark.parametrize("command", ["train", "gradcheck"])
    def test_models(self, command):
        assert self.choices(command, "model") == sorted(cli.MODEL_FLAGS)
        assert sorted(cli.MODEL_FLAGS.values()) == sorted(models.ENCODERS)

    @pytest.mark.parametrize("command", ["train", "bench"])
    def test_presets(self, command):
        assert sorted(self.choices(command, "preset")) == sorted(evalbench.PRESETS)

    def test_suites(self):
        assert tuple(self.choices("bench", "suite")) == evalbench.SUITES

    def test_dt_default(self):
        parser = cli.build_parser().parse_args(["gen-data"]).parser
        (action,) = [a for a in parser._actions if a.dest == "dt"]
        assert action.default == hydroforecast.DEFAULT_DT == models.ModelConfig().dt
        assert hydrodata.generate("1.1", num_trajectories=1, length=2).dt == action.default

    def test_tasks_generate(self):
        for task in self.choices("gen-data", "task"):
            ds = hydrodata.generate(task, num_trajectories=2, length=40)
            assert ds.num_trajectories == 2 and ds.length == 40

    def test_splits(self, dataset_dir):
        manifest = json.loads((dataset_dir / "manifest.json").read_text())
        for command in ("predict", "eval"):
            assert sorted(self.choices(command, "split")) == sorted(manifest["splits"])


class TestTrain:
    def test_artifacts(self, checkpoint):
        out = checkpoint.parent
        assert checkpoint.exists()
        assert (out / "train_log.jsonl").exists()
        rows = [json.loads(l) for l in (out / "train_log.jsonl").read_text().splitlines()]
        assert len(rows) == 2
        assert (out / "resolved_config.json").exists()

    def test_missing_data_flag(self, tmp_path):
        r = run_cli("train", "--out", str(tmp_path / "t"))
        assert r.returncode == 2

    def test_lstm_with_solver_rejected(self, dataset_dir, tmp_path):
        r = run_cli("train", "--data", str(dataset_dir), "--model", "lstm",
                    "--solver", "rk4", "--out", str(tmp_path / "t"))
        assert r.returncode == 2
        assert "solver" in r.stderr

    def test_lstm_with_solver_in_config_rejected(self, dataset_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "lstm", "solver": "rk4", "max_epochs": 1}))
        r = run_cli("train", "--data", str(dataset_dir), "--config", str(cfg),
                    "--out", str(tmp_path / "t"))
        assert r.returncode == 2
        assert "--solver" in r.stderr and "Traceback" not in r.stderr
        assert not (tmp_path / "t").exists()

    def test_no_splits_in_manifest(self, dataset_dir, tmp_path):
        import shutil
        broken = tmp_path / "broken"
        shutil.copytree(dataset_dir, broken)
        manifest = json.loads((broken / "manifest.json").read_text())
        manifest["splits"] = None
        (broken / "manifest.json").write_text(json.dumps(manifest))
        r = run_cli("train", "--data", str(broken), "--max-epochs", "1",
                    "--out", str(tmp_path / "t"))
        assert r.returncode == 2
        assert "splits" in r.stderr

    def test_truncated_trajectory_exit_5(self, dataset_dir, tmp_path, reseal_table):
        broken = tmp_path / "broken"
        shutil.copytree(dataset_dir, broken)
        # the last ten rows of 8 columns
        path = reseal_table(broken, lambda body, table: body[:-8 * 8 * 10])
        r = run_cli("train", "--data", str(broken), "--max-epochs", "1",
                    "--out", str(tmp_path / "t"))
        assert r.returncode == 5
        assert path.name in r.stderr and "Traceback" not in r.stderr

    def test_flipped_byte_exit_5(self, dataset_dir, tmp_path):
        broken = tmp_path / "broken"
        shutil.copytree(dataset_dir, broken)
        (path,) = broken.glob("trajectories_*.npy")
        body = bytearray(path.read_bytes())
        body[-100] ^= 1
        path.write_bytes(bytes(body))
        r = run_cli("train", "--data", str(broken), "--max-epochs", "1",
                    "--out", str(tmp_path / "t"))
        assert r.returncode == 5
        assert path.name in r.stderr and "Traceback" not in r.stderr

    def test_unreadable_trajectory_exit_3(self, dataset_dir, tmp_path):
        broken = tmp_path / "broken"
        shutil.copytree(dataset_dir, broken)
        (path,) = broken.glob("trajectories_*.npy")
        path.unlink()
        path.mkdir()  # open() fails with an OSError
        r = run_cli("train", "--data", str(broken), "--max-epochs", "1",
                    "--out", str(tmp_path / "t"))
        assert r.returncode == 3
        assert path.name in r.stderr and "Traceback" not in r.stderr

    @pytest.mark.parametrize("f0", [[1.0, 2.0, 3.0], [1.0, float("nan")]],
                             ids=["three_values", "nan"])
    def test_bad_manifest_f0_exit_5(self, dataset_dir, tmp_path, f0):
        broken = edited_copy(dataset_dir, tmp_path, lambda m: m.update(f0=[f0] + m["f0"][1:]))
        r = run_cli("train", "--data", str(broken), "--max-epochs", "1",
                    "--out", str(tmp_path / "t"))
        assert r.returncode == 5
        assert "manifest.json" in r.stderr and "Traceback" not in r.stderr

    @pytest.mark.parametrize("edit", [None, {"cd": 5}, {"rho": "x"}],
                             ids=["null", "cd_number", "rho_text"])
    def test_bad_oracle_params_exit_5(self, dataset_dir, tmp_path, edit):
        def change(manifest):
            if edit is None:
                manifest["oracle_params"] = None
            else:
                manifest["oracle_params"].update(edit)

        broken = edited_copy(dataset_dir, tmp_path, change)
        r = run_cli("train", "--data", str(broken), "--max-epochs", "1",
                    "--out", str(tmp_path / "t"))
        assert r.returncode == 5
        assert "manifest.json" in r.stderr and "Traceback" not in r.stderr

    @pytest.mark.parametrize("name, ids", [("train", []), ("train", None), ("val", None)],
                             ids=["empty_train", "no_train", "no_val"])
    def test_unusable_split_exit_2(self, dataset_dir, tmp_path, name, ids):
        def change(manifest):
            if ids is None:
                del manifest["splits"][name]
            else:
                manifest["splits"][name] = ids

        broken = edited_copy(dataset_dir, tmp_path, change)
        r = run_cli("train", "--data", str(broken), "--max-epochs", "1",
                    "--out", str(tmp_path / "t"))
        assert r.returncode == 2
        assert repr(name) in r.stderr and "Traceback" not in r.stderr

    def test_empty_val_split_trains_on_train_loss(self, dataset_dir, tmp_path):
        broken = edited_copy(dataset_dir, tmp_path, lambda m: m["splits"].update(val=[]))
        r = run_cli("train", "--data", str(broken), "--model", "mlp-ode",
                    "--max-epochs", "2", "--out", str(tmp_path / "t"))
        assert r.returncode == 0, r.stderr
        rows = [json.loads(l) for l in (tmp_path / "t" / "train_log.jsonl").read_text()
                .splitlines()]
        assert [row["val_loss"] for row in rows] == [row["train_loss"] for row in rows]

    @pytest.mark.parametrize("edit", ["out_of_range", "negative", "in_two_splits",
                                      "not_integer"])
    def test_bad_manifest_splits_exit_5(self, dataset_dir, tmp_path, edit):
        import shutil
        broken = tmp_path / "broken"
        shutil.copytree(dataset_dir, broken)
        manifest = json.loads((broken / "manifest.json").read_text())
        splits = manifest["splits"]
        splits["val"].append({"out_of_range": 99, "negative": -1, "not_integer": 1.5,
                              "in_two_splits": splits["train"][0]}[edit])
        (broken / "manifest.json").write_text(json.dumps(manifest))
        r = run_cli("train", "--data", str(broken), "--max-epochs", "1",
                    "--out", str(tmp_path / "t"))
        assert r.returncode == 5
        assert "manifest.json" in r.stderr and "Traceback" not in r.stderr

    @pytest.mark.parametrize("edit", [{"n": "4"}, {"f": None}, {"dt": "x"}, {"dt": None},
                                      {"dt": -1}, {"dt": 0}, "list"],
                             ids=["n_text", "f_null", "dt_text", "dt_null", "dt_negative",
                                  "dt_zero", "list"])
    def test_bad_manifest_scalar_exit_5(self, dataset_dir, tmp_path, edit):
        import shutil
        broken = tmp_path / "broken"
        shutil.copytree(dataset_dir, broken)
        manifest = json.loads((broken / "manifest.json").read_text())
        if edit == "list":
            manifest = [manifest]
        else:
            manifest.update(edit)
        (broken / "manifest.json").write_text(json.dumps(manifest))
        r = run_cli("train", "--data", str(broken), "--max-epochs", "1",
                    "--out", str(tmp_path / "t"))
        assert r.returncode == 5
        assert "manifest.json" in r.stderr and "Traceback" not in r.stderr

    def test_fractional_cond_id_exit_5(self, dataset_dir, tmp_path, reseal_table):
        broken = tmp_path / "broken"
        shutil.copytree(dataset_dir, broken)

        def fractional(body, table):
            table[0, 0, -1] = 3.7
            buf = io.BytesIO()
            np.save(buf, table, allow_pickle=False)
            return buf.getvalue()

        path = reseal_table(broken, fractional)
        r = run_cli("train", "--data", str(broken), "--max-epochs", "1",
                    "--out", str(tmp_path / "t"))
        assert r.returncode == 5
        assert path.name in r.stderr and "Traceback" not in r.stderr

    def test_out_is_a_file_exit_3(self, dataset_dir, tmp_path):
        out = tmp_path / "file"
        out.write_text("kept")
        r = run_cli("train", "--data", str(dataset_dir), "--max-epochs", "1",
                    "--out", str(out))
        assert r.returncode == 3
        assert str(out) in r.stderr and "Traceback" not in r.stderr
        assert out.read_text() == "kept"

    def test_nonexistent_dataset(self, tmp_path):
        r = run_cli("train", "--data", str(tmp_path / "nope"),
                    "--out", str(tmp_path / "t"))
        assert r.returncode == 3


class TestFlagDomains:
    """Values outside a flag's domain end in exit 2 naming the flag, before any
    work starts, whether they come from the flag or from a config file."""

    @pytest.mark.parametrize("flag,value", [
        ("batch-size", 0), ("batch-size", -3), ("max-epochs", 0), ("max-epochs", -1),
        ("patience", -1), ("lr", -1.0), ("lr", float("nan")), ("lr", float("inf")),
        ("grad-clip", -1.0), ("grad-clip", float("nan")), ("lr-decay", 2.0),
        ("lr-decay", float("nan"))])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_train_exit_2(self, dataset_dir, tmp_path, monkeypatch, capsys, flag, value,
                          source):
        code = main_in_process(monkeypatch, "train", "--data", str(dataset_dir),
                               "--out", str(tmp_path / "t"),
                               *flag_or_config(tmp_path, flag, value, source))
        assert code == 2
        assert f"--{flag} must be" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bench_epochs_below_one_exit_2(self, tmp_path, monkeypatch, capsys, value,
                                           source):
        def run_benchmark(**kwargs):
            raise AssertionError("the benchmark ran")

        monkeypatch.setattr(evalbench, "run_benchmark", run_benchmark)
        code = main_in_process(monkeypatch, "bench", "--out", str(tmp_path / "b"),
                               *flag_or_config(tmp_path, "max-epochs", value, source))
        assert code == 2
        assert "--max-epochs must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), -1.0, 0.0, float("inf")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_gradcheck_tolerance_exit_2(self, tmp_path, monkeypatch, capsys, value, source):
        def build_model(config):
            raise AssertionError("the gradient check ran")

        monkeypatch.setattr(models, "build_model", build_model)
        code = main_in_process(monkeypatch, "gradcheck",
                               *flag_or_config(tmp_path, "tolerance", value, source))
        assert code == 2
        assert "--tolerance must be a finite number above 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag", [
        ("gen-data", "seed"), ("gen-data", "split-seed"), ("train", "seed"),
        ("predict", "seed"), ("eval", "seed"), ("bench", "seed"), ("gradcheck", "seed")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_exit_2(self, tmp_path, monkeypatch, capsys, command, flag, source):
        """numpy takes only non-negative seeds."""
        code = main_in_process(monkeypatch, command, "--out", str(tmp_path / "o"),
                               *flag_or_config(tmp_path, flag, -1, source))
        assert code == 2
        assert f"--{flag} must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestPredictEval:
    def test_predict_artifacts(self, checkpoint, dataset_dir, tmp_path):
        out = tmp_path / "pred"
        r = run_cli("predict", "--checkpoint", str(checkpoint),
                    "--data", str(dataset_dir), "--split", "test",
                    "--out", str(out))
        assert r.returncode == 0, r.stderr
        manifest = json.loads((dataset_dir / "manifest.json").read_text())
        n_test = len(manifest["splits"]["test"])
        preds = sorted(out.glob("pred_*.csv"))
        assert len(preds) == n_test
        lines = preds[0].read_text().splitlines()
        assert lines[0] == "t,Fhat_0,Fhat_1"
        assert len(lines) == manifest["L"] + 1

    def test_eval_artifacts(self, checkpoint, dataset_dir, tmp_path):
        out = tmp_path / "eval"
        r = run_cli("eval", "--checkpoint", str(checkpoint),
                    "--data", str(dataset_dir), "--split", "val",
                    "--out", str(out))
        assert r.returncode == 0, r.stderr
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["rmse"] >= metrics["mae"] > 0.0
        assert metrics["split"] == "val"
        assert len(list(out.glob("overlay_*.svg"))) == len(
            json.loads((dataset_dir / "manifest.json").read_text())["splits"]["val"])
        assert "RMSE" in r.stdout

    def test_eval_byte_determinism(self, checkpoint, dataset_dir, tmp_path):
        for tag in ("a", "b"):
            r = run_cli("eval", "--checkpoint", str(checkpoint),
                        "--data", str(dataset_dir), "--split", "test",
                        "--threads", "1", "--out", str(tmp_path / tag))
            assert r.returncode == 0, r.stderr
        assert_dirs_equal(tmp_path / "a", tmp_path / "b")

    def test_task2_overlay_names_torque_unit(self, tmp_path, monkeypatch):
        ds = hydrodata.generate("2", num_trajectories=10, length=40)
        ds.splits = hydrodata.split_dataset(ds)[3]
        hydrodata.save_dataset(ds, tmp_path / "data")
        model = models.build_model(models.ModelConfig(
            encoder="mlp", n_in=35, f_out=6, d_model=4, latent=4, kernel_hidden=(4,)))
        checkpoint_save(model, tmp_path / "m.ckpt")
        assert main_in_process(monkeypatch, "eval", "--checkpoint", str(tmp_path / "m.ckpt"),
                               "--data", str(tmp_path / "data"),
                               "--out", str(tmp_path / "e")) == 0
        svg = (tmp_path / "e" / "overlay_0000.svg").read_text()
        assert "force, torque [N, N&#183;m]" in svg and "force [N]" not in svg
        assert "Tz truth" in svg

    def test_corrupt_checkpoint_exit_5(self, checkpoint, dataset_dir, tmp_path):
        bad = tmp_path / "bad.ckpt"
        blob = bytearray(checkpoint.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        bad.write_bytes(bytes(blob))
        r = run_cli("predict", "--checkpoint", str(bad),
                    "--data", str(dataset_dir), "--out", str(tmp_path / "p"))
        assert r.returncode == 5
        assert "corrupt" in r.stderr.lower()

    @pytest.mark.parametrize("key,value", [("x_mean", [0.0] * 5),
                                           ("x_std", [1.0, float("nan"), 1.0, 1.0])])
    def test_normalizer_that_does_not_fit_exit_5(self, checkpoint, dataset_dir, tmp_path,
                                                 key, value):
        model = checkpoint_load(checkpoint)
        setattr(model, key, np.array(value))
        bad = tmp_path / "bad.ckpt"
        checkpoint_save(model, bad)
        r = run_cli("predict", "--checkpoint", str(bad),
                    "--data", str(dataset_dir), "--out", str(tmp_path / "p"))
        assert r.returncode == 5
        assert "corrupt" in r.stderr.lower() and key in r.stderr

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_non_finite_weight_exit_5(self, checkpoint, dataset_dir, tmp_path, command):
        model = checkpoint_load(checkpoint)
        model.params["kernel.layer0.weight"].data[0, 0] = np.nan
        bad = tmp_path / "bad.ckpt"
        checkpoint_save(model, bad)
        r = run_cli(command, "--checkpoint", str(bad),
                    "--data", str(dataset_dir), "--out", str(tmp_path / "p"))
        assert r.returncode == 5
        assert "corrupt" in r.stderr.lower() and "kernel.layer0.weight" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "p").exists()

    def test_malformed_header_exit_5(self, checkpoint, dataset_dir, tmp_path,
                                     reseal_checkpoint):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(checkpoint.read_bytes())
        reseal_checkpoint(bad, lambda cfg: cfg.update(heads=0))
        r = run_cli("predict", "--checkpoint", str(bad),
                    "--data", str(dataset_dir), "--out", str(tmp_path / "p"))
        assert r.returncode == 5
        assert "corrupt" in r.stderr.lower() and "heads" in r.stderr
        assert "Traceback" not in r.stderr

    def test_empty_split_exit_2(self, checkpoint, dataset_dir, tmp_path):
        broken = edited_copy(dataset_dir, tmp_path, lambda m: m["splits"].update(test=[]))
        r = run_cli("eval", "--checkpoint", str(checkpoint), "--data", str(broken),
                    "--split", "test", "--out", str(tmp_path / "e"))
        assert r.returncode == 2
        assert "'test'" in r.stderr and "Traceback" not in r.stderr
        assert not (tmp_path / "e").exists()

    def test_missing_checkpoint_exit_3(self, dataset_dir, tmp_path):
        r = run_cli("predict", "--checkpoint", str(tmp_path / "none.ckpt"),
                    "--data", str(dataset_dir), "--out", str(tmp_path / "p"))
        assert r.returncode == 3

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_checkpoint_directory_exit_3(self, dataset_dir, tmp_path, command):
        r = run_cli(command, "--checkpoint", str(tmp_path), "--data", str(dataset_dir),
                    "--out", str(tmp_path / "p"))
        assert r.returncode == 3
        assert str(tmp_path) in r.stderr and "Traceback" not in r.stderr

    def test_model_data_dim_mismatch(self, checkpoint, tmp_path):
        out = tmp_path / "task2data"
        r = run_cli("gen-data", "--task", "2", "--trajectories", "12",
                    "--length", "40", "--out", str(out))
        assert r.returncode == 0, r.stderr
        r = run_cli("predict", "--checkpoint", str(checkpoint),
                    "--data", str(out), "--out", str(tmp_path / "p"))
        assert r.returncode == 2

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_condition_width_mismatch_exit_2(self, dataset_dir, tmp_path, monkeypatch,
                                             capsys, command):
        """The model's own width check, reached with an F0 of the right width."""
        model = models.build_model(models.ModelConfig(
            encoder="mlp", n_in=5, f_out=2, d_model=4, latent=4, kernel_hidden=(4,)))
        checkpoint_save(model, tmp_path / "m.ckpt")
        code = main_in_process(monkeypatch, command, "--checkpoint", str(tmp_path / "m.ckpt"),
                               "--data", str(dataset_dir), "--out", str(tmp_path / "p"))
        assert code == 2
        assert "condition dim 4 != configured n_in 5" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_non_finite_forecast_exit_4(self, checkpoint, dataset_dir, tmp_path, command):
        """Finite weights whose forecast overflows: exit 4, and nothing is written."""
        model = checkpoint_load(checkpoint)
        last = model.kernel_mlp.layers[-1]
        last.weight.data[:] = 1.5e308
        last.bias.data[:] = -1.5e308
        bad = tmp_path / "bad.ckpt"
        checkpoint_save(model, bad)
        out = tmp_path / "p"
        r = run_cli(command, "--checkpoint", str(bad), "--data", str(dataset_dir),
                    "--out", str(out))
        assert r.returncode == 4
        assert "the forecast of trajectory 0 is not finite" in r.stderr
        assert "Traceback" not in r.stderr
        assert not list(out.glob("pred_*.csv")) and not (out / "metrics.json").exists()


class TestBench:
    def test_smoke_task1(self, tmp_path):
        out = tmp_path / "bench"
        # generate a small dataset ahead of time is not supported through
        # the CLI; instead run the smallest budget against generated data
        r = run_cli("bench", "--suite", "task2", "--preset", "desk",
                    "--max-epochs", "1", "--seed", "0", "--out", str(out))
        assert r.returncode == 0, r.stderr
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 4  # header + MLP-ODE, Attention-ODE, LSTM
        assert lines[0].startswith("model,solver,task")
        payload = json.loads((out / "results.json").read_text())
        assert [row["model"] for row in payload["rows"]] == [
            "MLP-ODE", "Attention-ODE", "LSTM"]

    def test_out_is_a_file_exit_3(self, tmp_path):
        out = tmp_path / "file"
        out.write_text("kept")
        r = run_cli("bench", "--suite", "task1", "--max-epochs", "1", "--out", str(out))
        assert r.returncode == 3
        assert str(out) in r.stderr and "Traceback" not in r.stderr
        assert out.read_text() == "kept"


class TestGradcheck:
    def test_passes(self):
        r = run_cli("gradcheck", "--model", "attention-ode", "--steps", "5")
        assert r.returncode == 0, r.stderr
        assert r.stdout.startswith("PASS")

    def test_negative_control(self, monkeypatch, capsys):
        monkeypatch.setattr(autodiff, "grad_check", lambda *args, **kwargs: 1.0)
        code = main_in_process(monkeypatch, "gradcheck", "--model", "attention-ode",
                               "--steps", "5")
        assert code == 1
        assert capsys.readouterr().out.startswith("FAIL")

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_out_echoes_resolved_config(self, tmp_path, monkeypatch, capsys, source):
        monkeypatch.setattr(autodiff, "grad_check", lambda *args, **kwargs: 0.0)
        monkeypatch.delenv("HYDROFORECAST_OUT", raising=False)
        if source == "flag":
            out, argv = tmp_path / "g", ["--out", str(tmp_path / "g")]
        else:
            out, argv = tmp_path / "gradcheck", []
            monkeypatch.setenv("HYDROFORECAST_OUT", str(tmp_path))
        code = main_in_process(monkeypatch, "gradcheck", "--steps", "3", *argv)
        assert code == 0
        echo = json.loads((out / "resolved_config.json").read_text())
        assert echo["subcommand"] == "gradcheck" and echo["steps"] == 3
        assert echo["out"] == str(out) and echo["solver"] == "euler"

    def test_steps_out_of_range(self):
        r = run_cli("gradcheck", "--steps", "500")
        assert r.returncode == 2

    def test_unknown_solver_in_config_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"solver": "heun"}))
        r = run_cli("gradcheck", "--config", str(cfg))
        assert r.returncode == 2
        assert "--solver" in r.stderr and "Traceback" not in r.stderr

    def test_lstm_with_solver_rejected(self):
        r = run_cli("gradcheck", "--model", "lstm", "--solver", "rk4")
        assert r.returncode == 2
        assert "solver" in r.stderr

    def test_lstm_with_solver_in_config_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "lstm", "solver": "rk4", "steps": 2}))
        r = run_cli("gradcheck", "--config", str(cfg))
        assert r.returncode == 2
        assert "--solver" in r.stderr and "Traceback" not in r.stderr
        assert "PASS" not in r.stdout


class TestThreads:
    def test_sets_thread_variables_before_numpy_loads(self, tmp_path):
        script = (
            "import json, os, sys\n"
            "from hydroforecast import cli\n"
            "before = 'numpy' in sys.modules\n"
            f"code = cli.main(['gen-data', '--task', '1.1', '--trajectories', '12',"
            f" '--length', '5', '--threads', '2', '--out', {str(tmp_path / 'd')!r}])\n"
            "print(json.dumps({'numpy_before': before, 'code': code,"
            " 'env': [os.environ[v] for v in cli.THREAD_VARS]}))\n")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="7", OMP_NUM_THREADS="7",
                   MKL_NUM_THREADS="7")
        r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           env=env, timeout=600)
        assert r.returncode == 0, r.stderr
        result = json.loads(r.stdout.splitlines()[-1])
        assert result == {"numpy_before": False, "code": 0, "env": ["2", "2", "2"]}
        resolved = json.loads((tmp_path / "d" / "resolved_config.json").read_text())
        assert resolved["threads"] == 2

    def test_zero_threads_rejected(self, tmp_path):
        r = run_cli("gen-data", "--task", "1.1", "--threads", "0",
                    "--out", str(tmp_path / "d"))
        assert r.returncode == 2
        assert "--threads" in r.stderr


class TestUsage:
    def test_no_subcommand(self):
        r = run_cli()
        assert r.returncode == 2

    def test_unknown_flag(self):
        r = run_cli("gen-data", "--frobnicate")
        assert r.returncode == 2

    def test_help(self):
        r = run_cli("--help")
        assert r.returncode == 0
        for sub in ["gen-data", "train", "predict", "eval", "bench", "gradcheck"]:
            assert sub in r.stdout
