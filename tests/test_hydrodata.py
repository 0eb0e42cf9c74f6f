import dataclasses
import io
import json
import math
import os
import pickle
import zlib

import numpy as np
import pytest

from hydroforecast.hydrodata import (
    OracleParams,
    TowingCondition,
    UnstableStepError,
    _inject_noise,
    gen_task1,
    gen_task2,
    generate,
    load_dataset,
    save_dataset,
    simulate_measured_wrench,
    split_dataset,
    steady_wrench,
    task1_condition_grid,
)


def _npy_bytes(array, allow_pickle=False):
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=allow_pickle)
    return buf.getvalue()


def _npy_header(shape):
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": "<f8", "fortran_order": False, "shape": shape})
    return buf.getvalue()


class TestSteadyWrench:
    def test_zero_velocity_zero_wrench(self):
        from hydroforecast.hydrodata import steady_wrench
        w = steady_wrench(TowingCondition(q2=1.0, q3=0.5), OracleParams())
        assert np.all(w == 0.0)

    def test_neutral_pose_forward_tow(self):
        # body: -0.5*1000*1.1*0.10*0.5^2 = -13.75 N; four legs at area 0.01:
        # 4 * -0.5*1000*1.1*0.01*0.25 = -5.5 N; total -19.25 N along x
        from hydroforecast.hydrodata import steady_wrench
        cond = TowingCondition(q2=0.0, q3=0.0, v=np.array([0.5, 0.0, 0.0]))
        w = steady_wrench(cond, OracleParams())
        assert w[0] == pytest.approx(-19.25, abs=1e-12)
        assert np.all(np.abs(w[1:]) < 1e-12)

    def test_quadratic_speed_scaling(self):
        from hydroforecast.hydrodata import steady_wrench
        p = OracleParams()
        base = steady_wrench(TowingCondition(q2=0.7, q3=-0.4,
                                             v=np.array([0.2, 0.1, 0.0])), p)
        doubled = steady_wrench(TowingCondition(q2=0.7, q3=-0.4,
                                                v=np.array([0.4, 0.2, 0.0])), p)
        assert np.all(np.abs(doubled - 4.0 * base) < 1e-10)

    def test_drag_opposes_motion(self, rng):
        from hydroforecast.hydrodata import steady_wrench
        p = OracleParams()
        for _ in range(50):
            cond = TowingCondition(q2=rng.uniform(-2.6, 2.6),
                                   q3=rng.uniform(-2.6, 2.6),
                                   v=rng.uniform(-0.5, 0.5, 3))
            w = steady_wrench(cond, p)
            assert np.dot(w[:3], cond.v) <= 0.0

    def test_symmetric_pose_no_torque(self):
        # identical legs at mirrored lever arms with pure translation cancel
        from hydroforecast.hydrodata import steady_wrench
        w = steady_wrench(TowingCondition(q2=1.2, q3=0.3,
                                          v=np.array([0.3, 0.2, 0.0])),
                          OracleParams())
        assert np.all(np.abs(w[3:]) < 1e-12)

    def test_rotation_induces_torque(self):
        from hydroforecast.hydrodata import steady_wrench
        w = steady_wrench(TowingCondition(q2=0.0, q3=0.0,
                                          omega=np.array([0.0, 0.0, 1.0])),
                          OracleParams())
        assert abs(w[5]) > 1e-6

    def test_density_override(self):
        from hydroforecast.hydrodata import steady_wrench
        v = np.array([0.4, 0.0, 0.0])
        w_default = steady_wrench(TowingCondition(q2=0.0, q3=0.0, v=v), OracleParams())
        w_light = steady_wrench(TowingCondition(q2=0.0, q3=0.0, v=v, rho=500.0),
                                OracleParams())
        assert np.allclose(w_light, 0.5 * w_default, atol=1e-12)


def _steady_wrench_one_row(cond, p):
    """Scalar-math form of the oracle for one row, the reference for the array one."""
    rho = p.rho if cond.rho is None else cond.rho
    cd = np.asarray(p.cd)
    v, omega = np.asarray(cond.v), np.asarray(cond.omega)
    a0, a1, a2 = p.leg_area_coeffs
    q2 = np.broadcast_to(cond.q2, (len(p.lever_arms),))
    q3 = np.broadcast_to(cond.q3, (len(p.lever_arms),))
    force = -0.5 * rho * cd * np.asarray(p.body_area) * np.linalg.norm(v) * v
    torque = np.zeros(3)
    for k, arm in enumerate(p.lever_arms):
        r_k = np.asarray(arm)
        area_k = a0 + a1 * abs(math.sin(q2[k])) + a2 * abs(math.sin(q2[k] + q3[k]))
        v_k = v + np.cross(omega, r_k)
        f_k = -0.5 * rho * cd * area_k * np.linalg.norm(v_k) * v_k
        force = force + f_k
        torque = torque + np.cross(r_k, f_k)
    return np.concatenate([force, torque])


class TestBatchedOracle:
    """The array oracle against one-row references, bit for bit."""

    @pytest.mark.parametrize("shared_angle", [False, True], ids=["per_leg", "shared"])
    @pytest.mark.parametrize("row_rho", [False, True], ids=["param_rho", "row_rho"])
    def test_rows_equal_one_row_calls(self, rng, shared_angle, row_rho):
        shape = (7, 5)
        q2 = rng.uniform(-2.6, 2.6, shape + ((1,) if shared_angle else (4,)))
        q3 = rng.uniform(-2.6, 2.6, q2.shape)
        v = rng.uniform(-0.5, 0.5, shape + (3,))
        omega = rng.normal(0.0, 0.3, shape + (3,))
        rho = rng.uniform(950.0, 1050.0, shape) if row_rho else None
        p = OracleParams()
        batched = steady_wrench(TowingCondition(q2=q2, q3=q3, v=v, omega=omega, rho=rho), p)
        assert batched.shape == shape + (6,)
        for idx in np.ndindex(*shape):
            one = TowingCondition(q2=float(q2[idx][0]) if shared_angle else q2[idx],
                                  q3=float(q3[idx][0]) if shared_angle else q3[idx],
                                  v=v[idx], omega=omega[idx],
                                  rho=None if rho is None else float(rho[idx]))
            assert np.array_equal(batched[idx], steady_wrench(one, p)), idx
            assert np.array_equal(batched[idx], _steady_wrench_one_row(one, p)), idx

    @staticmethod
    def _row_by_row(ds):
        """The dataset's forces rebuilt with one TowingCondition per row."""
        p, records = ds.oracle, []
        for rec in ds.records:
            x = rec.conditions
            if ds.task == "2":
                conds = [TowingCondition(q2=r[1:12:3], q3=r[2:12:3], v=r[31:34],
                                         omega=r[28:31], rho=r[34]) for r in x]
            else:
                conds = [TowingCondition(q2=r[0], q3=r[1], v=np.array([r[2], r[3], 0.0]))
                         for r in x]
            w_init = np.zeros(6) if ds.task == "1.1" else None
            forces = simulate_measured_wrench(conds, p, dt=ds.dt, w_init=w_init)
            f0 = np.zeros(6) if w_init is not None else steady_wrench(conds[0], p)
            records.append(dataclasses.replace(rec, forces=forces[:, :ds.f], f0=f0[:ds.f]))
        ref = dataclasses.replace(ds, records=records)
        if ds.noise_fraction > 0:
            _inject_noise(ref, ds.seed)
        return ref

    @pytest.mark.parametrize("task,m,length", [("1.1", 6, 30), ("1.2", 6, 50),
                                               ("1.3", 8, 40), ("2", 3, 60)])
    def test_generate_equals_row_by_row_reference(self, task, m, length):
        ds = generate(task, seed=7, num_trajectories=m, length=length)
        ref = self._row_by_row(ds)
        for rec, want in zip(ds.records, ref.records):
            assert np.array_equal(rec.forces, want.forces)
            assert np.array_equal(rec.f0, want.f0)


class TestRelaxation:
    def test_steady_initial_state_is_fixed_point(self):
        from hydroforecast.hydrodata import steady_wrench
        p = OracleParams()
        cond = TowingCondition(q2=0.3, q3=0.1, v=np.array([0.4, 0.0, 0.0]))
        ss = steady_wrench(cond, p)
        out = simulate_measured_wrench([cond] * 20, p)
        assert np.all(np.abs(out - ss) < 1e-12)

    def test_step_response_time_constant(self):
        # from rest the response is W_ss (1 - exp(-t/tau)); at t = tau that
        # is 0.6321 of the steady value
        p = OracleParams()
        cond = TowingCondition(q2=0.0, q3=0.0, v=np.array([0.5, 0.0, 0.0]))
        from hydroforecast.hydrodata import steady_wrench
        ss = steady_wrench(cond, p)
        n = int(round(p.tau_relax / 0.02))
        out = simulate_measured_wrench([cond] * n, p, dt=0.02, w_init=np.zeros(6))
        frac = out[-1, 0] / ss[0]
        assert frac == pytest.approx(1.0 - np.exp(-1.0), abs=1e-4)

    def test_response_stays_between_bounds(self):
        p = OracleParams()
        cond = TowingCondition(q2=0.0, q3=0.0, v=np.array([0.5, 0.0, 0.0]))
        out = simulate_measured_wrench([cond] * 50, p, w_init=np.zeros(6))
        # monotone approach toward a negative steady force, never overshooting
        fx = out[:, 0]
        assert np.all(np.diff(fx) < 0)
        from hydroforecast.hydrodata import steady_wrench
        assert np.all(fx >= steady_wrench(cond, p)[0] - 1e-12)


class TestConditionGrid:
    def test_grid_size_and_coverage(self):
        grid = task1_condition_grid()
        assert len(grid) == 192
        speeds = {round(float(np.hypot(g["input"][2], g["input"][3])), 10) for g in grid}
        assert speeds == {0.2, 0.3, 0.4, 0.5}
        assert {g["direction"] for g in grid} == {"X", "Y", "XY"}

    def test_joint_range(self):
        grid = task1_condition_grid()
        q = np.array([g["input"][:2] for g in grid])
        assert q.min() == -2.6 and q.max() == 2.6


class TestTask1:
    def test_static_shapes(self):
        ds = gen_task1("static", num_conditions=6)
        assert ds.num_trajectories == 6
        assert ds.records[0].conditions.shape == (100, 4)
        assert ds.records[0].forces.shape == (100, 2)
        assert ds.records[0].f0.shape == (2,)
        assert np.all(ds.records[0].f0 == 0.0)  # towed from rest

    def test_static_conditions_constant(self):
        ds = gen_task1("static", num_conditions=3)
        for rec in ds.records:
            assert np.all(rec.conditions == rec.conditions[0])

    def test_switching_segment_structure(self):
        ds = gen_task1("switching", num_conditions=4, length=50)
        for rec in ds.records:
            ids = rec.condition_ids
            segs = ids.reshape(5, 10)
            assert np.all(segs == segs[:, :1])       # constant within a segment
            assert len(set(segs[:, 0])) == 5         # distinct across segments

    def test_switching_f0_matches_first_segment(self):
        from hydroforecast.hydrodata import steady_wrench
        ds = gen_task1("switching", num_conditions=3, length=50)
        grid = task1_condition_grid()
        for rec in ds.records:
            ss = steady_wrench(grid[rec.condition_ids[0]]["cond"], ds.oracle)
            assert np.allclose(rec.f0, ss[:2], atol=1e-12)

    def test_noise_magnitude(self):
        clean = gen_task1("switching", num_conditions=48, length=50, seed=5)
        noisy = gen_task1("noisy", num_conditions=48, length=50, seed=5)
        resid = np.concatenate([n.forces - c.forces
                                for n, c in zip(noisy.records, clean.records)])
        sigma_clean = np.concatenate([c.forces for c in clean.records]).std(axis=0)
        ratio = resid.std(axis=0) / (0.1 * sigma_clean)
        assert np.all(np.abs(ratio - 1.0) < 0.1)
        assert np.abs(resid.mean()) < 0.05 * sigma_clean.max()

    def test_regeneration_is_identical(self):
        a = gen_task1("noisy", num_conditions=5, length=50, seed=11)
        b = gen_task1("noisy", num_conditions=5, length=50, seed=11)
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.forces, rb.forces)
            assert np.array_equal(ra.conditions, rb.conditions)

    def test_seed_changes_switching(self):
        a = gen_task1("switching", num_conditions=5, length=50, seed=0)
        b = gen_task1("switching", num_conditions=5, length=50, seed=1)
        assert any(not np.array_equal(ra.condition_ids, rb.condition_ids)
                   for ra, rb in zip(a.records, b.records))

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            gen_task1("wavy")

    def test_bad_length(self):
        with pytest.raises(ValueError):
            gen_task1("switching", num_conditions=2, length=55)


class TestTask2:
    def test_shapes_and_structure(self):
        ds = gen_task2(num_trajectories=2, length=400)
        rec = ds.records[0]
        assert rec.conditions.shape == (400, 35)
        assert rec.forces.shape == (400, 6)
        assert rec.f0.shape == (6,)
        assert len(np.unique(rec.condition_ids)) == 40

    def test_no_trajectories_rejected(self):
        with pytest.raises(ValueError, match="at least one trajectory"):
            gen_task2(num_trajectories=0, length=40)

    def test_quaternion_is_unit(self):
        ds = gen_task2(num_trajectories=2, length=100)
        quat = ds.records[0].conditions[:, 24:28]
        assert np.all(np.abs(np.linalg.norm(quat, axis=1) - 1.0) < 1e-12)

    def test_density_column_constant_in_range(self):
        ds = gen_task2(num_trajectories=4, length=100)
        for rec in ds.records:
            dens = rec.conditions[:, 34]
            assert np.all(dens == dens[0])
            assert 950.0 <= dens[0] <= 1050.0

    def test_velocity_piecewise_constant(self):
        ds = gen_task2(num_trajectories=1, length=100)
        v = ds.records[0].conditions[:, 31:34].reshape(10, 10, 3)
        assert np.all(v == v[:, :1])

    def test_joint_velocity_consistent_with_position(self):
        ds = gen_task2(num_trajectories=1, length=200)
        rec = ds.records[0]
        pos, vel = rec.conditions[:, :12], rec.conditions[:, 12:24]
        fd = np.gradient(pos, 0.02, axis=0)
        # central differences of a sinusoid track the analytic derivative
        err = np.abs(fd[2:-2] - vel[2:-2]).max()
        assert err < 0.05 * np.abs(vel).max()


class TestGenerateDispatch:
    @pytest.mark.parametrize("task,n,f", [("1.1", 4, 2), ("1.2", 4, 2),
                                          ("1.3", 4, 2), ("2", 35, 6)])
    def test_dims(self, task, n, f):
        ds = generate(task, num_trajectories=2, length=50 if task != "2" else 40)
        assert (ds.n, ds.f) == (n, f)
        assert ds.task == task

    def test_unknown_task(self):
        with pytest.raises(ValueError):
            generate("3")

    @pytest.mark.parametrize("task", ["1.1", "2"])
    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), -float("inf"), 0.0, -0.1])
    def test_dt_not_finite_positive(self, task, dt):
        with pytest.raises(ValueError, match="dt must be a finite number above 0"):
            generate(task, num_trajectories=2, length=5, dt=dt)

    @pytest.mark.parametrize("task", ["1.2", "2"])
    def test_dt_beyond_relaxation_stability_limit(self, task):
        """The sensor relaxation's RK4 substeps are stable up to dt 2.228 at
        tau_relax 0.2: there the forces stay below 30 N. Just beyond it they
        grow huge but finite (about 1e28 N at dt 2.25), so such a dt is refused."""
        ds = generate(task, num_trajectories=2, length=40, dt=2.228)
        assert max(np.abs(r.forces).max() for r in ds.records) < 100
        with pytest.raises(UnstableStepError, match=r"dt 2\.25 is above 2\.228"):
            generate(task, num_trajectories=2, length=40, dt=2.25)

    @pytest.mark.parametrize("task", ["1.1", "1.2", "2"])
    @pytest.mark.parametrize("name", ["num_trajectories", "length"])
    @pytest.mark.parametrize("count", [0, -3])
    def test_count_below_one(self, task, name, count):
        """0 is a count, not "use the default"."""
        kwargs = {"num_trajectories": 2, "length": 50 if task != "2" else 40, name: count}
        with pytest.raises(ValueError, match=f"{name} must be at least 1, got {count}"):
            generate(task, **kwargs)


class TestSplit:
    def test_sizes_and_disjoint(self):
        ds = gen_task1("static", num_conditions=192)
        train, val, test, assignment = split_dataset(ds, seed=0)
        assert (train.num_trajectories, val.num_trajectories,
                test.num_trajectories) == (154, 19, 19)
        all_ids = assignment["train"] + assignment["val"] + assignment["test"]
        assert sorted(all_ids) == list(range(192))

    def test_every_split_has_every_direction(self):
        ds = gen_task1("static", num_conditions=192)
        _, _, _, assignment = split_dataset(ds, seed=3)
        for ids in assignment.values():
            assert {ds.records[i].direction for i in ids} == {"X", "Y", "XY"}

    def test_deterministic(self):
        ds = gen_task1("static", num_conditions=48)
        _, _, _, a1 = split_dataset(ds, seed=5)
        _, _, _, a2 = split_dataset(ds, seed=5)
        assert a1 == a2

    def test_too_few_trajectories(self):
        ds = gen_task1("static", num_conditions=4)
        with pytest.raises(ValueError):
            split_dataset(ds)

    def test_bad_ratios(self):
        ds = gen_task1("static", num_conditions=48)
        with pytest.raises(ValueError):
            split_dataset(ds, ratios=(0.5, 0.2, 0.2))


class TestDiskFormat:
    def test_round_trip(self, tmp_path):
        ds = gen_task1("noisy", num_conditions=4, length=50, seed=2)
        save_dataset(ds, tmp_path)
        loaded = load_dataset(tmp_path)
        assert loaded.task == ds.task and loaded.length == ds.length
        for ra, rb in zip(ds.records, loaded.records):
            assert np.allclose(ra.forces, rb.forces, rtol=0, atol=0)
            assert np.allclose(ra.conditions, rb.conditions, rtol=0, atol=0)
            assert np.array_equal(ra.condition_ids, rb.condition_ids)
            assert ra.direction == rb.direction

    def test_save_deterministic_bytes(self, tmp_path):
        ds = gen_task1("static", num_conditions=3, seed=4)
        save_dataset(ds, tmp_path / "a")
        save_dataset(ds, tmp_path / "b")
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_table_layout(self, tmp_path):
        ds = gen_task1("switching", num_conditions=2)
        save_dataset(ds, tmp_path)
        (path,) = tmp_path.glob("trajectories_*.npy")
        table = np.load(path, allow_pickle=False)
        assert path.name == f"trajectories_{zlib.crc32(table):08x}.npy"
        assert json.loads((tmp_path / "manifest.json").read_text())["table"] == path.name
        assert table.dtype == np.float64 and table.shape == (2, ds.length, 2 + ds.n + ds.f)
        for rec, rows in zip(ds.records, table):
            assert np.array_equal(rows[:, 0], rec.times)
            assert np.array_equal(rows[:, 1:1 + ds.n], rec.conditions)
            assert np.array_equal(rows[:, 1 + ds.n:-1], rec.forces)
            assert np.array_equal(rows[:, -1], rec.condition_ids)

    def test_loaded_records_view_one_table(self, tmp_path):
        """A load holds the table once: each record's conditions and forces are
        views of it, and only times is a (contiguous) copy."""
        ds = gen_task1("switching", num_conditions=3)
        save_dataset(ds, tmp_path)
        loaded = load_dataset(tmp_path)
        table = loaded.records[0].forces.base  # the array that owns the table's data
        assert table.nbytes == 3 * ds.length * (2 + ds.n + ds.f) * 8
        for rec in loaded.records:
            assert rec.forces.base is table and rec.conditions.base is table
            assert rec.times.flags.c_contiguous and not np.shares_memory(rec.times, table)

    def test_manifest_holds_f0_and_directions(self, tmp_path):
        ds = gen_task1("switching", num_conditions=3)
        save_dataset(ds, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["f0"] == [list(r.f0) for r in ds.records]
        assert manifest["directions"] == [r.direction for r in ds.records]
        save_dataset(gen_task2(num_trajectories=1, length=40), tmp_path)
        assert json.loads((tmp_path / "manifest.json").read_text())["directions"] is None
        assert load_dataset(tmp_path).records[0].direction is None

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path)

    def test_missing_trajectory_file(self, tmp_path):
        ds = gen_task1("static", num_conditions=2)
        save_dataset(ds, tmp_path)
        (path,) = tmp_path.glob("trajectories_*.npy")
        path.unlink()
        with pytest.raises(FileNotFoundError, match=path.name):
            load_dataset(tmp_path)

    def test_non_numeric_cell_rejected(self, tmp_path, reseal_table):
        save_dataset(gen_task1("static", num_conditions=2, length=5), tmp_path)

        def garbage(body, table):
            cells = table.astype(str)
            cells[1, 1, 3] = "garbage"
            return _npy_bytes(cells)

        path = reseal_table(tmp_path, garbage)
        with pytest.raises(ValueError, match=path.name):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("edit", [
        lambda b, a: b"",
        lambda b, a: b[:-8],
        lambda b, a: b[:40],
        lambda b, a: b"t,x_0,x_1,x_2,x_3,F_0,F_1,cond_id\n0.02,1,2,3,4,5,6,0\n",
        lambda b, a: _npy_bytes(a.astype(np.float32)),
        lambda b, a: _npy_bytes(a.astype(np.int64)),
        lambda b, a: _npy_bytes(a.reshape(-1, a.shape[-1])),
        lambda b, a: _npy_bytes(a[None]),
        lambda b, a: _npy_header((10**12,) + a.shape[1:]) + a.tobytes(),
    ], ids=["empty", "truncated_data", "truncated_header", "csv", "float32", "int64",
            "1d", "3d", "huge_shape"])
    def test_unreadable_trajectory_file_rejected(self, tmp_path, reseal_table, edit):
        save_dataset(gen_task1("static", num_conditions=2, length=5), tmp_path)
        path = reseal_table(tmp_path, edit)
        with pytest.raises(ValueError, match=path.name):
            load_dataset(tmp_path)

    def test_object_array_refused_without_unpickling(self, tmp_path, monkeypatch,
                                                     reseal_table):
        save_dataset(gen_task1("static", num_conditions=2, length=5), tmp_path)
        path = reseal_table(tmp_path,
                            lambda b, a: _npy_bytes(a.astype(object), allow_pickle=True))

        def unpickle(*args, **kwargs):
            raise AssertionError("load_dataset unpickled a trajectory file")

        monkeypatch.setattr(pickle, "load", unpickle)
        monkeypatch.setattr(pickle, "loads", unpickle)
        with pytest.raises(ValueError, match=path.name):
            load_dataset(tmp_path)

    def test_flipped_byte_rejected(self, tmp_path):
        save_dataset(gen_task1("static", num_conditions=2, length=5), tmp_path)
        (path,) = tmp_path.glob("trajectories_*.npy")
        body = bytearray(path.read_bytes())
        body[-np.load(path).nbytes] ^= 1  # the lowest bit of the first t
        path.write_bytes(bytes(body))
        with pytest.raises(ValueError, match=f"{path.name}.*CRC32"):
            load_dataset(tmp_path)

    def test_fractional_cond_id_rejected(self, tmp_path, reseal_table):
        save_dataset(gen_task1("static", num_conditions=2, length=5), tmp_path)

        def fractional(body, table):
            table[1, 0, -1] = 3.7
            return _npy_bytes(table)

        path = reseal_table(tmp_path, fractional)
        with pytest.raises(ValueError, match=f"{path.name}.*not an integer"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("f0", ["garbage", {"x": 1.0}, [[1.0, 2.0]], [[1.0, 2.0, 3.0]] * 2,
                                    [[1.0, 2.0], [1.0, float("nan")]], [[1.0, 2.0], [1.0]]],
                             ids=["text", "object", "matrix", "three_values", "nan", "ragged"])
    def test_malformed_manifest_f0_rejected(self, tmp_path, f0):
        save_dataset(gen_task1("static", num_conditions=2, length=5), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["f0"] = f0
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="manifest.json"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("edit", [
        {"n": "4"}, {"n": 4.0}, {"n": True}, {"f": None}, {"L": 0},
        {"num_trajectories": -2}, {"dt": "x"}, {"dt": None}, {"dt": -1}, {"dt": 0},
        {"dt": float("nan")}, {"dt": float("inf")}, {"dt": True},
        {"table": {"file": "trajectories_00000000.npy"}}, {"table": "../x.npy"},
        {"table": 7}, {"table": "trajectories_0000000g.npy"}, {"directions": "XYX"},
        {"directions": ["X"]}, {"directions": [1, 2]}, {"oracle_params": None},
        {"oracle_params": {**OracleParams().to_dict(), "cd": 5}},
        {"oracle_params": {**OracleParams().to_dict(), "rho": "x"}},
        {"oracle_params": {**OracleParams().to_dict(), "rho": -1.0}},
        {"oracle_params": {}}, "list"],
        ids=["n_text", "n_float", "n_bool", "f_null", "L_zero", "count_negative", "dt_text",
             "dt_null", "dt_negative", "dt_zero", "dt_nan", "dt_inf", "dt_bool",
             "table_object", "table_traversal", "table_number", "table_not_hex",
             "directions_text", "directions_short", "directions_numbers", "oracle_null",
             "oracle_cd_number", "oracle_rho_text", "oracle_rho_negative", "oracle_empty",
             "list"])
    def test_malformed_manifest_scalar_rejected(self, tmp_path, edit):
        save_dataset(gen_task1("static", num_conditions=2, length=5), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        if edit == "list":
            manifest = [manifest]
        else:
            manifest.update(edit)
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="manifest.json"):
            load_dataset(tmp_path)

    def test_length_one_round_trip(self, tmp_path):
        ds = generate("1.1", num_trajectories=1, length=1)
        save_dataset(ds, tmp_path)
        rec, loaded = ds.records[0], load_dataset(tmp_path).records[0]
        assert np.array_equal(loaded.conditions, rec.conditions)
        assert np.array_equal(loaded.forces, rec.forces)
        assert np.array_equal(loaded.condition_ids, rec.condition_ids)

    @pytest.mark.parametrize("cut", ["table", "manifest"])
    def test_cut_save_keeps_old_dataset(self, tmp_path, monkeypatch, cut):
        old = generate("1.1", seed=1, num_trajectories=3, length=10)
        save_dataset(old, tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        real = os.replace

        def failing(src, dst):  # the write went through; the rename that ends it fails
            if str(dst).endswith(".npy" if cut == "table" else "manifest.json"):
                raise OSError("disk full")
            real(src, dst)

        monkeypatch.setattr(os, "replace", failing)
        with pytest.raises(OSError):
            save_dataset(generate("1.1", seed=2, num_trajectories=4, length=10), tmp_path)
        monkeypatch.undo()
        for name, body in before.items():
            assert (tmp_path / name).read_bytes() == body
        loaded = load_dataset(tmp_path)
        assert loaded.num_trajectories == 3
        for ra, rb in zip(old.records, loaded.records):
            for name in ("times", "conditions", "forces", "f0", "condition_ids"):
                assert getattr(ra, name).tobytes() == getattr(rb, name).tobytes()

    def test_non_finite_table_refused_before_writing(self, tmp_path):
        old = generate("1.1", seed=1, num_trajectories=3, length=10)
        save_dataset(old, tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        new = generate("1.1", seed=2, num_trajectories=4, length=10)
        new.records[2].forces[5, 1] = np.nan
        with pytest.raises(ValueError, match="is not a finite float64 4x10x8 array"):
            save_dataset(new, tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        loaded = load_dataset(tmp_path)
        assert loaded.num_trajectories == 3
        assert loaded.records[0].forces.tobytes() == old.records[0].forces.tobytes()
        with pytest.raises(ValueError, match="not a finite"):
            save_dataset(new, tmp_path / "fresh")
        assert not (tmp_path / "fresh").exists()

    def test_save_over_old_dataset_leaves_one_table(self, tmp_path):
        save_dataset(generate("1.1", seed=1, num_trajectories=3, length=10), tmp_path)
        new = generate("1.1", seed=2, num_trajectories=4, length=10)
        (tmp_path / "other.txt").write_text("kept")
        save_dataset(new, tmp_path)
        assert len(list(tmp_path.glob("trajectories_*.npy"))) == 1
        assert (tmp_path / "other.txt").read_text() == "kept"
        assert load_dataset(tmp_path).num_trajectories == 4

    def test_splits_persist(self, tmp_path):
        ds = gen_task1("static", num_conditions=48)
        _, _, _, assignment = split_dataset(ds, seed=0)
        ds.splits = assignment
        save_dataset(ds, tmp_path)
        assert load_dataset(tmp_path).splits == assignment
