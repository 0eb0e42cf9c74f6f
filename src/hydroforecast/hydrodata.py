"""Synthetic towing-tank oracle and dataset factory.

The oracle is quasi-static quadratic drag on the robot body plus four legs
whose effective area depends on the second and third joint angles, relaxed
through a first-order sensor lag so the measured wrench has genuine ODE
structure. Datasets mirror the towing protocol: a 4 speeds x 3 directions
x 16 joint-config grid (192 conditions), segment-switching variants, and
10%-of-std Gaussian noise injection.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import DEFAULT_DT
from .fileio import atomic_write

NOISE_FRACTION = 0.1  # Task 1.3's and Task 2's Gaussian noise, as a fraction of each axis's std
SPEEDS = (0.2, 0.3, 0.4, 0.5)
DIRECTIONS = (("X", (1.0, 0.0)),
              ("Y", (0.0, 1.0)),
              ("XY", (math.cos(math.pi / 4), math.sin(math.pi / 4))))
JOINT_LIMIT = 2.6
JOINT_GRID_SIZE = 4
SEGMENT_LEN = 10
RELAX_SUBSTEPS = 4  # RK4 substeps per sample period of the sensor relaxation
RK4_STABLE_STEP = 2.785293563405282
"""The largest ``h / tau`` at which an RK4 substep does not amplify the
relaxation ``dw/dt = (s - w) / tau``: the real root of
``1 - z + z^2/2 - z^3/6 + z^4/24 = 1``. Beyond it the forces grow without
bound, finite for a while (dt 2.3 gives 1e92 N at ``tau_relax`` 0.2)."""


class UnstableStepError(ValueError):
    """A sample period at which the sensor relaxation's RK4 substeps diverge."""


@dataclass(frozen=True)
class OracleParams:
    rho: float = 1000.0
    cd: tuple[float, float, float] = (1.1, 1.3, 0.9)
    body_area: tuple[float, float, float] = (0.10, 0.25, 0.30)
    leg_area_coeffs: tuple[float, float, float] = (0.01, 0.008, 0.006)
    lever_arms: tuple[tuple[float, float, float], ...] = (
        (0.3, 0.2, 0.0), (0.3, -0.2, 0.0), (-0.3, 0.2, 0.0), (-0.3, -0.2, 0.0))
    tau_relax: float = 0.2

    def __post_init__(self):
        if self.rho <= 0 or self.tau_relax <= 0:
            raise ValueError("rho and tau_relax must be positive")
        if any(a < 0 for a in self.body_area) or self.leg_area_coeffs[0] < 0:
            raise ValueError("areas must be nonnegative")

    @classmethod
    def from_dict(cls, d: dict) -> "OracleParams":
        return cls(rho=d["rho"], cd=tuple(d["cd"]), body_area=tuple(d["body_area"]),
                   leg_area_coeffs=tuple(d["leg_area_coeffs"]),
                   lever_arms=tuple(tuple(r) for r in d["lever_arms"]),
                   tau_relax=d["tau_relax"])


@dataclass
class TowingCondition:
    """Towing conditions along leading row axes: ``v`` and ``omega`` are ``[..., 3]``,
    ``q2`` and ``q3`` broadcast to ``[..., legs]`` (a scalar is shared by every leg),
    and ``rho``, a scalar or ``[...]``, overrides ``OracleParams.rho`` when set."""
    q2: np.ndarray | float
    q3: np.ndarray | float
    v: np.ndarray = field(default_factory=lambda: np.zeros(3))
    omega: np.ndarray = field(default_factory=lambda: np.zeros(3))
    rho: np.ndarray | float | None = None


def _row_norm(x: np.ndarray) -> np.ndarray:
    """Norm over the last axis, rounded as ``np.linalg.norm`` rounds one row."""
    return np.sqrt(np.matmul(x[..., None, :], x[..., :, None]))[..., 0]


def steady_wrench(cond: TowingCondition, p: OracleParams) -> np.ndarray:
    """Quasi-static drag wrench (Fx, Fy, Fz, Tx, Ty, Tz) in SI units, ``[..., 6]``.

    Each row equals the one-row call on that row's condition bit for bit.
    """
    rho = np.asarray(p.rho if cond.rho is None else cond.rho, dtype=np.float64)[..., None]
    cd = np.asarray(p.cd)
    v = np.asarray(cond.v, dtype=np.float64)
    omega = np.asarray(cond.omega, dtype=np.float64)
    a0, a1, a2 = p.leg_area_coeffs
    q2, q3 = (np.atleast_1d(np.asarray(q, dtype=np.float64)) for q in (cond.q2, cond.q3))
    area = a0 + a1 * np.abs(np.sin(q2)) + a2 * np.abs(np.sin(q2 + q3))
    area = np.broadcast_to(area, area.shape[:-1] + (len(p.lever_arms),))
    force = -0.5 * rho * cd * np.asarray(p.body_area) * _row_norm(v) * v
    torque = np.zeros(3)
    for k, arm in enumerate(p.lever_arms):
        r_k = np.asarray(arm)
        v_k = v + np.cross(omega, r_k)
        f_k = -0.5 * rho * cd * area[..., k, None] * _row_norm(v_k) * v_k
        force = force + f_k
        torque = torque + np.cross(r_k, f_k)
    return np.concatenate([force, torque], axis=-1)


def _relax(targets: np.ndarray, w_init: np.ndarray, dt: float, tau: float) -> np.ndarray:
    """``simulate_measured_wrench`` on ``[..., L, 6]`` targets and ``[..., 6]`` w_init."""
    w = np.asarray(w_init, dtype=np.float64)
    h = dt / RELAX_SUBSTEPS
    out = np.empty_like(targets)
    for i in range(targets.shape[-2]):
        ss = targets[..., i, :]
        for _ in range(RELAX_SUBSTEPS):
            k1 = (ss - w) / tau
            k2 = (ss - (w + 0.5 * h * k1)) / tau
            k3 = (ss - (w + 0.5 * h * k2)) / tau
            k4 = (ss - (w + h * k3)) / tau
            w = w + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        out[..., i, :] = w
    return out


def simulate_measured_wrench(conditions: list[TowingCondition], p: OracleParams,
                             dt: float = DEFAULT_DT,
                             w_init: np.ndarray | None = None) -> np.ndarray:
    """First-order sensor relaxation toward the steady wrench, RK4-integrated.

    Row i is the measured wrench after relaxing over one sample period with
    the i-th condition zero-order held. ``w_init`` defaults to the steady
    wrench of the first condition.
    """
    targets = np.stack([steady_wrench(c, p) for c in conditions])
    return _relax(targets, targets[0] if w_init is None else w_init, dt, p.tau_relax)


# ---- dataset containers --------------------------------------------------


@dataclass
class TrajectoryRecord:
    times: np.ndarray          # [L]
    conditions: np.ndarray     # [L, n]
    forces: np.ndarray         # [L, f]
    f0: np.ndarray             # [f]
    condition_ids: np.ndarray  # [L] int
    direction: str | None = None


@dataclass
class TrajectoryDataset:
    task: str
    variant: str
    n: int
    f: int
    length: int
    dt: float
    seed: int
    noise_fraction: float
    oracle: OracleParams
    records: list[TrajectoryRecord]
    splits: dict[str, list[int]] | None = None

    @property
    def num_trajectories(self) -> int:
        return len(self.records)

    def stack(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(X [M, L, n], F [M, L, f], F0 [M, f])."""
        x = np.stack([r.conditions for r in self.records])
        fr = np.stack([r.forces for r in self.records])
        f0 = np.stack([r.f0 for r in self.records])
        return x, fr, f0

    def subset(self, ids: list[int]) -> "TrajectoryDataset":
        return dataclasses.replace(self, records=[self.records[i] for i in ids], splits=None)


# ---- condition grid ------------------------------------------------------


def task1_condition_grid() -> list[dict]:
    """192 towing conditions: 4 speeds x 3 directions x 16 joint configs."""
    joints = np.linspace(-JOINT_LIMIT, JOINT_LIMIT, JOINT_GRID_SIZE)
    grid = []
    for speed in SPEEDS:
        for dir_name, (dx, dy) in DIRECTIONS:
            for q2 in joints:
                for q3 in joints:
                    vx, vy = speed * dx, speed * dy
                    grid.append({
                        "input": np.array([q2, q3, vx, vy]),
                        "cond": TowingCondition(q2=q2, q3=q3, v=np.array([vx, vy, 0.0])),
                        "direction": dir_name,
                    })
    return grid


def _traj_rng(seed: int, index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, index, stream])


def gen_task1(variant: str, num_conditions: int = 192, length: int | None = None,
              dt: float = DEFAULT_DT, seed: int = 0) -> TrajectoryDataset:
    """Task 1 datasets: static conditions, switching segments, or noisy switching."""
    if variant not in ("static", "switching", "noisy"):
        raise ValueError(f"unknown task 1 variant {variant!r}")
    p = OracleParams()
    grid = task1_condition_grid()
    if not 1 <= num_conditions <= len(grid):
        raise ValueError(f"num_conditions must be in [1, {len(grid)}]")
    if length is None:
        length = 100 if variant == "static" else 50
    if variant != "static" and length % SEGMENT_LEN != 0:
        raise ValueError(f"switching length must be a multiple of {SEGMENT_LEN}")
    inputs = np.stack([g["input"] for g in grid])  # q2, q3, vx, vy
    steady = steady_wrench(TowingCondition(q2=inputs[:, :1], q3=inputs[:, 1:2],
                                           v=np.stack([g["cond"].v for g in grid])), p)
    if variant == "static":
        cond_ids = np.repeat(np.arange(num_conditions)[:, None], length, axis=1)
        w_init = np.zeros((num_conditions, 6))  # towed from rest: the transient is the signal
    else:
        seg_ids = np.stack([_traj_rng(seed, j, 0).choice(len(grid), size=length // SEGMENT_LEN,
                                                          replace=False)
                            for j in range(num_conditions)])
        cond_ids = np.repeat(seg_ids, SEGMENT_LEN, axis=1)
        w_init = steady[cond_ids[:, 0]]
    forces6 = _relax(steady[cond_ids], w_init, dt, p.tau_relax)
    records = [TrajectoryRecord(times=dt * np.arange(1, length + 1), conditions=inputs[ids],
                                forces=forces6[j, :, :2], f0=w_init[j, :2],
                                condition_ids=ids, direction=grid[ids[0]]["direction"])
               for j, ids in enumerate(cond_ids)]
    ds = TrajectoryDataset(task="1." + {"static": "1", "switching": "2", "noisy": "3"}[variant],
                           variant=variant, n=4, f=2, length=length, dt=dt, seed=seed,
                           noise_fraction=NOISE_FRACTION if variant == "noisy" else 0.0,
                           oracle=p, records=records)
    if variant == "noisy":
        _inject_noise(ds, seed)
    return ds


def _inject_noise(ds: TrajectoryDataset, seed: int) -> None:
    sigma = np.std(np.concatenate([r.forces for r in ds.records], axis=0), axis=0)
    for j, rec in enumerate(ds.records):
        rng = _traj_rng(seed, j, 1)
        rec.forces = rec.forces + rng.normal(0.0, NOISE_FRACTION * sigma, rec.forces.shape)


def gen_task2(num_trajectories: int = 24, length: int = 400, dt: float = DEFAULT_DT,
              seed: int = 0) -> TrajectoryDataset:
    """Task 2: 35-dim kinematic conditions, 6-dim wrench, segment-switched speed."""
    if length < 40:
        raise ValueError("task 2 length must be >= 40")
    if length % SEGMENT_LEN != 0:
        raise ValueError(f"task 2 length must be a multiple of {SEGMENT_LEN}")
    if num_trajectories < 1:
        raise ValueError("task 2 needs at least one trajectory")
    p = OracleParams()
    num_segments = length // SEGMENT_LEN
    draws = []
    for j in range(num_trajectories):
        rng = _traj_rng(seed, j, 2)
        draws.append((rng.uniform(0.6, 1.2), rng.uniform(0.7, 1.3),
                      rng.normal(0.0, 0.05 * math.sqrt(dt), (length, 3)),
                      rng.uniform(0.2, 0.5, num_segments),
                      rng.uniform(0.0, 2 * math.pi, num_segments),
                      rng.uniform(-0.05, 0.05, num_segments), rng.uniform(950.0, 1050.0)))
    freq, amp_scale, steps_noise, seg_speed, seg_angle, seg_vz, density = (
        np.array(d) for d in zip(*draws))
    times = dt * np.arange(1, length + 1)

    # sinusoidal gait: 4 legs x (hip, thigh, calf), per-leg phase offsets
    phases = (np.array([0.0, math.pi, math.pi / 2, 3 * math.pi / 2])[:, None]
              + np.arange(3) * 0.3).ravel()
    amps = np.tile(np.array([0.2, 0.4, 0.4]) * amp_scale[:, None], 4)[:, None]
    ang = (2 * math.pi * freq)[:, None, None]
    joint_pos = np.tile([0.0, 0.6, -1.2], 4) + amps * np.sin(ang * times[:, None] + phases)
    joint_vel = amps * ang * np.cos(ang * times[:, None] + phases)

    # small damped random walk for angular velocity, and a unit quaternion
    # integrated from it
    omega = np.empty((num_trajectories, length, 3))
    quat = np.empty((num_trajectories, length, 4))
    w = np.zeros((num_trajectories, 3))
    q = np.tile([1.0, 0.0, 0.0, 0.0], (num_trajectories, 1))
    for i in range(length):
        w = 0.98 * w + steps_noise[:, i]
        (wx, wy, wz), (q0, q1, q2, q3) = w.T, q.T
        dq = 0.5 * np.stack([-q1 * wx - q2 * wy - q3 * wz, q0 * wx + q2 * wz - q3 * wy,
                             q0 * wy - q1 * wz + q3 * wx, q0 * wz + q1 * wy - q2 * wx], axis=-1)
        q = q + dt * dq
        q = q / _row_norm(q)
        omega[:, i], quat[:, i] = w, q

    # piecewise-constant linear velocity, one draw per 10-step segment
    cond_ids = np.repeat(np.arange(num_segments), SEGMENT_LEN)
    lin_vel = np.stack([seg_speed * np.cos(seg_angle), seg_speed * np.sin(seg_angle), seg_vz],
                       axis=-1)[:, cond_ids]
    dens_col = np.broadcast_to(density[:, None, None], (num_trajectories, length, 1))
    inputs = np.concatenate([joint_pos, joint_vel, quat, omega, lin_vel, dens_col], axis=-1)
    targets = steady_wrench(TowingCondition(q2=joint_pos[..., 1::3], q3=joint_pos[..., 2::3],
                                            v=lin_vel, omega=omega, rho=density[:, None]), p)
    forces = _relax(targets, targets[:, 0], dt, p.tau_relax)
    records = [TrajectoryRecord(times=times, conditions=x, forces=fr, f0=fr0,
                                condition_ids=cond_ids)
               for x, fr, fr0 in zip(inputs, forces, targets[:, 0])]
    ds = TrajectoryDataset(task="2", variant="task2", n=35, f=6, length=length, dt=dt,
                           seed=seed, noise_fraction=NOISE_FRACTION, oracle=p,
                           records=records)
    _inject_noise(ds, seed)
    return ds


TASK1_VARIANTS = {"1.1": "static", "1.2": "switching", "1.3": "noisy"}


def generate(task: str, seed: int = 0, num_trajectories: int | None = None,
             dt: float = DEFAULT_DT, length: int | None = None) -> TrajectoryDataset:
    """Dispatch by task tag: 1.1, 1.2, 1.3, or 2."""
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be a finite number above 0, got {dt!r}")
    tau = OracleParams().tau_relax
    limit = RK4_STABLE_STEP * tau * RELAX_SUBSTEPS
    if dt > limit:
        raise UnstableStepError(
            f"dt {dt:g} is above {limit:.4g}, the stability limit of the sensor "
            f"relaxation's RK4 ({RELAX_SUBSTEPS} substeps a sample, tau_relax {tau:g})")
    for name, count in (("num_trajectories", num_trajectories), ("length", length)):
        if count is not None and count < 1:
            raise ValueError(f"{name} must be at least 1, got {count}")
    if task in TASK1_VARIANTS:
        return gen_task1(TASK1_VARIANTS[task], num_conditions=num_trajectories or 192,
                         length=length, dt=dt, seed=seed)
    if task == "2":
        return gen_task2(num_trajectories=num_trajectories or 24,
                         length=length or 400, dt=dt, seed=seed)
    raise ValueError(f"unknown task {task!r} (1.1, 1.2, 1.3, or 2)")


# ---- splitting -----------------------------------------------------------


def split_dataset(ds: TrajectoryDataset, ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
                  seed: int = 0) -> tuple[TrajectoryDataset, TrajectoryDataset,
                                          TrajectoryDataset, dict[str, list[int]]]:
    """Whole-trajectory split; floor sizes with the remainder going to train.

    Task 1 trajectories carry a towing-direction label and are interleaved
    by direction so every direction lands in every split.
    """
    if any(r <= 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("ratios must be positive and sum to 1")
    m = ds.num_trajectories
    n_val = int(m * ratios[1])
    n_test = int(m * ratios[2])
    n_train = m - n_val - n_test
    if n_val == 0 or n_test == 0 or n_train == 0:
        raise ValueError(f"{m} trajectories is too few for splits {ratios}")
    rng = np.random.default_rng([seed, 17])
    directions = [r.direction for r in ds.records]
    if all(d is not None for d in directions):
        by_dir: dict[str, list[int]] = {}
        for i, d in enumerate(directions):
            by_dir.setdefault(d, []).append(i)
        pools = []
        for d in sorted(by_dir):
            ids = np.array(by_dir[d])
            rng.shuffle(ids)
            pools.append(list(ids))
        order = []
        while any(pools):
            for pool in pools:
                if pool:
                    order.append(int(pool.pop()))
    else:
        order = list(rng.permutation(m))
    assignment = {
        "val": sorted(int(i) for i in order[:n_val]),
        "test": sorted(int(i) for i in order[n_val:n_val + n_test]),
        "train": sorted(int(i) for i in order[n_val + n_test:]),
    }
    return (ds.subset(assignment["train"]), ds.subset(assignment["val"]),
            ds.subset(assignment["test"]), assignment)


# ---- disk format ---------------------------------------------------------


def _table_name(table: np.ndarray) -> str:
    """The file name of a dataset table: the CRC32 of its data, in C order."""
    return f"trajectories_{zlib.crc32(np.ascontiguousarray(table)):08x}.npy"


def _check_table(table: np.ndarray, path: Path, shape: tuple[int, ...]) -> None:
    """Refuse a table that is not a finite float64 array of ``shape``."""
    if table.dtype != np.float64 or table.shape != shape or not np.all(np.isfinite(table)):
        raise ValueError(f"table {path} is not a finite float64 {'x'.join(map(str, shape))} "
                         f"array (got {table.dtype} {table.shape})")


def save_dataset(ds: TrajectoryDataset, outdir) -> None:
    """Write one float64 [M, L, 2+n+f] table, then ``manifest.json``.

    A row's columns are t, x_0..x_{n-1}, F_0..F_{f-1} and cond_id, so the
    values read back bit for bit. The table is named by the CRC32 of its data,
    so the live manifest's table is never overwritten by other data; the new
    manifest, which names the table and holds f0 and the directions, replaces
    the old one in one step, so a save cut short leaves the old dataset whole.
    A table with a non-finite value, which ``load_dataset`` would refuse,
    raises ``ValueError`` before anything is written.
    """
    out = Path(outdir)
    table = np.stack([np.column_stack([r.times, r.conditions, r.forces, r.condition_ids])
                      for r in ds.records])
    name = _table_name(table)
    _check_table(table, out / name, table.shape)
    out.mkdir(parents=True, exist_ok=True)
    with atomic_write(out / name, "wb") as fh:
        np.save(fh, table, allow_pickle=False)
    manifest = {
        "task": ds.task,
        "variant": ds.variant,
        "n": ds.n,
        "f": ds.f,
        "L": ds.length,
        "num_trajectories": ds.num_trajectories,
        "dt": ds.dt,
        "seed": ds.seed,
        "noise_fraction": ds.noise_fraction,
        "oracle_params": dataclasses.asdict(ds.oracle),
        "splits": ds.splits,
        "table": name,
        "f0": [[float(v) for v in r.f0] for r in ds.records],
        "directions": ([r.direction for r in ds.records]
                       if ds.records[0].direction is not None else None),
    }
    with atomic_write(out / "manifest.json") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    for old in out.glob("trajectories_*.npy"):
        if old.name != name:
            old.unlink()


def _check_manifest(manifest, path: Path) -> None:
    """Refuse a manifest whose sizes, dt, table name or directions are
    malformed, before any table is read or sized from them."""
    if not isinstance(manifest, dict):
        raise ValueError(f"{path} is not a JSON object")
    for key in ("n", "f", "L", "num_trajectories"):
        value = manifest.get(key)
        if type(value) is not int or value < 1:  # type(): a bool is not a count
            raise ValueError(f"{path}: {key} must be an integer >= 1 (got {value!r})")
    dt = manifest.get("dt")
    if type(dt) not in (int, float) or not 0 < dt < float("inf"):
        raise ValueError(f"{path}: dt must be a finite number above 0 (got {dt!r})")
    table = manifest.get("table")
    if type(table) is not str or not re.fullmatch(r"trajectories_[0-9a-f]{8}\.npy", table):
        raise ValueError(f"{path}: table {table!r} is not a trajectories_<8 hex>.npy name")
    dirs = manifest.get("directions")
    if dirs is not None and (not isinstance(dirs, list)
                             or [type(d) for d in dirs] != [str] * manifest["num_trajectories"]):
        raise ValueError(f"{path}: directions must be null or one string per trajectory")


def load_dataset(indir) -> TrajectoryDataset:
    """Read a dataset that ``save_dataset`` wrote.

    A missing manifest or table raises ``FileNotFoundError``. Any other fault
    raises ``ValueError`` naming the file: a table that is not a finite
    float64 [M, L, 2+n+f] ``.npy`` array with integer cond_ids and the CRC32
    of its name (an empty or truncated file, a CSV, another dtype, or an
    object array, which is never unpickled), or a manifest that is not a JSON
    object, or whose sizes, dt, table, f0, directions, oracle_params or splits
    are malformed.
    """
    root = Path(indir)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no manifest.json in {root}")
    manifest = json.loads(manifest_path.read_text())
    _check_manifest(manifest, manifest_path)
    m, n, f, length = (manifest[k] for k in ("num_trajectories", "n", "f", "L"))
    path = root / manifest["table"]
    try:
        with open(path, "rb") as fh:
            np.lib.format.read_magic(fh)  # so a CSV is refused as such, not as a pickle
            fh.seek(0)
            table = np.load(fh, allow_pickle=False)
    except (ValueError, MemoryError) as e:  # MemoryError: a header claiming a huge shape
        raise ValueError(f"table {path} is not a readable .npy file: {e}") from None
    _check_table(table, path, (m, length, 2 + n + f))
    if _table_name(table) != path.name:
        raise ValueError(f"table {path}: its data does not match the CRC32 in its name")
    if np.any(table[..., -1] != np.trunc(table[..., -1])):
        raise ValueError(f"table {path} has a cond_id that is not an integer")
    try:
        f0 = np.asarray(manifest.get("f0"), dtype=np.float64)
        oracle = OracleParams.from_dict(manifest["oracle_params"])
    except (TypeError, KeyError, ValueError) as e:
        raise ValueError(f"{manifest_path}: f0 or oracle_params is malformed: {e!r}") from None
    if f0.shape != (m, f) or not np.all(np.isfinite(f0)):
        raise ValueError(f"{manifest_path}: f0 is not a finite {m}x{f} array")
    # conditions and forces are views of the table, so a load holds it once;
    # times is a contiguous copy, which (unlike a strided column) can be
    # viewed as raw bytes
    times = np.ascontiguousarray(table[..., 0])
    x, forces = table[..., 1:1 + n], table[..., 1 + n:-1]
    directions = manifest.get("directions") or [None] * m
    records = [TrajectoryRecord(*fields) for fields in zip(
        times, x, forces, f0, table[..., -1].astype(np.int64), directions)]
    splits = manifest.get("splits")
    try:
        listed = [i for ids in (splits or {}).values() for i in ids]
    except (AttributeError, TypeError):
        raise ValueError(f"{manifest_path}: splits is not a map of index lists") from None
    seen: set[int] = set()
    for i in listed:
        if type(i) is not int or not 0 <= i < m or i in seen:
            raise ValueError(f"{manifest_path}: split index {i!r} is not an integer in "
                             f"[0, {m}) or is listed more than once")
        seen.add(i)
    return TrajectoryDataset(
        task=manifest["task"], variant=manifest["variant"], n=n, f=f, length=length,
        dt=manifest["dt"], seed=manifest["seed"],
        noise_fraction=manifest["noise_fraction"], oracle=oracle,
        records=records, splits=splits)
