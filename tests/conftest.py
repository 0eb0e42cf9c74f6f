import io
import json
import struct
import zlib

import numpy as np
import pytest

from hydroforecast import autodiff as ad
from hydroforecast.autodiff import Tensor
from hydroforecast.odeint import TimeGrid, integrate


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def _convergence_slope(solver, rates=(0.1, 0.05, 0.025)):
    """Empirical log-log order of the global error for dF/dt = -F on [0, 1]."""
    errors = []
    for dt in rates:
        steps = int(round(1.0 / dt))
        controls = Tensor(np.zeros((steps, 1)))
        traj = integrate(solver, Tensor(np.array([1.0])),
                         lambda s, c, t: ad.scale(s, -1.0), TimeGrid(0.0, dt, steps),
                         controls)
        errors.append(abs(traj.data[-1, 0] - np.exp(-1.0)))
    slope, _ = np.polyfit(np.log(np.asarray(rates)), np.log(np.asarray(errors)), 1)
    return float(slope)


@pytest.fixture
def convergence_slope():
    return _convergence_slope


def _reseal_checkpoint(path, edit_config=None, edit_first=None):
    """Rewrite a saved checkpoint's config header (``edit_config`` changes the
    dict in place) or its first tensor's name and shape (``edit_first`` maps
    them to new ones), and write a valid CRC again, so only the loader's own
    checks can refuse the file."""
    body = path.read_bytes()[:-4]
    (hlen,) = struct.unpack("<Q", body[12:20])
    header, rest = json.loads(body[20:20 + hlen]), body[20 + hlen:]
    if edit_config is not None:
        edit_config(header["config"])
    if edit_first is not None:
        (nlen,) = struct.unpack("<I", rest[:4])
        (ndim,) = struct.unpack("<I", rest[4 + nlen:8 + nlen])
        shape = struct.unpack(f"<{ndim}Q", rest[8 + nlen:8 + nlen + 8 * ndim])
        name, shape = edit_first(rest[4:4 + nlen], shape)
        rest = (struct.pack("<I", len(name)) + name + struct.pack("<I", len(shape))
                + struct.pack(f"<{len(shape)}Q", *shape) + rest[8 + nlen + 8 * ndim:])
    hb = json.dumps(header, sort_keys=True).encode("utf-8")
    body = body[:12] + struct.pack("<Q", len(hb)) + hb + rest
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


@pytest.fixture
def reseal_checkpoint():
    return _reseal_checkpoint


def _reseal_table(root, edit):
    """Rewrite the table of the dataset saved in ``root`` as ``edit(bytes,
    array)`` returns it, rename it by the CRC32 of its new data (of its bytes,
    when they are not a .npy array numpy reads without unpickling), and point
    the manifest at it, so only the loader's other checks can refuse it.
    Returns the new table's path."""
    manifest = json.loads((root / "manifest.json").read_text())
    old = root / manifest["table"]
    body = edit(old.read_bytes(), np.load(old))
    try:
        crc = zlib.crc32(np.ascontiguousarray(np.load(io.BytesIO(body))))
    except (ValueError, MemoryError, EOFError):
        crc = zlib.crc32(body)
    old.unlink()
    manifest["table"] = f"trajectories_{crc:08x}.npy"
    (root / manifest["table"]).write_bytes(body)
    (root / "manifest.json").write_text(json.dumps(manifest))
    return root / manifest["table"]


@pytest.fixture
def reseal_table():
    return _reseal_table
