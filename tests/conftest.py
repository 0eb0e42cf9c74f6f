import json
import struct
import zlib

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


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
