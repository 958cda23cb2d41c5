"""Binary snapshot container for states, one section per field.

Layout (all integers little-endian):

    magic "HBSNAP01" | u32 section count | sections...
    section: u16 name length | name bytes (ascii) | field block
    field block: u32 version | u32 n | u32 N | u32 rank | u32 p | u32 q |
                 u32 component count | components as row-major
                 little-endian complex double arrays

The Hermitian metric is stored as the (0,0) section named "H". A file that
is truncated, has trailing bytes, declares a body larger than what follows
its header, or holds a non-finite value is rejected with ValueError; so is
a state snapshot with a section other than a, phi and H, with one of them
twice, or with a metric that is not Hermitian or not positive definite.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .geometry import HermitianMetric, HiggsBundleState, HiggsStructure
from .grid import MatrixFormField, TorusBase

__all__ = ["save_state", "load_state"]

MAGIC = b"HBSNAP01"
VERSION = 1
_HEAD = struct.Struct("<7I")


def _pack_field(f: MatrixFormField) -> bytes:
    if f.rows != f.cols:
        raise ValueError("snapshots store square-block fields")
    P, Q = f.comps.shape[0], f.comps.shape[1]
    head = _HEAD.pack(VERSION, f.base.n, f.base.N, f.rows, f.p, f.q, P * Q)
    # tobytes emits the (P, Q, *grid, r, r) view in C order, whatever the
    # storage order: the body runs component by component
    return head + f.comps.astype("<c16").tobytes()


def _unpack_field(buf: bytes, offset: int) -> tuple[MatrixFormField, int]:
    version, n, N, rank, p, q, ncomp = _HEAD.unpack_from(buf, offset)
    if version != VERSION:
        raise ValueError(f"unsupported snapshot version {version}")
    offset += _HEAD.size
    base = TorusBase(n, N)
    P, Q = math.comb(n, p), math.comb(n, q)
    if ncomp != P * Q:
        raise ValueError(f"component count {ncomp} does not match bidegree "
                         f"({p},{q}) at n={n}")
    # the header comes from outside: check the size it declares against the
    # bytes that are there before allocating anything
    count = ncomp * base.num_points * rank * rank
    if 16 * count > len(buf) - offset:
        raise ValueError(f"snapshot truncated: a field body of {16 * count} "
                         f"bytes has {len(buf) - offset} left")
    comps = np.frombuffer(buf, dtype="<c16", count=count, offset=offset)
    # the constructor copies the read-only buffer view, once, into writable
    # native storage
    comps = comps.reshape((P, Q) + base.shape + (rank, rank))
    return MatrixFormField(base, p, q, comps), offset + 16 * count


def _write_sections(path, sections: list[tuple[str, MatrixFormField]]) -> None:
    parts = [MAGIC, struct.pack("<I", len(sections))]
    for name, f in sections:
        raw = name.encode("ascii")
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
        parts.append(_pack_field(f))
    Path(path).write_bytes(b"".join(parts))


def _read_sections(path) -> list[tuple[str, MatrixFormField]]:
    buf = Path(path).read_bytes()
    if buf[:8] != MAGIC:
        raise ValueError(f"{path} is not a snapshot container")
    out = []
    try:
        (count,) = struct.unpack_from("<I", buf, 8)
        offset = 12
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", buf, offset)
            offset += 2
            name = buf[offset:offset + nlen].decode("ascii")
            offset += nlen
            fieldm, offset = _unpack_field(buf, offset)
            out.append((name, fieldm))
    except struct.error as exc:
        raise ValueError(f"snapshot {path} is truncated: {exc}") from exc
    if offset != len(buf):
        raise ValueError(f"snapshot {path} has {len(buf) - offset} trailing bytes")
    return out


def save_state(state: HiggsBundleState, path) -> None:
    """One section per field: a, phi and the metric H."""
    _write_sections(path, [("a", state.structure.a),
                           ("phi", state.structure.phi),
                           ("H", state.metric.as_field())])


def load_state(path) -> HiggsBundleState:
    sections = {}
    for name, f in _read_sections(path):
        if name in sections:
            raise ValueError(f"state snapshot holds section '{name}' twice")
        if name not in ("a", "phi", "H"):
            raise ValueError(f"state snapshot holds an unknown section '{name}'")
        sections[name] = f
    missing = {"a", "phi", "H"} - set(sections)
    if missing:
        raise ValueError(f"state snapshot is missing sections {sorted(missing)}")
    for name, f in sections.items():
        if not np.isfinite(f.comps).all():
            raise ValueError(f"snapshot section '{name}' holds non-finite values")
    H_field = sections["H"]
    if (H_field.p, H_field.q) != (0, 0):
        raise ValueError(f"metric section has bidegree ({H_field.p},{H_field.q}), "
                         f"not (0,0)")
    H = H_field.comps[0, 0]
    if np.abs(H - H.conj().swapaxes(-1, -2)).max() > 1e-12 * np.abs(H).max():
        raise ValueError("metric section is not Hermitian")
    return HiggsBundleState(HiggsStructure(sections["a"], sections["phi"]),
                            HermitianMetric(H_field.base, H))
