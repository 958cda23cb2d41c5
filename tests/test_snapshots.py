import functools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from higgsflow import (HiggsBundleState, HiggsStructure, MatrixFormField,
                       TorusBase, build_scenario, load_state, save_state)
from higgsflow.linalg import dagger
from higgsflow.scenarios import random_state_with_subbundle, random_valid_state
from higgsflow.snapshots import _read_sections, _write_sections


def test_field_roundtrip(tmp_path):
    base = TorusBase(1, 16)
    rng = np.random.default_rng(0)
    f = MatrixFormField(base, 1, 1,
                        rng.standard_normal((1, 1) + base.shape + (3, 3))
                        + 1j * rng.standard_normal((1, 1) + base.shape + (3, 3)))
    path = tmp_path / "field.snap"
    _write_sections(path, [("field", f)])
    [(name, g)] = _read_sections(path)
    assert name == "field" and (g.p, g.q, g.rows) == (1, 1, 3)
    assert g.base == base
    assert np.array_equal(f.comps, g.comps)


def test_body_is_the_c_order_bytes_of_the_component_array(tmp_path):
    # the format is the (P, Q, *grid, r, c) array in C order, independent
    # of the grid-trailing storage behind MatrixFormField.comps
    base = TorusBase(2, 8)
    rng = np.random.default_rng(4)
    shape = (2, 2) + base.shape + (2, 2)
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    path = tmp_path / "field.snap"
    _write_sections(path, [("field", MatrixFormField(base, 1, 1, arr))])
    # magic, section count, name length, the name "field", seven u32
    body = path.read_bytes()[8 + 4 + 2 + 5 + 7 * 4:]
    assert body == arr.astype("<c16").tobytes()
    [(_, g)] = _read_sections(path)
    assert np.moveaxis(g.comps, (-2, -1), (0, 1)).flags.c_contiguous
    assert g.comps.flags.writeable
    assert np.array_equal(g.comps, arr)


def test_state_roundtrip(tmp_path):
    st = random_valid_state(TorusBase(1, 16), 2, seed=7)
    path = tmp_path / "state.snap"
    save_state(st, path)
    st2 = load_state(path)
    assert np.array_equal(st.metric.mat, st2.metric.mat)
    assert np.array_equal(st.structure.a.comps, st2.structure.a.comps)
    assert np.array_equal(st.structure.phi.comps, st2.structure.phi.comps)


def test_state_roundtrip_n2(tmp_path):
    st = build_scenario("t4-commuting", N=8)
    path = tmp_path / "state.snap"
    save_state(st, path)
    st2 = load_state(path)
    assert np.array_equal(st.metric.mat, st2.metric.mat)


def test_a_flow_built_state_roundtrips_to_the_same_bytes(tmp_path):
    # the snapshot keeps the metric, not the frame the flow carried; the
    # reloaded metric roots itself
    from higgsflow import run_donaldson_flow
    from higgsflow.linalg import dagger, sqrtm_hpd
    st = run_donaldson_flow(random_valid_state(TorusBase(1, 16), 3, seed=7),
                            0.05, 1e-3).final
    p1, p2 = tmp_path / "a.snap", tmp_path / "b.snap"
    save_state(st, p1)
    st2 = load_state(p1)
    save_state(st2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    L = st2.metric.frame[0]
    assert np.array_equal(L, sqrtm_hpd(st.metric.mat))
    assert np.abs(L - dagger(L)).max() < 1e-14
    assert np.abs(st.metric.frame[0] - L).max() > 1e-3


def test_zero_forms_view_their_arrays_and_save_as_copies_do(tmp_path):
    st, sub = random_state_with_subbundle(TorusBase(1, 16), 3, 1, seed=5)
    # the metric's mat is read-only, so its field is a writable copy
    assert not np.shares_memory(st.metric.as_field().comps, st.metric.mat)
    assert np.shares_memory(sub.as_field(st.base).comps, sub.projector)
    save_state(st, tmp_path / "view.snap")
    copied = MatrixFormField(st.base, 0, 0, st.metric.mat[None, None].copy())
    _write_sections(tmp_path / "copy.snap", [("a", st.structure.a),
                                             ("phi", st.structure.phi),
                                             ("H", copied)])
    assert not np.shares_memory(copied.comps, st.metric.mat)
    assert (tmp_path / "view.snap").read_bytes() == (tmp_path / "copy.snap").read_bytes()


def test_header_is_self_describing(tmp_path):
    st = build_scenario("nilpotent-r2", N=16)
    path = tmp_path / "state.snap"
    save_state(st, path)
    raw = path.read_bytes()
    assert raw[:8] == b"HBSNAP01"
    # little-endian section count then named sections
    assert int.from_bytes(raw[8:12], "little") == 3


def test_corrupt_magic_rejected(tmp_path):
    path = tmp_path / "bad.snap"
    path.write_bytes(b"NOTASNAP" + b"\0" * 64)
    with pytest.raises(ValueError, match="snapshot"):
        load_state(path)


def test_deterministic_bytes(tmp_path):
    st = build_scenario("nilpotent-r2", N=16)
    p1, p2 = tmp_path / "a.snap", tmp_path / "b.snap"
    save_state(st, p1)
    save_state(st, p2)
    assert p1.read_bytes() == p2.read_bytes()


# -- corrupt input ----------------------------------------------------------------


def _valid_snapshot(tmp_path):
    path = tmp_path / "state.snap"
    save_state(build_scenario("nilpotent-r2", N=16), path)
    return path, path.read_bytes()


def test_truncated_snapshot_rejected(tmp_path):
    path, raw = _valid_snapshot(tmp_path)
    # inside the section count, a section header, a field header, a body
    for cut in (10, 14, 20, 40, len(raw) - 5):
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError, match="truncated"):
            load_state(path)


def test_trailing_bytes_rejected(tmp_path):
    path, raw = _valid_snapshot(tmp_path)
    path.write_bytes(raw + b"\0" * 7)
    with pytest.raises(ValueError, match="7 trailing bytes"):
        load_state(path)


def test_declared_body_size_checked_before_allocation(tmp_path):
    # a header that declares N = 2^14 (a 16 GB body) in a file of a few
    # kilobytes is rejected from its size, without allocating the body
    path, raw = _valid_snapshot(tmp_path)
    header_at = 8 + 4 + 2 + 1  # magic, section count, name length, "a"
    N_at = header_at + 8        # after version and n
    assert int.from_bytes(raw[N_at:N_at + 4], "little") == 16
    path.write_bytes(raw[:N_at] + (2**14).to_bytes(4, "little") + raw[N_at + 4:])
    with pytest.raises(ValueError, match="truncated"):
        load_state(path)


def test_non_finite_section_rejected(tmp_path):
    st = build_scenario("nilpotent-r2", N=16)
    bad_phi = MatrixFormField(st.base, 1, 0, st.structure.phi.comps.copy())
    bad_phi.comps[0, 0, 3, 5, 0, 1] = np.nan
    path = tmp_path / "state.snap"
    save_state(HiggsBundleState(HiggsStructure(st.structure.a, bad_phi),
                                st.metric), path)
    with pytest.raises(ValueError, match="non-finite"):
        load_state(path)


def test_metric_section_must_be_a_function(tmp_path):
    st = build_scenario("nilpotent-r2", N=16)
    path = tmp_path / "state.snap"
    H_as_form = MatrixFormField(st.base, 1, 0, st.metric.mat[None, None])
    _write_sections(path, [("a", st.structure.a), ("phi", st.structure.phi),
                           ("H", H_as_form)])
    with pytest.raises(ValueError, match="bidegree"):
        load_state(path)


def test_inconsistent_sections_rejected(tmp_path):
    st = build_scenario("nilpotent-r2", N=16)
    coarse = build_scenario("nilpotent-r2", N=8)
    rank3 = random_valid_state(TorusBase(1, 16), 3, seed=1)
    # positive in its Hermitian part, which is all that positivity reads
    skew = st.metric.as_field().comps.copy()
    skew[..., 0, 1] = 0.5
    skew = MatrixFormField(st.base, 0, 0, skew)
    path = tmp_path / "state.snap"
    for sections in ([("a", st.structure.a), ("phi", coarse.structure.phi),
                      ("H", st.metric.as_field())],
                     [("a", st.structure.a), ("phi", st.structure.phi),
                      ("H", rank3.metric.as_field())],
                     [("a", st.structure.a), ("phi", st.structure.phi),
                      ("H", skew)]):
        _write_sections(path, sections)
        with pytest.raises(ValueError):
            load_state(path)


@pytest.mark.parametrize("extra, message", [("a", "section 'a' twice"),
                                             ("junk", "unknown section 'junk'")])
def test_duplicate_and_unknown_sections_rejected(tmp_path, extra, message):
    st = build_scenario("nilpotent-r2", N=16)
    path = tmp_path / "state.snap"
    _write_sections(path, [("a", st.structure.a), (extra, st.structure.a),
                           ("phi", st.structure.phi), ("H", st.metric.as_field())])
    with pytest.raises(ValueError, match=message):
        load_state(path)


def test_loaded_fields_are_writable(tmp_path):
    path, _ = _valid_snapshot(tmp_path)
    st = load_state(path)
    st.structure.phi.comps[0, 0, 0, 0] += 1.0
    # a metric is a value: its cached frame and inverse must not go stale
    with pytest.raises(ValueError, match="read-only"):
        st.metric.mat[0, 0] *= 2.0


@functools.cache
def _small_snapshot(rank: int) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.snap"
        save_state(random_valid_state(TorusBase(1, 8), rank, seed=rank), path)
        return path.read_bytes()


@settings(max_examples=50, deadline=None)
@given(rank=strategies.integers(1, 2),
       flips=strategies.lists(strategies.tuples(strategies.integers(0, 2**20),
                                                strategies.integers(1, 255)),
                              max_size=3),
       cut=strategies.one_of(strategies.none(), strategies.integers(0, 2**20)))
def test_corrupt_snapshots_fail_with_value_error(tmp_path_factory, rank, flips, cut):
    data = bytearray(_small_snapshot(rank))
    for pos, mask in flips:
        data[pos % len(data)] ^= mask
    if cut is not None:
        data = data[:cut % len(data)]
    path = tmp_path_factory.mktemp("fuzz") / "state.snap"
    path.write_bytes(bytes(data))
    try:
        state = load_state(path)
    except ValueError:
        return
    for arr in (state.metric.mat, state.structure.a.comps,
                state.structure.phi.comps):
        assert np.isfinite(arr).all()
    H = state.metric.mat
    assert np.abs(H - dagger(H)).max() <= 1e-12 * np.abs(H).max()


def _hom_block_save(path):
    # a 2x1 Hom block: snapshots hold square blocks only
    _write_sections(path, [("a", MatrixFormField.zeros(TorusBase(1, 8), 0, 1, 2, 1))])


def _version_2(path):
    save_state(build_scenario("nilpotent-r2", N=8), path)
    buf = bytearray(path.read_bytes())
    # magic, section count, name length, name "a", then the version
    buf[15:19] = (2).to_bytes(4, "little")
    path.write_bytes(bytes(buf))
    load_state(path)


def _no_metric(path):
    st = build_scenario("nilpotent-r2", N=8)
    _write_sections(path, [("a", st.structure.a), ("phi", st.structure.phi)])
    load_state(path)


@pytest.mark.parametrize("call, message", [
    (_hom_block_save, "snapshots store square-block fields"),
    (_version_2, "unsupported snapshot version 2"),
    (_no_metric, "state snapshot is missing sections ['H']"),
])
def test_each_rejection_raises_with_its_message(call, message, tmp_path):
    with pytest.raises(ValueError) as info:
        call(tmp_path / "state.snap")
    assert message in str(info.value)
