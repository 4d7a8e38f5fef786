import numpy as np
import pytest

from fedmimic.data import ParseError
from fedmimic.modelio import MAGIC, load_model
from fedmimic.nn import forward, init_model

from conftest import write_model
from test_nn import models_equal


def test_round_trip_is_byte_exact(tmp_path):
    m = init_model(11, 8, 5, seed=3)
    p1 = tmp_path / "a.fmim"
    p2 = tmp_path / "b.fmim"
    write_model(m, p1, "xent")
    loaded, loss_kind = load_model(p1)
    assert loss_kind == "xent"
    write_model(loaded, p2, loss_kind)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes()[:5] == MAGIC


def test_loaded_model_predicts_like_saved(tmp_path):
    m = init_model(6, 8, 5, seed=1)
    m = m.like(m.buf.astype(np.float64))  # so saving rounds to float32
    path = tmp_path / "m.fmim"
    write_model(m, path)
    loaded, _ = load_model(path)
    X = np.random.default_rng(0).random((4, 6))
    # float32 storage: probabilities agree to storage precision
    assert np.abs(forward(m, X) - forward(loaded, X)).max() < 1e-5
    assert [w.shape for w in loaded.weights] == [w.shape for w in m.weights]
    assert loaded.dims == m.dims


def test_round_trip_is_float32_rounding(tmp_path):
    m = init_model(7, 6, 5, seed=4)
    m = m.like(m.buf.astype(np.float64))  # so saving rounds to float32
    m.buf[:] = np.random.default_rng(1).standard_normal(m.buf.size)
    path = tmp_path / "m.fmim"
    write_model(m, path)
    loaded, _ = load_model(path)
    assert loaded.dims == m.dims
    assert np.array_equal(loaded.buf, m.buf.astype(np.float32).astype(np.float64))
    for w, lw in zip(m.weights, loaded.weights):
        assert np.array_equal(lw, w.astype(np.float32))


def test_float32_fixpoint(tmp_path):
    # a second save/load cycle changes nothing
    m = init_model(4, 4, 5, seed=2)
    path = tmp_path / "m.fmim"
    write_model(m, path)
    l1, _ = load_model(path)
    write_model(l1, path)
    l2, _ = load_model(path)
    assert models_equal(l1, l2)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.fmim"
    path.write_bytes(b"NOPE!" + b"\x00" * 40)
    with pytest.raises(ParseError, match="magic"):
        load_model(path)


def test_truncated_file_rejected(tmp_path):
    m = init_model(4, 4, 5, seed=2)
    path = tmp_path / "m.fmim"
    write_model(m, path)
    (tmp_path / "t.fmim").write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ParseError):
        load_model(tmp_path / "t.fmim")
