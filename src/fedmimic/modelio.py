"""Flat binary model files.

Layout (little-endian): magic "FMIM1", uint32 layer count, uint8 loss id
(0=mae, 1=xent), then per layer uint32 in_dim, uint32 out_dim, uint8
activation id (0=relu, 1=softmax); then per layer the row-major float32
weight matrix followed by the float32 bias vector. That payload is
`ModelParams.buf` in float32, so a model trained in float32 is saved and
loaded exactly. load_model accepts only a finite model with one output per
attack class whose activation ids are those of `nn`'s fixed shape.
"""

from __future__ import annotations

import struct

import numpy as np

from .data import AttackClass
from .nn import LOSS_MAE, LOSS_XENT, ModelParams

MAGIC = b"FMIM1"

_LOSS_IDS = {LOSS_MAE: 0, LOSS_XENT: 1}
_LOSS_NAMES = {v: k for k, v in _LOSS_IDS.items()}
RELU_ID, SOFTMAX_ID = 0, 1

_HEAD = struct.Struct("<IB")     # layer count, loss id
_LAYER = struct.Struct("<IIB")   # in_dim, out_dim, activation id


class ModelFormatError(Exception):
    pass


def _activation_id(layer: int, n_layers: int) -> int:
    return SOFTMAX_ID if layer == n_layers - 1 else RELU_ID


def save_model(model: ModelParams, f, loss_kind: str = LOSS_MAE):
    """Writes ``model`` to the binary file ``f``."""
    f.write(MAGIC)
    f.write(_HEAD.pack(len(model.dims), _LOSS_IDS[loss_kind]))
    for k, (in_d, out_d) in enumerate(model.dims):
        f.write(_LAYER.pack(in_d, out_d, _activation_id(k, len(model.dims))))
    f.write(model.buf.astype("<f4").tobytes())


def load_model(path) -> tuple[ModelParams, str]:
    with open(path, "rb") as f:
        data = f.read()
    if data[:5] != MAGIC:
        raise ModelFormatError(f"bad magic in {path}: expected {MAGIC!r}, "
                               f"got {data[:5]!r}")
    off = len(MAGIC)
    if len(data) < off + _HEAD.size:
        raise ModelFormatError(f"truncated header in {path}")
    n_layers, loss_id = _HEAD.unpack_from(data, off)
    off += _HEAD.size
    if loss_id not in _LOSS_NAMES:
        raise ModelFormatError(f"unknown loss id {loss_id} in {path}")
    if n_layers == 0:
        raise ModelFormatError(f"no layers in {path}")
    if len(data) < off + n_layers * _LAYER.size:
        raise ModelFormatError(f"truncated header in {path}: "
                               f"{n_layers} layers declared")
    dims = []
    for k in range(n_layers):
        in_d, out_d, act = _LAYER.unpack_from(data, off)
        off += _LAYER.size
        if act != _activation_id(k, n_layers):
            raise ModelFormatError(f"layer {k} of {path} has activation id "
                                   f"{act}, expected {_activation_id(k, n_layers)}")
        if dims and in_d != dims[-1][1]:
            raise ModelFormatError(f"layer {k} input dim {in_d} does not match "
                                   f"layer {k - 1} output dim {dims[-1][1]} "
                                   f"in {path}")
        dims.append((in_d, out_d))
    if dims[-1][1] != len(AttackClass):
        raise ModelFormatError(f"output layer has {dims[-1][1]} classes in "
                               f"{path}, expected {len(AttackClass)}")
    n = sum(o * i + o for i, o in dims)
    if len(data) - off != 4 * n:
        raise ModelFormatError(f"payload of {len(data) - off} bytes in {path}, "
                               f"layer dims need {4 * n}")
    buf = np.frombuffer(data, dtype="<f4", count=n, offset=off)
    if not np.isfinite(buf).all():
        raise ModelFormatError(f"non-finite parameters in {path}")
    return ModelParams(dims, buf.astype(np.float32)), _LOSS_NAMES[loss_id]
