"""From-scratch MLP: ReLU hidden layers with dropout, a softmax output layer,
Adam, MAE or cross-entropy loss; a model is its layer dims and one parameter
vector. Everything is deterministic under a seed and computes on numpy arrays
in the vector's dtype: float32 from init_model (as .fmim stores), or float64."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

LOSS_MAE = "mae"
LOSS_XENT = "xent"

# clamp for log() in cross-entropy, and the least nonzero softmax probability
_P_MIN = 1e-12


class ModelParams:
    """Dense MLP parameters in one contiguous vector `buf`, float32 or float64
    (zeros of float64 when none is given), laid out W0,b0,W1,b1,... (the
    .fmim payload order). `dims[k]` is layer k's (in, out); weights[k]
    (out, in) and biases[k] (out,) are views into `buf`, so writing through
    them writes the vector."""

    def __init__(self, dims, buf: np.ndarray | None = None):
        self.dims = [(int(i), int(o)) for i, o in dims]
        size = sum(o * i + o for i, o in self.dims)
        if buf is None:
            buf = np.zeros(size)
        if buf.shape != (size,) or buf.dtype not in (np.float32, np.float64):
            raise ValueError(f"parameter vector {buf.dtype}{buf.shape} is not "
                             f"a float32/float64 vector for layer dims "
                             f"{self.dims}")
        self.buf = buf
        self.weights, self.biases = [], []
        off = 0
        for i, o in self.dims:
            self.weights.append(buf[off:off + o * i].reshape(o, i))
            off += o * i
            self.biases.append(buf[off:off + o])
            off += o

    def __reduce__(self):  # pickle the vector once; the views follow it
        return ModelParams, (self.dims, self.buf)

    def like(self, buf: np.ndarray) -> "ModelParams":
        """The same layer layout over another flat vector (e.g. a gradient)."""
        return ModelParams(self.dims, buf)

    @property
    def input_dim(self) -> int:
        return self.dims[0][0]

    @property
    def num_classes(self) -> int:
        return self.dims[-1][1]

    def copy(self) -> "ModelParams":
        return self.like(self.buf.copy())

    def check_finite(self):
        """Raise FloatingPointError naming the first layer with a non-finite
        parameter. The sum of squares is finite when every parameter is and
        none is huge, and one BLAS pass computes it; only when it is not
        finite does the exact per-layer scan run."""
        with np.errstate(over="ignore"):
            if np.isfinite(np.dot(self.buf, self.buf)):
                return
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise FloatingPointError(f"non-finite parameters in layer {k}")


@dataclass
class AdamState:
    """First and second moment estimates, flat in the parameter layout."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    # adam_step's temporary, kept so that a step allocates nothing
    tmp: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.tmp = np.empty_like(self.m)

    @classmethod
    def zeros_like(cls, model: ModelParams) -> "AdamState":
        return cls(m=np.zeros_like(model.buf), v=np.zeros_like(model.buf))


@dataclass
class TrainConfig:
    """Training hyperparameters. Defaults follow the simulation parameter table
    (note the unusual beta1=0.1; pass 0.9 for the conventional Adam). Their
    ranges are checked once, by the command line (cli.RANGES, cli.CHOICES)."""

    learning_rate: float = 0.001
    beta1: float = 0.1
    beta2: float = 0.99
    epsilon: float = 1e-7
    batch_size: int = 128
    epochs: int = 10
    dropout_rate: float = 0.4
    loss: str = LOSS_MAE
    seed: int = 0


def init_model(input_dim: int, hidden: int = 256, classes: int = 5,
               seed: int = 0) -> ModelParams:
    """Glorot-uniform weights, zero biases, two hidden layers of `hidden` units."""
    rng = np.random.default_rng(seed)
    dims = [input_dim, hidden, hidden, classes]
    model = ModelParams(zip(dims[:-1], dims[1:]))
    for w in model.weights:
        fan_out, fan_in = w.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return model.like(model.buf.astype(np.float32))


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax; probabilities below _P_MIN are exactly 0. In float32
    the deltas and gradients of a saturated network's tiny probabilities
    would fall into the subnormal range, where arithmetic is many times
    slower. Such a probability is far below the rounding of its row's sum."""
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    p[p < _P_MIN] = 0.0
    return p


def _check_batch(model, batch):
    batch = np.asarray(batch, dtype=model.buf.dtype)
    if batch.ndim != 2 or batch.shape[1] != model.input_dim:
        raise ValueError(f"batch shape {batch.shape} does not match "
                         f"input_dim {model.input_dim}")
    return batch


@np.errstate(over="raise", invalid="raise")
def _forward_cached(model, batch, dropout_rate=0.0, rng=None):
    """Forward pass keeping each layer's input and each hidden layer's
    dropout mask for backprop. Hidden units drop only given an rng and a
    positive rate. An activation that overflows or turns NaN raises
    FloatingPointError: weights that a learning rate has blown up to a
    finite 1e30 would otherwise still predict a class."""
    post, masks = [batch], []
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        a = np.matmul(post[-1], w.T)
        a += b
        np.maximum(a, 0.0, out=a)
        mask = None
        if rng is not None and dropout_rate > 0.0:
            # keep a unit when a uniform 16-bit draw is below threshold: the
            # keep probability is 1 - dropout_rate rounded to a multiple of
            # 2**-16 (0.6 becomes 0.600006). Four draws from each 64-bit
            # output of the bit generator cost less than half of
            # rng.random's floats
            threshold = round((1.0 - dropout_rate) * 65536)
            bits = rng.bit_generator.random_raw(-(-a.size // 4))
            bits = bits.view(np.uint16)[:a.size].reshape(a.shape)
            # inverted dropout: scale kept units so inference needs no
            # rescale. dtype=: a bool / float division would run in float64
            mask = np.divide(bits < threshold, threshold / 65536,
                             dtype=a.dtype)
            a *= mask
        masks.append(mask)
        post.append(a)
    z = np.matmul(post[-1], model.weights[-1].T)
    z += model.biases[-1]
    return softmax(z), post, masks


def forward(model: ModelParams, batch: np.ndarray) -> np.ndarray:
    """Class probabilities at inference (no dropout), shape (B, classes).
    Rows sum to 1."""
    batch = _check_batch(model, batch)
    probs, _, _ = _forward_cached(model, batch)
    return probs


def loss(probs: np.ndarray, targets: np.ndarray, kind: str = LOSS_MAE) -> float:
    """MAE = mean|p - t| over all entries; xent = -mean log p[target]. Any
    ``kind`` but LOSS_MAE is xent: cli.CHOICES admits only the two."""
    probs = np.asarray(probs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if probs.shape != targets.shape:
        raise ValueError(f"probs shape {probs.shape} != targets shape {targets.shape}")
    if kind == LOSS_MAE:
        return float(np.abs(probs - targets).mean())
    p = np.clip(probs, _P_MIN, 1.0)
    return float(-(targets * np.log(p)).sum(axis=1).mean())


def _loss_grad_wrt_probs(probs, targets, kind):
    b = probs.shape[0]
    if kind == LOSS_MAE:
        return np.sign(probs - targets) / probs.size
    p = np.clip(probs, _P_MIN, 1.0)
    g = -(targets / p) / b
    g[probs < _P_MIN] = 0.0  # the clamped region is flat
    return g


def backward(model: ModelParams, batch: np.ndarray, targets: np.ndarray,
             config: TrainConfig, rng: np.random.Generator | None = None,
             grad: ModelParams | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradients of the mean loss, flat in the parameter layout, and
    the class probabilities of the forward pass they differentiate. That pass
    runs here, with dropout when config and rng ask for it, so its masks are
    the ones differentiated. Given `grad`, the model's layout over another
    vector (`model.like`), the gradient is written into it: `grad.buf`."""
    batch = _check_batch(model, batch)
    targets = np.asarray(targets, dtype=model.buf.dtype)
    probs, post, masks = _forward_cached(model, batch, config.dropout_rate,
                                         rng)
    if targets.shape != probs.shape:
        raise ValueError(f"targets shape {targets.shape} != probs shape {probs.shape}")
    if grad is None:
        grad = model.like(np.empty_like(model.buf))

    g = _loss_grad_wrt_probs(probs, targets, config.loss)
    # softmax jacobian: dL/dz = p * (g - sum(g*p))
    delta = probs * (g - (g * probs).sum(axis=1, keepdims=True))

    for k in range(len(model.weights) - 1, -1, -1):
        np.matmul(delta.T, post[k], out=grad.weights[k])
        delta.sum(axis=0, out=grad.biases[k])
        if k > 0:
            delta = np.matmul(delta, model.weights[k])
            if masks[k - 1] is not None:
                delta *= masks[k - 1]
            # relu' of layer k-1: its output post[k] is > 0 exactly where its
            # pre-activation is, except at dropped units, whose error the
            # mask has already zeroed
            delta *= post[k] > 0.0
    return grad.buf, probs


def adam_step(model: ModelParams, grad: np.ndarray, state: AdamState,
              config: TrainConfig):
    """One Adam update with bias correction, in place on `model.buf` and
    `state`. Raises FloatingPointError if a parameter becomes non-finite."""
    p = model.buf
    if grad.shape != p.shape:
        raise ValueError(f"gradient shape {grad.shape} != parameter shape "
                         f"{p.shape}")
    # Python floats: a numpy float64 scalar would run the in-place float32
    # operations below in a float64 loop
    lr, b1, b2, eps = map(float, (config.learning_rate, config.beta1,
                                  config.beta2, config.epsilon))
    state.t += 1
    c1 = 1.0 - b1 ** state.t
    root_c2 = (1.0 - b2 ** state.t) ** 0.5
    m, v, tmp = state.m, state.v, state.tmp
    # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
    np.multiply(1.0 - b1, grad, out=tmp)
    m *= b1
    m += tmp
    np.multiply(1.0 - b2, grad, out=tmp)
    tmp *= grad
    v *= b2
    v += tmp
    # p -= lr * (m/c1) / (sqrt(v/c2) + eps), with the bias corrections
    # folded into the scalars (Kingma & Ba, section 2):
    # p -= (lr*sqrt(c2)/c1) * m / (sqrt(v) + eps*sqrt(c2))
    np.sqrt(v, out=tmp)
    tmp += eps * root_c2
    np.divide(m, tmp, out=tmp)
    tmp *= lr * root_c2 / c1
    p -= tmp
    if state.t % 1024 == 0:
        # a dead unit's moments only decay (v by beta2 a step) and would
        # reach the subnormal range, where every pass over them is many
        # times slower. At beta2 = 0.99 a float32 v at or above 1e-30 needs
        # about 1,800 steps to fall below FLT_MIN, so flushing what is below
        # 1e-30 every 1,024 steps keeps v out of it
        for moment in (m, v):
            moment[np.abs(moment) < 1e-30] = 0.0
    model.check_finite()


def to_one_hot(y: np.ndarray, classes: int, dtype=np.float64) -> np.ndarray:
    y = np.asarray(y, dtype=np.int64)
    out = np.zeros((y.shape[0], classes), dtype)
    out[np.arange(y.shape[0]), y] = 1.0
    return out


def train_local(model: ModelParams, X: np.ndarray, y: np.ndarray,
                config: TrainConfig) -> tuple[ModelParams, list[float]]:
    """Mini-batch Adam training on one labeled shard.

    Runs config.epochs epochs of seeded shuffled mini-batches (final short
    batch included). Returns the updated parameters and the per-epoch mean
    training loss: the loss of each batch's training forward pass (dropout
    on), before that batch's update.
    """
    X = np.asarray(X, dtype=model.buf.dtype)
    y = np.asarray(y, dtype=np.int64)
    if X.shape[0] == 0:
        raise ValueError("empty training set")
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"{X.shape[0]} feature rows vs {y.shape[0]} labels")
    model = model.copy()
    if config.epochs == 0:
        return model, []
    targets = to_one_hot(y, model.num_classes, model.buf.dtype)
    rng = np.random.default_rng(config.seed)
    n = X.shape[0]
    state = AdamState.zeros_like(model)
    # one gradient vector for every step: a fresh one per step measured 1.7%
    # slower per train_local
    grad = model.like(np.empty_like(model.buf))
    epoch_losses = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        total, seen = 0.0, 0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            xb, tb = X[idx], targets[idx]
            _, probs = backward(model, xb, tb, config, rng, grad)
            total += loss(probs, tb, config.loss) * len(idx)
            seen += len(idx)
            adam_step(model, grad.buf, state, config)
        epoch_losses.append(total / seen)
    return model, epoch_losses


def predict(model: ModelParams, batch: np.ndarray) -> np.ndarray:
    """Argmax class per row, dropout off; ties resolve to the lowest index."""
    return forward(model, batch).argmax(axis=1)
