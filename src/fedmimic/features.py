"""Feature selection over plain arrays: logistic regression of several 0/1
targets at once by full-batch gradient descent with heavy-ball momentum,
recursive feature elimination (RFE) ranked by |weight|, and the per-class
top-k lists.

RFE fits in float32, and its epochs are the stage's cost. Each epoch runs
two products with the training matrix, the forward and the gradient, each
as a series of BLAS calls over blocks of about BLOCK_BYTES of it. The first
fit of an elimination runs FIRST_EPOCHS from zero; each later fit is warm:
it starts from the previous fit's weights and bias on the columns that
survive and runs REFIT_EPOCHS more. Every fit's velocity starts at zero."""

from __future__ import annotations

import sys

import numpy as np

from .data import AttackClass

# bytes of the training matrix in one BLAS call of a fit_logreg epoch. On a
# 2-vCPU host with one BLAS thread, a select_union of 10,000 x 122 (k 20,
# step 20) took 1.09-1.13 s with blocks of 256-768 KB, against 1.62 s with
# one call a product and 1.60 s with 1 MB blocks
BLOCK_BYTES = 512 * 1024

# gradient-descent step of every RFE fit and its heavy-ball momentum (Polyak
# 1964): each epoch's step is MOMENTUM times the last step plus LR times the
# gradient. On a 10,000 x 122 bench corpus, 50 such epochs from zero reach a
# lower class-balanced logistic loss for every class than 200 plain epochs
LR = 0.1
MOMENTUM = 0.9

# epochs of an elimination's first fit, from zero, and of each later fit,
# which starts where the previous fit stopped. On twelve 10,000 x 122 bench
# corpora (k 20, step 20, one BLAS thread), 50 and 15 took RFE from
# 0.27-0.42 s (plain descent, 200 and 25) to 0.10-0.16 s, and on each its
# per-class lists shared at least as many columns with a 2,000-epoch plain
# fit from zero as before. Plain descent with first fits of 50 or 100
# epochs shared fewer on 11 or 12 of the 12
FIRST_EPOCHS = 50
REFIT_EPOCHS = 15


def _block_rows(columns: int, itemsize: int) -> int:
    """Samples in one block of fit_logreg's products: about BLOCK_BYTES of
    a matrix of ``columns`` columns, at least one."""
    return max(1, BLOCK_BYTES // (max(columns, 1) * itemsize))


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-clip(z, -60, 60))), written into ``out`` if given."""
    out = np.clip(z, -60.0, 60.0, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def fit_logreg(X: np.ndarray, Y: np.ndarray, sample_weights: np.ndarray,
               mask: np.ndarray, epochs: int,
               start: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Full-batch gradient descent at lr LR with heavy-ball momentum
    MOMENTUM on the logistic loss of the c targets of the (n x c) 0/1 ``Y``
    at once, weighted by the (n x c) ``sample_weights``, each column
    normalised to sum to 1. Each epoch ``v = MOMENTUM * v + LR * grad`` and
    ``W -= v``, for the weights and the bias alike. Returns the (c x d)
    weights and (c,) bias. They start at zero, or at ``start``, a
    ``(weights, bias)`` pair of those shapes; the velocity starts at zero
    either way, and the fit is deterministic. A 0/1 (c x d) ``mask`` keeps
    masked weights at their start. It computes in float32 for a float32
    ``X``, else in float64."""
    X = np.asarray(X)
    dtype = np.float32 if X.dtype == np.float32 else np.float64
    X = X.astype(dtype, copy=False)
    Y = np.asarray(Y, dtype=dtype)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError(f"X shape {X.shape} does not match targets {Y.shape}")
    if X.shape[0] < 1:
        raise ValueError("empty training set")
    n = X.shape[0]
    Y = Y.T                                  # (c x n), one row per target
    sw = np.asarray(sample_weights, dtype=dtype).T
    sw = sw / sw.sum(axis=1, keepdims=True)
    W = np.zeros((Y.shape[0], X.shape[1]), dtype=dtype)
    b = np.zeros((Y.shape[0], 1), dtype=dtype)
    if start is not None:
        W[:] = np.reshape(start[0], W.shape)
        b[:] = np.reshape(start[1], b.shape)
    # per-epoch arrays are reused: a fresh (c x n) array costs page faults
    err = np.empty(Y.shape, dtype=dtype)
    grad_t = np.empty(W.T.shape, dtype=dtype)
    grad = grad_t.T
    # Both products loop over blocks of samples, column slices of X.T (see
    # BLOCK_BYTES). The forward W @ X.T writes each block's slice of err.
    # The gradient X.T @ err.T writes each block's (d x c) slot, and the
    # slots are summed in block order. The two passes stay apart: fused per
    # block, the element-wise steps ran once per block and cost more than
    # the cache reuse saved
    rows = _block_rows(X.shape[1], X.itemsize)
    cuts = [slice(i, i + rows) for i in range(0, n, rows)]
    x_blocks = [X.T[:, cut] for cut in cuts]
    err_blocks = [err[:, cut] for cut in cuts]
    slots = np.empty((len(cuts), *grad_t.shape), dtype=dtype)
    v_W, v_b = np.zeros_like(W), np.zeros_like(b)
    for _ in range(epochs):
        for xb, eb in zip(x_blocks, err_blocks):
            np.matmul(W, xb, out=eb)
        err += b
        _sigmoid(err, out=err)
        err -= Y
        err *= sw                            # (P - Y) * sw
        for xb, eb, slot in zip(x_blocks, err_blocks, slots):
            np.matmul(xb, eb.T, out=slot)
        slots.sum(axis=0, out=grad_t)
        grad *= mask
        grad *= LR
        v_W *= MOMENTUM
        v_W += grad
        W -= v_W
        v_b *= MOMENTUM
        v_b += LR * err.sum(axis=1, keepdims=True)
        b -= v_b
    return W, b[:, 0]


def inverse_frequency_weights(y: np.ndarray) -> np.ndarray:
    """Per-sample weights balancing positives and negatives; all-same-label
    targets degrade to uniform weights."""
    y = np.asarray(y)
    n_pos = int((y == 1).sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        return np.ones(len(y))
    w = np.where(y == 1, 0.5 / n_pos, 0.5 / n_neg)
    return w * len(y)


def rfe(X: np.ndarray, targets: np.ndarray, target_k: int,
        step: int) -> list[list[int]]:
    """Recursive feature elimination for each row of the (c x n) 0/1
    ``targets``: fit class-balanced logistic regression, drop each target's
    ``step`` smallest-|weight| columns, and refit, until ``target_k`` remain
    per target. Each elimination is one c-target fit on the columns some
    target still keeps, each target's dropped columns masked. The first fit
    runs FIRST_EPOCHS from zero; each later one starts from the last fit's
    weights and bias, at zero velocity, and runs REFIT_EPOCHS. The fits run
    in float32, prep's dtype. Returns each target's survivors in
    original-index order. The caller keeps ``1 <= target_k <= X.shape[1]``
    and ``step >= 1``; the command line checks both."""
    X = np.asarray(X, dtype=np.float32)
    d = X.shape[1]
    Y = np.asarray(targets, dtype=np.float64)
    sw = np.stack([inverse_frequency_weights(t) for t in Y])
    alive = np.ones((len(Y), d), dtype=bool)
    remaining = d
    epochs, start = FIRST_EPOCHS, None
    while remaining > target_k:
        union = np.flatnonzero(alive.any(axis=0))
        XuT = X.T[union]  # C-contiguous, so the forward W @ XuT reads rows
        W, b = fit_logreg(XuT.T, Y.T, sw.T, alive[:, union], epochs, start)
        drop = min(step, remaining - target_k)
        for c, w in enumerate(W):
            cols = np.flatnonzero(alive[c, union])
            # smallest |weight| first; ties resolve to the lower original index
            order = np.argsort(np.abs(w[cols]), kind="stable")
            alive[c, union[cols[order[:drop]]]] = False
        remaining -= drop
        # the next fit starts here, on the columns some target still keeps,
        # with each target's dropped weights set to exactly 0
        kept = alive[:, union].any(axis=0)
        epochs, start = REFIT_EPOCHS, (W[:, kept] * alive[:, union[kept]], b)
    return [np.flatnonzero(row).tolist() for row in alive]


def select_union(X: np.ndarray, labels: np.ndarray, k: int = 20,
                 step: int = 5) -> dict[str, list[int]]:
    """One-vs-rest RFE per attack class, all five classes eliminated
    together: class name -> its top-k columns. The feature mask is the
    sorted union of the five lists."""
    labels = np.asarray(labels)
    targets = np.stack([labels == cls for cls in AttackClass])
    absent = [cls.name for cls, t in zip(AttackClass, targets) if not t.any()]
    if absent:
        print(f"warning: classes absent from labels, each an all-zero RFE "
              f"target: {', '.join(absent)}", file=sys.stderr)
    kept = rfe(X, targets, k, step)
    return {cls.name: cols for cls, cols in zip(AttackClass, kept)}
