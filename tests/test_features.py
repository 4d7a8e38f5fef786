import numpy as np
import pytest

from fedmimic import features
from fedmimic.data import (AttackClass, apply_pipeline, fit_pipeline,
                           load_attack_mapping, map_labels, parse_records)
from fedmimic.features import (fit_logreg, inverse_frequency_weights, rfe,
                               select_union)

from fedmimic.fedsim import openblas_threads

from conftest import make_kdd_lines

# a block budget under which the tests' 400-row matrices run in five or more
# blocks of fit_logreg's products, the last one ragged
SMALL_BLOCK_BYTES = 4096


def informative_matrix(n=300, noise_cols=8, seed=0):
    """Two columns carry the label (plus small noise), the rest is pure
    noise. Returns (X, y, informative indices)."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    X = rng.random((n, 2 + noise_cols))
    X[:, 3] = y + rng.normal(0, 0.05, n)
    X[:, 7] = 1 - y + rng.normal(0, 0.05, n)
    return X, y, [3, 7]


def brute_force_top_features(X, y, k):
    """Oracle: rank single features by best threshold accuracy."""
    scores = []
    for j in range(X.shape[1]):
        col = X[:, j]
        best = 0.0
        for t in np.quantile(col, np.linspace(0.05, 0.95, 19)):
            acc = max(((col > t) == y).mean(), ((col <= t) == y).mean())
            best = max(best, acc)
        scores.append(best)
    return sorted(np.argsort(scores)[-k:])


def fit(X, Y, epochs, start=None):
    """fit_logreg of the (n x c) ``Y`` with uniform sample weights and no
    column masked."""
    mask = np.ones((Y.shape[1], X.shape[1]))
    return fit_logreg(X, Y, np.ones(Y.shape), mask, epochs, start)


class TestLogReg:
    def test_zero_epochs_returns_zero_weights(self):
        X = np.random.default_rng(0).random((10, 3))
        W, b = fit(X, np.zeros((10, 1), dtype=int), 0)
        assert (W == 0).all() and (b == 0.0).all()
        assert W.shape == (1, 3) and b.shape == (1,)

    def test_separable_1d(self):
        rng = np.random.default_rng(1)
        x = np.concatenate([rng.uniform(-2, -1, 100), rng.uniform(1, 2, 100)])
        y = (x > 0).astype(int)
        W, b = fit(x.reshape(-1, 1), y.reshape(-1, 1), 200)
        # sigmoid(z) >= 0.5 exactly when z >= 0
        predicted = (x.reshape(-1, 1) @ W.T + b >= 0)[:, 0]
        assert (predicted.astype(int) == y).mean() == 1.0

    def test_deterministic(self):
        X, y, _ = informative_matrix(seed=5)
        W1, _ = fit(X, y[:, None], 50)
        W2, _ = fit(X, y[:, None], 50)  # zero init: no randomness
        assert np.array_equal(W1, W2)

    def test_all_same_label_trains(self):
        X = np.random.default_rng(2).random((20, 4))
        W, _ = fit(X, np.zeros((20, 1), dtype=int), 20)
        assert np.isfinite(W).all()

    def test_dimension_mismatch(self):
        X = np.ones((5, 2))
        with pytest.raises(ValueError):
            fit(X, np.zeros((4, 1), dtype=int), 200)
        with pytest.raises(ValueError):  # targets are (n x c), never 1-D
            fit_logreg(X, np.zeros(5), np.ones(5), np.ones((1, 2)), 200)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("targets", [1, 2])
    def test_start_continues_a_fit(self, monkeypatch, dtype, targets):
        """Without momentum, 30 epochs, then 20 from their weights and bias,
        are the 50 epochs of one fit, bit for bit."""
        monkeypatch.setattr(features, "MOMENTUM", 0.0)
        X, y, _ = informative_matrix()
        X = X.astype(dtype)
        Y = y[:, None] if targets == 1 else np.stack([y, 1 - y], axis=1)
        whole = fit(X, Y, 50)
        first = fit(X, Y, 30)
        kept = first[0].copy()
        rest = fit(X, Y, 20, start=first)
        assert np.array_equal(rest[0], whole[0])
        assert np.array_equal(rest[1], whole[1])
        assert np.array_equal(first[0], kept)

    def test_start_begins_at_zero_velocity(self):
        """20 epochs from the weights and bias of 30 are 20 heavy-ball
        epochs from those weights at zero velocity, not the last 20 of one
        50-epoch fit."""
        X, y, _ = informative_matrix()
        first = fit(X, y[:, None], 30)
        W, b = fit(X, y[:, None], 20, start=first)
        sw = np.full(len(y), 1.0 / len(y))
        w_ref, b_ref = reference_fit(X, y, sw, 20, first[0][0], first[1][0])
        np.testing.assert_allclose(W[0], w_ref, rtol=1e-12, atol=1e-15)
        assert b[0] == pytest.approx(b_ref, rel=1e-12)
        whole = fit(X, y[:, None], 50)
        assert not np.allclose(W, whole[0], rtol=1e-6, atol=0)

    def test_start_of_the_wrong_size_rejected(self):
        X, y, _ = informative_matrix()
        with pytest.raises(ValueError):
            fit(X, y[:, None], 200, start=(np.zeros(X.shape[1] + 1), 0.0))

    @pytest.mark.parametrize("dtype,want", [
        (np.float32, np.float32), (np.float64, np.float64),
        (np.int64, np.float64)])
    def test_computes_in_input_dtype(self, dtype, want):
        X, y, _ = informative_matrix()
        X = (X * 10).astype(dtype)
        for Y in (y[:, None], np.stack([y, 1 - y], axis=1)):
            W, b = fit(X, Y, 20)
            assert W.dtype == want and b.dtype == want


class TestInverseFrequencyWeights:
    def test_balances_classes(self):
        y = np.array([1, 0, 0, 0])
        w = inverse_frequency_weights(y)
        assert w[y == 1].sum() == pytest.approx(w[y == 0].sum())

    def test_degenerate_target_uniform(self):
        assert (inverse_frequency_weights(np.zeros(5, dtype=int)) == 1.0).all()


class TestRFE:
    """RFE of one target, the one row of ``[y]``."""

    def test_identity_when_target_is_all(self):
        X, y, _ = informative_matrix()
        assert rfe(X, [y], X.shape[1], 5) == [list(range(X.shape[1]))]

    def test_finds_informative_columns(self):
        X, y, informative = informative_matrix()
        [selected] = rfe(X, [y], 2, 1)
        assert selected == informative
        assert selected == brute_force_top_features(X, y, 2)

    def test_step_clamps_to_shortfall(self):
        X, y, informative = informative_matrix()
        [selected] = rfe(X, [y], 2, 100)
        assert len(selected) == 2

    def test_invariant_to_appended_zero_columns(self):
        X, y, informative = informative_matrix()
        padded = np.hstack([X, np.zeros((X.shape[0], 3))])
        assert rfe(padded, [y], 2, 1) == [informative]

    def test_deterministic(self):
        X, y, _ = informative_matrix(seed=9)
        assert rfe(X, [y], 3, 5) == rfe(X, [y], 3, 5)

    @pytest.mark.parametrize("run", [
        lambda X, y: rfe(X, [y], 2, 3),
        lambda X, y: select_union(X, y, k=2, step=3)])
    def test_fits_in_float32(self, monkeypatch, run):
        seen = []

        def spy(X, *args, **kwargs):
            seen.append(X.dtype)
            return fit_logreg(X, *args, **kwargs)

        monkeypatch.setattr(features, "fit_logreg", spy)
        X, y, _ = informative_matrix()
        run(X, y)
        assert seen and all(dtype == np.float32 for dtype in seen)


class TestSelectUnion:
    def _labels_5class(self, n=250, seed=4):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 5, n)
        X = rng.random((n, 12))
        for c in range(5):
            X[:, c] = (y == c) + rng.normal(0, 0.05, n)
        return X, y

    def test_union_properties(self):
        X, y = self._labels_5class()
        per_class = select_union(X, y, k=3, step=1)
        union = set().union(*per_class.values())
        assert 3 <= len(union) <= 15
        assert all(0 <= i < X.shape[1] for i in union)
        for indices in per_class.values():
            assert len(indices) == 3
            assert indices == sorted(set(indices))
        # each class's discriminative column survives its own RFE
        for c, cls in enumerate(["DoS", "Normal", "Probe", "R2L", "U2R"]):
            assert c in per_class[cls]

    def test_absent_class_still_runs(self, capsys):
        X = np.random.default_rng(0).random((60, 6))
        y = np.zeros(60, dtype=int)  # only DoS present
        per_class = select_union(X, y, k=2, step=1)
        assert len(per_class) == 5
        assert len(set().union(*per_class.values())) <= 10
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("warning: ")
        assert "absent" in err
        assert all(cls in err for cls in ("Normal", "Probe", "R2L", "U2R"))

    def test_union_deduplicates(self):
        # five classes keep 3 of 6 columns each: 15 picks over at most 6
        # columns, so the lists must overlap and the union collapses them
        X, y = self._labels_5class()
        per_class = select_union(X[:, :6], y, k=3, step=1)
        picks = [i for indices in per_class.values() for i in indices]
        mask = sorted(set().union(*per_class.values()))
        assert len(picks) == 15
        assert len(mask) < len(picks)
        assert len(mask) == len(set(mask)) <= 6
        assert set(mask) == set(picks)


def reference_fit(X, y, sw, epochs, w, b, lr=0.1):
    """Oracle: ``epochs`` of heavy-ball descent (features.MOMENTUM) on the
    logistic loss of one target, weighted by ``sw`` (summing to 1), in
    float64, from the weights ``w`` and bias ``b`` at zero velocity."""
    w, b = np.array(w, dtype=np.float64), float(b)
    v_w, v_b = np.zeros_like(w), 0.0
    for _ in range(epochs):
        p = 1.0 / (1.0 + np.exp(-np.clip(X @ w + b, -60.0, 60.0)))
        err = (p - y) * sw
        v_w = features.MOMENTUM * v_w + lr * (X.T @ err)
        v_b = features.MOMENTUM * v_b + lr * err.sum()
        w -= v_w
        b -= v_b
    return w, b


def reference_rfe(X, y, target_k, step, lr=0.1,
                  epochs=features.FIRST_EPOCHS, warm=True):
    """Oracle: the single-target fit-and-drop loop of one class, in float64.
    Warm, as select_union runs it: the first fit runs ``epochs`` from zero,
    and each later fit runs features.REFIT_EPOCHS from the last fit's
    weights, the dropped ones deleted, and its bias. Cold: every fit runs
    ``epochs`` from zero."""
    sw = inverse_frequency_weights(y)
    sw = sw / sw.sum()
    remaining = list(range(X.shape[1]))
    w, b = np.zeros(len(remaining)), 0.0
    fit_epochs = epochs
    while len(remaining) > target_k:
        w, b = reference_fit(X[:, remaining], y, sw, fit_epochs, w, b, lr)
        drop = min(step, len(remaining) - target_k)
        order = np.argsort(np.abs(w), kind="stable")
        for pos in sorted(order[:drop], reverse=True):
            remaining.pop(int(pos))
        if warm:
            w = np.delete(w, order[:drop])
            fit_epochs = features.REFIT_EPOCHS
        else:
            w, b = np.zeros(len(remaining)), 0.0
    return remaining


class TestSelectUnionOracle:
    def _imbalanced(self, n=400, d=18, seed=7):
        """Skewed classes with U2R absent; each present class lifts one
        column, and columns 16-17 are all zero, so their weights tie at 0."""
        rng = np.random.default_rng(seed)
        y = rng.choice(5, n, p=[0.5, 0.3, 0.15, 0.05, 0.0])
        X = rng.random((n, d))
        for c in range(4):
            X[:, 2 * c] += 0.8 * (y == c)
        X[:, 16:] = 0.0
        return X, y

    @pytest.mark.parametrize("k,step", [(3, 1), (4, 5), (2, 100)])
    def test_per_class_lists_equal_single_target_loop(self, k, step):
        X, y = self._imbalanced()
        per_class = select_union(X, y, k=k, step=step)
        for cls in AttackClass:
            target = (y == cls).astype(np.int64)
            assert per_class[cls.name] == reference_rfe(
                X, target, k, step), cls.name
            assert [per_class[cls.name]] == rfe(X, [target], k, step)

    def test_multi_target_fit_equals_masked_single_fits(self):
        X, y = self._imbalanced()
        Y = np.stack([(y == c) for c in range(3)], axis=1).astype(float)
        mask = np.ones((3, X.shape[1]))
        mask[1, :5] = 0
        W, b = fit_logreg(X, Y, np.ones(Y.shape), mask, 50)
        assert (W[1, :5] == 0).all()
        assert W.shape == (3, X.shape[1])
        for c in (0, 2):
            single_W, single_b = fit(X, Y[:, [c]], 50)
            np.testing.assert_allclose(W[c], single_W[0], rtol=1e-12,
                                       atol=1e-15)
            assert b[c] == pytest.approx(single_b[0], rel=1e-12)
        kept_W, _ = fit(X[:, 5:], Y[:, [1]], 50)
        np.testing.assert_allclose(W[1, 5:], kept_W[0], rtol=1e-12,
                                   atol=1e-15)
        scores = X @ W.T + b
        assert scores.shape == (X.shape[0], 3)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_one_hot_corpus_lists_equal_float64_loop(self, seed):
        """The float32 elimination on prep's one-hot layout picks the lists
        of the float64 single-target loop."""
        records = parse_records(make_kdd_lines(n=400, seed=seed))
        y = map_labels(records, load_attack_mapping())
        X = apply_pipeline(fit_pipeline(records), records)
        per_class = select_union(X, y, k=5, step=4)
        for cls in AttackClass:
            target = (y == cls).astype(np.int64)
            assert per_class[cls.name] == reference_rfe(
                X, target, 5, 4), cls.name


class TestWarmStart:
    def test_each_refit_starts_from_the_last_fit(self, monkeypatch):
        X, y = TestSelectUnionOracle()._imbalanced()
        index = {X[:, j].astype(np.float32).tobytes(): j
                 for j in range(X.shape[1])}
        fits = []

        def spy(X, Y, sample_weights, mask, epochs, start=None):
            fitted = fit_logreg(X, Y, sample_weights, mask, epochs, start)
            union = [index[col.tobytes()] for col in X.T]
            fits.append((union, mask, epochs, start, fitted))
            return fitted

        monkeypatch.setattr(features, "fit_logreg", spy)
        select_union(X, y, k=3, step=4)    # fits at 18, 14, 10 and 6 left
        F, C = features.FIRST_EPOCHS, features.REFIT_EPOCHS
        assert [epochs for _, _, epochs, _, _ in fits] == [F, C, C, C]
        assert fits[0][3] is None          # fit_logreg starts at zero
        for (union0, _, _, _, last), (union, mask, _, start, _) in zip(
                fits, fits[1:]):
            weights, bias = start
            assert set(union) <= set(union0)
            last_weights, last_bias = last
            on_union = last_weights[:, [union0.index(j) for j in union]]
            assert np.array_equal(weights[mask], on_union[mask])
            assert (weights[~mask] == 0).all() and (~mask).any()
            assert np.array_equal(bias, last_bias)

    @pytest.mark.parametrize("k", [3, 8])
    def test_one_elimination_equals_float64_cold_loop(self, k):
        X, y = TestSelectUnionOracle()._imbalanced()
        step = X.shape[1] - k
        per_class = select_union(X, y, k=k, step=step)
        for cls in AttackClass:
            target = (y == cls).astype(np.int64)
            assert per_class[cls.name] == reference_rfe(
                X, target, k, step, warm=False), cls.name


class TestSelectUnionOracleInBlocks(TestSelectUnionOracle):
    """The oracle tests again, every fit run in SMALL_BLOCK_BYTES blocks."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(features, "BLOCK_BYTES", SMALL_BLOCK_BYTES)

    @pytest.mark.parametrize("corpus", ["imbalanced", "one_hot"])
    @pytest.mark.parametrize("itemsize", [4, 8])
    def test_first_fit_crosses_ragged_blocks(self, corpus, itemsize):
        if corpus == "imbalanced":
            X, _ = self._imbalanced()
        else:
            records = parse_records(make_kdd_lines(n=400, seed=0))
            X = apply_pipeline(fit_pipeline(records), records)
        rows = features._block_rows(X.shape[1], itemsize)
        assert len(X) // rows >= 5 and len(X) % rows


def five_target_problem(n=400, d=18, seed=7):
    """(X, Y, sample weights, mask) of a class-balanced five-target fit
    whose mask drops a few columns of two targets."""
    rng = np.random.default_rng(seed)
    y = rng.choice(5, n, p=[0.5, 0.3, 0.15, 0.04, 0.01])
    X = rng.random((n, d))
    for c in range(5):
        X[:, 3 * c] += 0.8 * (y == c)
    Y = np.stack([y == c for c in range(5)], axis=1).astype(float)
    sw = np.stack([inverse_frequency_weights(t) for t in Y.T], axis=1)
    mask = np.ones((5, d))
    mask[1, :4] = mask[3, 10:] = 0
    return X, Y, sw, mask


def kdd_problem(seed):
    """(X, Y, sample weights, mask) of the class-balanced five-class fit
    that select_union's first elimination runs on a 400-row one-hot
    corpus through prep's pipeline, no column masked."""
    records = parse_records(make_kdd_lines(n=400, seed=seed))
    y = map_labels(records, load_attack_mapping())
    X = apply_pipeline(fit_pipeline(records), records)
    Y = np.stack([y == cls for cls in AttackClass], axis=1).astype(float)
    sw = np.stack([inverse_frequency_weights(t) for t in Y.T], axis=1)
    return X, Y, sw, np.ones((Y.shape[1], X.shape[1]))


def weighted_logistic_loss(X, Y, sw, W, b):
    """Each target's logistic loss, weighted by its column of ``sw``
    normalised to sum to 1, in float64."""
    z = X.astype(np.float64) @ W.T.astype(np.float64) + b
    sw = sw / sw.sum(axis=0)
    return (sw * (np.logaddexp(0.0, z) - Y * z)).sum(axis=0)


class TestMomentum:
    """Why the first fit can be short: FIRST_EPOCHS heavy-ball epochs end
    lower on every target's loss than 200 epochs of plain descent."""

    @pytest.mark.parametrize("problem", [
        five_target_problem, lambda: kdd_problem(0), lambda: kdd_problem(1)],
        ids=["five_target", "kdd_seed0", "kdd_seed1"])
    def test_first_fit_beats_200_plain_epochs(self, monkeypatch, problem):
        X, Y, sw, mask = problem()
        fast = fit_logreg(X, Y, sw, mask, features.FIRST_EPOCHS)
        monkeypatch.setattr(features, "MOMENTUM", 0.0)
        plain = fit_logreg(X, Y, sw, mask, 200)
        fast_loss = weighted_logistic_loss(X, Y, sw, *fast)
        plain_loss = weighted_logistic_loss(X, Y, sw, *plain)
        assert (fast_loss < plain_loss).all(), (fast_loss, plain_loss)


class TestBlockedFit:
    def fit(self, monkeypatch, budget, X, Y, sw, mask):
        monkeypatch.setattr(features, "BLOCK_BYTES", budget)
        return fit_logreg(X, Y, sw, mask, 200)

    # float32 sums in block order move the last bits of the weights, whose
    # magnitudes reach about 2.2 here: measured up to 2.4e-7 (one ulp)
    @pytest.mark.parametrize("dtype,rtol,atol", [
        (np.float64, 1e-12, 1e-15), (np.float32, 1e-5, 1e-6)])
    def test_blocked_equals_one_block(self, monkeypatch, dtype, rtol, atol):
        X, Y, sw, mask = five_target_problem()
        X = X.astype(dtype)
        one = self.fit(monkeypatch, 1 << 30, X, Y, sw, mask)
        blocked = self.fit(monkeypatch, SMALL_BLOCK_BYTES, X, Y, sw, mask)
        rows = features._block_rows(X.shape[1], X.itemsize)
        assert len(X) // rows >= 5 and len(X) % rows
        assert blocked[0].dtype == dtype
        assert (blocked[0][mask == 0] == 0).all()
        np.testing.assert_allclose(blocked[0], one[0], rtol=rtol, atol=atol)
        np.testing.assert_allclose(blocked[1], one[1], rtol=rtol, atol=atol)

    @pytest.mark.parametrize("n", [1, 3, 55, 56])
    def test_fewer_samples_than_one_block(self, monkeypatch, n):
        """Up to 56 float32 rows of 18 columns fit in one 4 KB block: the
        products are the one-call products, bit for bit."""
        X, Y, sw, mask = five_target_problem(n=n)
        X = X.astype(np.float32)
        blocked = self.fit(monkeypatch, SMALL_BLOCK_BYTES, X, Y, sw, mask)
        assert features._block_rows(X.shape[1], 4) == 56
        one = self.fit(monkeypatch, 1 << 30, X, Y, sw, mask)
        assert np.array_equal(blocked[0], one[0])
        assert np.array_equal(blocked[1], one[1])

    def test_one_sample_past_a_block(self, monkeypatch):
        X, Y, sw, mask = five_target_problem(n=57)
        X = X.astype(np.float32)
        blocked = self.fit(monkeypatch, SMALL_BLOCK_BYTES, X, Y, sw, mask)
        assert features._block_rows(X.shape[1], 4) == 56
        one = self.fit(monkeypatch, 1 << 30, X, Y, sw, mask)
        assert (blocked[0][mask == 0] == 0).all()
        np.testing.assert_allclose(blocked[0], one[0], rtol=1e-5, atol=1e-6)


def test_lists_independent_of_blas_threads():
    """select_union picks the same lists at one and at two BLAS threads, on
    a matrix of three blocks of the default budget whose products are large
    enough for OpenBLAS to split."""
    controls = openblas_threads()
    if controls is None:
        pytest.skip("no OpenBLAS thread control in this numpy build")
    get, set_ = controls
    rng = np.random.default_rng(3)
    n, d = 10_000, 30
    y = rng.choice(5, n, p=[0.4, 0.3, 0.2, 0.07, 0.03])
    X = rng.random((n, d))
    for c in range(5):
        X[:, 2 * c] += 0.5 * (y == c)
    assert n // features._block_rows(d, 4) == 2
    before = get()
    lists = []
    try:
        for threads in (1, 2):
            set_(threads)
            lists.append(select_union(X, y, k=10, step=10))
    finally:
        set_(before)
    assert lists[0] == lists[1]
