import numpy as np
import pytest

from fedmimic.nn import (AdamState, ModelParams, TrainConfig, adam_step,
                         backward, forward, init_model, loss, predict,
                         to_one_hot, train_local)
from fedmimic.nn import _forward_cached

from conftest import toy_separable, write_model


def models_equal(a, b):
    return (all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
            and all(np.array_equal(x, y) for x, y in zip(a.biases, b.biases)))


class TestInitModel:
    def test_deterministic(self):
        assert models_equal(init_model(42, 256, 5, seed=7),
                            init_model(42, 256, 5, seed=7))

    def test_shapes(self):
        m = init_model(42, 256, 5, seed=0)
        assert [w.shape for w in m.weights] == [(256, 42), (256, 256), (5, 256)]
        assert [b.shape for b in m.biases] == [(256,), (256,), (5,)]
        assert all(b.sum() == 0 for b in m.biases)

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            init_model(0, 256, 5, seed=0)
        with pytest.raises(ValueError):
            init_model(42, -1, 5, seed=0)


class TestFlatLayout:
    def test_layer_views_alias_the_buffer(self):
        m = init_model(6, 4, 5, seed=0)
        assert np.array_equal(m.buf, np.concatenate(
            [a.ravel() for w, b in zip(m.weights, m.biases) for a in (w, b)]))
        for arr in m.weights + m.biases:
            assert np.shares_memory(arr, m.buf)
        m.weights[1][2, 3] = 7.0
        m.biases[2][4] = -3.0
        assert m.buf[6 * 4 + 4 + 2 * 4 + 3] == 7.0
        assert m.buf[-1] == -3.0
        m.buf[0] = 11.0
        assert m.weights[0][0, 0] == 11.0

    def test_copy_is_independent(self):
        m = init_model(6, 4, 5, seed=0)
        c = m.copy()
        assert models_equal(m, c) and not np.shares_memory(c.buf, m.buf)
        c.weights[0][:] = 1.0
        c.biases[1][:] = 2.0
        assert not (m.weights[0] == 1.0).any()
        assert (m.biases[1] == 0.0).all()

    def test_wrong_buffer_size_rejected(self):
        with pytest.raises(ValueError):
            ModelParams([(2, 3)], np.zeros(8))

    def test_check_finite_passes_huge_finite_parameters(self):
        # the sum of squares overflows, so the exact scan decides
        m = ModelParams([(1, 1)], np.array([3e38, 3e38], np.float32))
        m.check_finite()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_check_finite_names_the_layer(self, bad):
        m = init_model(3, 4, 5, seed=0)
        m.weights[1][2, 0] = bad
        with pytest.raises(FloatingPointError, match="in layer 1"):
            m.check_finite()
        m.weights[1][2, 0] = 0.0
        m.biases[2][4] = bad
        with pytest.raises(FloatingPointError, match="in layer 2"):
            m.check_finite()


class TestForward:
    def test_zero_weights_give_uniform(self):
        m = init_model(6, 4, 5, seed=0)
        for w in m.weights:
            w[:] = 0.0
        p = forward(m, np.random.default_rng(0).random((3, 6)))
        assert np.allclose(p, 0.2)

    def test_relu_on_hidden_preactivation(self):
        # first layer passes the input through unchanged, so the hidden
        # activation is relu of the input itself
        m = init_model(2, 2, 5, seed=0)
        m.weights[0][:] = np.eye(2)
        m.biases[0][:] = 0.0
        _, post, _ = _forward_cached(m, np.array([[-1.0, 2.0]]))
        assert np.array_equal(post[1], [[0.0, 2.0]])

    def test_rows_sum_to_one(self):
        m = init_model(9, 16, 5, seed=3)
        p = forward(m, np.random.default_rng(1).random((8, 9)))
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-6
        assert (p >= 0).all() and (p <= 1).all()

    def test_dimension_mismatch(self):
        m = init_model(9, 16, 5, seed=3)
        with pytest.raises(ValueError):
            forward(m, np.zeros((4, 7)))


class TestDropout:
    RATE = 0.4
    KEEP = round((1 - RATE) * 65536) / 65536  # 0.600006

    @staticmethod
    def masks(seed, dtype=np.float32, rate=RATE):
        """The two hidden-layer masks of one training forward of 128 rows
        through 256-unit layers."""
        m = init_model(3, 256, 5, seed=0)
        m = m.like(m.buf.astype(dtype))
        X = np.random.default_rng(1).random((128, 3))
        _, _, masks = _forward_cached(m, X.astype(dtype), rate,
                                      np.random.default_rng(seed))
        return masks[:2]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mask_is_zero_or_inverse_keep(self, dtype):
        scale = np.divide(True, self.KEEP, dtype=dtype)
        for mask in self.masks(0, dtype):
            assert mask.dtype == dtype and mask.shape == (128, 256)
            assert set(np.unique(mask)) == {0.0, scale}

    def test_kept_share_matches_rounded_keep_probability(self):
        kept = sum(int(np.count_nonzero(mask))
                   for seed in range(32) for mask in self.masks(seed))
        n = 64 * 128 * 256
        sigma = np.sqrt(self.KEEP * (1 - self.KEEP) / n)
        assert abs(kept / n - self.KEEP) < 4 * sigma

    def test_masks_deterministic_per_seed(self):
        a, b, c = self.masks(5), self.masks(5), self.masks(6)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not np.array_equal(a[0], c[0])
        assert not np.array_equal(a[0], a[1])

    def test_least_keep_probability(self):
        # 1 - 2**-16 keeps one 16-bit draw in 65,536; validate() allows it
        rate = 1.0 - 2.0 ** -16
        TrainConfig(dropout_rate=rate).validate()
        scale = np.divide(True, 2.0 ** -16, dtype=np.float32)
        for mask in self.masks(0, rate=rate):
            assert set(np.unique(mask)) <= {0.0, scale}


class TestLoss:
    def test_perfect_probs_zero_loss(self):
        t = to_one_hot(np.array([0, 3, 1]), 5)
        assert loss(t, t, "mae") == 0.0
        assert loss(t, t, "xent") == pytest.approx(0.0, abs=1e-12)

    def test_uniform_mae(self):
        p = np.full((2, 5), 0.2)
        t = to_one_hot(np.array([1, 4]), 5)
        assert loss(p, t, "mae") == pytest.approx(0.32)

    def test_uniform_xent(self):
        p = np.full((2, 5), 0.2)
        t = to_one_hot(np.array([1, 4]), 5)
        assert loss(p, t, "xent") == pytest.approx(np.log(5))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            loss(np.zeros((2, 5)), np.zeros((3, 5)), "mae")


class TestBackward:
    @pytest.mark.parametrize("kind", ["mae", "xent"])
    def test_matches_finite_differences(self, kind):
        # central finite differences on the full loss, dropout off
        rng = np.random.default_rng(0)
        m = init_model(7, 6, 5, seed=4)
        m = m.like(m.buf.astype(np.float64))  # exact float64 check
        X = rng.random((5, 7))
        T = to_one_hot(rng.integers(0, 5, 5), 5)
        cfg = TrainConfig(dropout_rate=0.0, loss=kind)
        g = m.like(backward(m, X, T, cfg)[0])
        h = 1e-4
        for k in range(len(m.weights)):
            for params, grads in ((m.weights[k], g.weights[k]),
                                  (m.biases[k], g.biases[k])):
                flat = params.reshape(-1)
                gflat = grads.reshape(-1)
                for idx in range(0, flat.size, max(1, flat.size // 7)):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    lp = loss(forward(m, X), T, kind)
                    flat[idx] = orig - h
                    lm = loss(forward(m, X), T, kind)
                    flat[idx] = orig
                    fd = (lp - lm) / (2 * h)
                    denom = max(abs(fd), abs(gflat[idx]), 1e-8)
                    assert abs(fd - gflat[idx]) / denom < 1e-4

    def test_deterministic_with_dropout(self):
        m = init_model(4, 6, 5, seed=1)
        X = np.zeros((3, 4))
        T = np.zeros((3, 5))
        cfg = TrainConfig(dropout_rate=0.4)
        g1 = m.like(backward(m, X, T, cfg, np.random.default_rng(5))[0])
        g2 = m.like(backward(m, X, T, cfg, np.random.default_rng(5))[0])
        assert all(np.isfinite(d).all() for d in g1.biases)
        assert all(np.array_equal(a, b)
                   for a, b in zip(g1.weights, g2.weights))

    def test_duplicated_rows_leave_mean_gradient_unchanged(self):
        rng = np.random.default_rng(3)
        m = init_model(5, 6, 5, seed=2)
        X = rng.random((4, 5))
        T = to_one_hot(rng.integers(0, 5, 4), 5)
        cfg = TrainConfig(dropout_rate=0.0)
        g1 = m.like(backward(m, X, T, cfg)[0])
        g2 = m.like(backward(m, np.vstack([X, X]), np.vstack([T, T]), cfg)[0])
        for a, b in zip(g1.weights, g2.weights):
            assert np.allclose(a, b, atol=1e-12)


class TestAdamStep:
    def _scalar_model(self, w=1.0):
        m = ModelParams([(1, 1)])
        m.weights[0][0, 0] = w
        return m

    def test_zero_gradient_is_noop(self):
        m = init_model(3, 4, 5, seed=0)
        m2, s2 = m.copy(), AdamState.zeros_like(m)
        g = np.zeros_like(m.buf)
        adam_step(m2, g, s2, TrainConfig())
        assert models_equal(m, m2)
        assert s2.t == 1

    def test_single_scalar_hand_calculation(self):
        # fresh state, g=1: both moment estimates bias-correct to exactly 1,
        # so the step is lr / (1 + eps)
        cfg = TrainConfig(learning_rate=0.001, beta1=0.1, beta2=0.99,
                          epsilon=1e-7)
        m2 = self._scalar_model(1.0)
        g = m2.like(np.zeros_like(m2.buf))
        g.weights[0][0, 0] = 1.0
        adam_step(m2, g.buf, AdamState.zeros_like(m2), cfg)
        expected = 1.0 - 0.001 * 1.0 / (1.0 + 1e-7)
        assert m2.weights[0][0, 0] == pytest.approx(expected, rel=1e-12)
        assert m2.biases[0][0] == 0.0

    @pytest.mark.parametrize("dtype, rel", [(np.float64, 1e-12),
                                            (np.float32, 1e-5)])
    def test_folded_update_matches_textbook_form(self, dtype, rel):
        # each step starts from zero parameters, so they end as minus the
        # update itself and the tolerance is on the update, not on the
        # rounding of p - update
        cfg = TrainConfig()
        lr, b1, b2, eps = (cfg.learning_rate, cfg.beta1, cfg.beta2,
                           cfg.epsilon)
        m = ModelParams([(6, 8), (8, 5)], np.zeros(101, dtype))
        state = AdamState.zeros_like(m)
        rng = np.random.default_rng(0)
        for t in range(1, 201):
            scale = 10.0 ** rng.uniform(-4, 0)
            g = (rng.standard_normal(m.buf.size) * scale).astype(dtype)
            mom = b1 * state.m + (1 - b1) * g
            vel = b2 * state.v + (1 - b2) * g * g
            expected = -lr * (mom / (1 - b1 ** t)) / (
                np.sqrt(vel / (1 - b2 ** t)) + eps)
            m.buf[:] = 0.0
            adam_step(m, g, state, cfg)
            assert m.buf.dtype == state.m.dtype == state.v.dtype == dtype
            assert m.buf == pytest.approx(expected, rel=rel)

    def test_bit_identical_repeat(self):
        m = init_model(4, 5, 5, seed=6)
        X = np.random.default_rng(0).random((3, 4))
        T = to_one_hot(np.array([0, 1, 2]), 5)
        cfg = TrainConfig(dropout_rate=0.0)
        g, _ = backward(m, X, T, cfg)
        m1, m2 = m.copy(), m.copy()
        adam_step(m1, g, AdamState.zeros_like(m), cfg)
        adam_step(m2, g, AdamState.zeros_like(m), cfg)
        assert models_equal(m1, m2)

    def test_dead_units_leave_no_subnormal_moments(self):
        # a dead ReLU unit's gradients stay exactly 0, so its moments only
        # decay; without a flush this v is subnormal by step 2,048
        m = init_model(4, 8, 5, seed=0)
        state = AdamState.zeros_like(m)
        rng = np.random.default_rng(0)
        dead = rng.random(m.buf.size) < 0.5
        for t in range(2048):
            scale = 1e-15 if t < 50 else 1e-3
            g = (rng.standard_normal(m.buf.size) * scale).astype(np.float32)
            if t >= 50:
                g[dead] = 0.0
            adam_step(m, g, state, TrainConfig())
        tiny = np.finfo(np.float32).tiny
        for moment in (state.m, state.v):
            assert moment.dtype == np.float32
            assert not ((moment != 0) & (np.abs(moment) < tiny)).any()
        assert (state.v[~dead] > 0).all()

    def test_shape_mismatch(self):
        m = self._scalar_model()
        g = np.zeros(5)  # a (2, 2) weight plus one bias; the model has 1 + 1
        with pytest.raises(ValueError):
            adam_step(m, g, AdamState.zeros_like(m), TrainConfig())


def record_matmul(mp) -> list:
    """Patch np.matmul through the MonkeyPatch ``mp`` to record every array
    it returns. In one backward those are, per layer, the forward output
    and the weight gradient, and the error back-propagated to each hidden
    layer, as they stand after the in-place updates that follow."""
    results, matmul = [], np.matmul

    def spy(*args, **kwargs):
        results.append(matmul(*args, **kwargs))
        return results[-1]
    mp.setattr(np, "matmul", spy)
    return results


class TestDtype:
    """Arithmetic stays in the parameter vector's dtype: nothing a step
    allocates or returns is silently upcast."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_array_keeps_the_model_dtype(self, dtype, tmp_path,
                                               monkeypatch):
        from fedmimic.fedsim import fedavg
        from fedmimic.modelio import load_model
        m = init_model(4, 8, 5, seed=0)
        assert m.buf.dtype == np.float32
        m = m.like(m.buf.astype(dtype))
        X, y = toy_separable(40, seed=1)  # float64 features
        cfg = TrainConfig(epochs=2, batch_size=16, seed=3)
        trained, losses = train_local(m, X, y, cfg)
        assert trained.buf.dtype == dtype and np.isfinite(losses).all()
        assert all(a.dtype == dtype for a in trained.weights + trained.biases)

        with monkeypatch.context() as mp:
            products = record_matmul(mp)
            grad, probs = backward(m, X[:16], to_one_hot(y[:16], 5), cfg,
                                   np.random.default_rng(0))
        assert len(products) == 3 + 3 + 2
        _, post, masks = _forward_cached(m, X[:16].astype(dtype),
                                         cfg.dropout_rate,
                                         np.random.default_rng(0))
        assert len(masks) == 2
        assert grad.dtype == probs.dtype == dtype
        assert all(a.dtype == dtype for a in [*products, *post, *masks])
        state = AdamState.zeros_like(m)
        adam_step(m, grad, state, cfg)
        assert m.buf.dtype == dtype
        assert all(a.dtype == dtype for a in (state.m, state.v, state.tmp))
        assert forward(m, X).dtype == dtype

        assert fedavg([m, trained], [1.0, 3.0]).buf.dtype == dtype
        path = tmp_path / "m.fmim"
        write_model(trained, path)
        loaded, _ = load_model(path)
        assert loaded.buf.dtype == np.float32
        if dtype == np.float32:  # the file is the trained model, bit for bit
            assert np.array_equal(loaded.buf.view(np.uint32),
                                  trained.buf.view(np.uint32))

    def test_saturated_backward_computes_no_subnormals(self, monkeypatch):
        # softmax flushes probabilities below 1e-12 to 0; their deltas would
        # be float32 subnormals, whose arithmetic is many times slower
        m = init_model(4, 16, 5, seed=0)
        m.weights[2][:] *= 100  # logit gaps in the hundreds
        X = np.random.default_rng(1).random((64, 4))
        T = to_one_hot(np.random.default_rng(2).integers(0, 5, 64), 5)
        with monkeypatch.context() as mp:
            products = record_matmul(mp)
            grad, probs = backward(m, X, T, TrainConfig(dropout_rate=0.0))
        # after the three layer outputs come, from the last layer down, its
        # weight gradient and then the error back-propagated below it
        errors = products[4:7:2]
        assert len(products) == 8
        assert [e.shape for e in errors] == [(64, 16), (64, 16)]
        tiny = np.finfo(np.float32).tiny
        for a in (probs, grad, *products):
            assert not ((a != 0) & (np.abs(a) < tiny)).any()
        assert (probs == 0).any()
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-6

    @pytest.mark.parametrize("dtype", [np.float16, np.int64, np.complex128])
    def test_other_dtypes_rejected(self, dtype):
        with pytest.raises(ValueError):
            ModelParams([(2, 3)], np.zeros(9, dtype))


class TestTrainLocal:
    def test_zero_epochs_is_noop(self):
        m = init_model(4, 8, 5, seed=0)
        X, y = toy_separable(50)
        m2, losses = train_local(m, X, y, TrainConfig(epochs=0))
        assert models_equal(m, m2)
        assert losses == []

    def test_learns_separable_toy(self):
        X, y = toy_separable(200, seed=7)
        cfg = TrainConfig(epochs=10, batch_size=32, dropout_rate=0.0, seed=3)
        m, losses = train_local(init_model(4, 16, 5, seed=1), X, y, cfg)
        assert (predict(m, X) == y).mean() >= 0.99
        assert losses[-1] < losses[0]

    def test_deterministic(self):
        X, y = toy_separable(80, seed=2)
        cfg = TrainConfig(epochs=3, batch_size=16, seed=11)
        m0 = init_model(4, 8, 5, seed=5)
        m1, l1 = train_local(m0, X, y, cfg)
        m2, l2 = train_local(m0, X, y, cfg)
        assert models_equal(m1, m2)
        assert l1 == l2

    def test_empty_dataset_rejected(self):
        m = init_model(4, 8, 5, seed=0)
        with pytest.raises(ValueError):
            train_local(m, np.zeros((0, 4)), np.zeros(0, dtype=int),
                        TrainConfig())

    def test_dropout_free_logged_loss_matches_separate_forward(self):
        # without dropout the training forward is the dropout-free forward,
        # so logging from it must give exactly the loss of a second pass
        X, y = toy_separable(70, seed=8)
        cfg = TrainConfig(epochs=3, batch_size=16, dropout_rate=0.0, seed=2)
        m0 = init_model(4, 8, 5, seed=3)
        _, logged = train_local(m0, X, y, cfg)

        m, state = m0.copy(), AdamState.zeros_like(m0)
        targets = to_one_hot(y, 5)
        rng = np.random.default_rng(cfg.seed)
        expected = []
        for _ in range(cfg.epochs):
            order = rng.permutation(len(y))
            total = 0.0
            for start in range(0, len(y), cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                g, _ = backward(m, X[idx], targets[idx], cfg, rng)
                total += loss(forward(m, X[idx]), targets[idx]) * len(idx)
                adam_step(m, g, state, cfg)
            expected.append(total / len(y))
        assert logged == expected

    def test_short_final_batch_used(self):
        # 50 examples, batch 32: epoch loss averages over all 50
        X, y = toy_separable(50, seed=4)
        cfg = TrainConfig(epochs=1, batch_size=32, dropout_rate=0.0, seed=0)
        _, losses = train_local(init_model(4, 8, 5, seed=0), X, y, cfg)
        assert len(losses) == 1 and np.isfinite(losses[0])


class TestPredict:
    def test_uniform_probs_tie_break_to_zero(self):
        m = init_model(3, 4, 5, seed=0)
        for w in m.weights:
            w[:] = 0.0
        assert (predict(m, np.random.default_rng(0).random((6, 3))) == 0).all()

    def test_argmax(self):
        row = np.array([[0.1, 0.7, 0.1, 0.05, 0.05]])
        assert row.argmax(axis=1)[0] == 1  # definition check for the rule

    def test_empty_batch(self):
        m = init_model(3, 4, 5, seed=0)
        assert predict(m, np.zeros((0, 3))).shape == (0,)


class TestConfigValidation:
    @pytest.mark.parametrize("bad", [
        {"dropout_rate": 1.0}, {"dropout_rate": -0.1}, {"batch_size": 0},
        {"beta1": 1.0}, {"beta2": -0.5}, {"loss": "hinge"}, {"epochs": -1},
        {"dropout_rate": 0.99999},
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            TrainConfig(**bad).validate()
