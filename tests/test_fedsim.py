import multiprocessing
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmimic import fedsim
from fedmimic.data import Dataset
from fedmimic.fedsim import (TAG_CLIENT, TAG_INIT, ClientShard, RoundHistory,
                             RoundRecord, derive_seed, fedavg, openblas_threads,
                             run_fl, run_rounds)
from fedmimic.nn import ModelParams, TrainConfig, init_model, train_local

from conftest import toy_separable
from test_nn import models_equal


def scalar_model(w):
    m = ModelParams([(1, 1)], [1])
    m.weights[0][0, 0] = w
    return m


def max_param_diff(a, b):
    return max(max(np.abs(x - y).max() for x, y in zip(a.weights, b.weights)),
               max(np.abs(x - y).max() for x, y in zip(a.biases, b.biases)))


def make_shards(num_clients=3, per_client=40, seed=0):
    X, y = toy_separable(num_clients * per_client, seed=seed)
    return [ClientShard(c, Dataset(X[c * per_client:(c + 1) * per_client],
                                   y[c * per_client:(c + 1) * per_client]))
            for c in range(num_clients)]


FAST = TrainConfig(epochs=2, batch_size=16, dropout_rate=0.0, seed=0)


class TestFedAvg:
    def test_identical_models_average_to_themselves(self):
        m = init_model(4, 6, 5, seed=1)
        avg = fedavg([m.copy(), m.copy(), m.copy()])
        assert max_param_diff(avg, m) < 1e-7

    def test_scalar_mean(self):
        avg = fedavg([scalar_model(1.0), scalar_model(3.0)])
        assert avg.weights[0][0, 0] == 2.0

    def test_weighted_mean(self):
        avg = fedavg([scalar_model(0.0), scalar_model(4.0)], [1.0, 3.0])
        assert avg.weights[0][0, 0] == 3.0

    def test_single_model_identity(self):
        m = init_model(3, 4, 5, seed=2)
        assert models_equal(fedavg([m]), m)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fedavg([])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fedavg([init_model(3, 4, 5, seed=0), init_model(4, 4, 5, seed=0)])

    def test_bad_weights_rejected(self):
        models = [scalar_model(1.0), scalar_model(2.0)]
        with pytest.raises(ValueError):
            fedavg(models, [0.0, 0.0])
        with pytest.raises(ValueError):
            fedavg(models, [1.0, -1.0])

    def test_bit_equal_to_per_layer_sum(self):
        # the flat fold must add in the order a per-layer sum() over the
        # models does, so the result keeps every bit
        rng = np.random.default_rng(7)
        models = [init_model(9, 12, 5, seed=s) for s in range(4)]
        models = [m.like(m.buf.astype(np.float64)) for m in models]
        for m in models:
            m.buf[:] = rng.standard_normal(m.buf.size)
        weights = [0.7, 2.0, 1.3, 0.1]
        avg = fedavg(models, weights)
        w = np.asarray(weights)
        w = w / w.sum()
        for k in range(3):
            for got, per_model in ((avg.weights[k], [m.weights[k] for m in models]),
                                   (avg.biases[k], [m.biases[k] for m in models])):
                ref = sum(wi * p for wi, p in zip(w, per_model))
                assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    @given(values=st.lists(st.floats(-10, 10), min_size=2, max_size=5),
           scale=st.floats(0.1, 100))
    @settings(max_examples=50, deadline=None)
    def test_permutation_and_scale_invariance(self, values, scale):
        models = [scalar_model(v) for v in values]
        weights = [1.0 + i for i in range(len(values))]
        base = fedavg(models, weights)
        perm = np.random.default_rng(0).permutation(len(values))
        permuted = fedavg([models[i] for i in perm],
                          [weights[i] for i in perm])
        scaled = fedavg(models, [w * scale for w in weights])
        assert abs(base.weights[0][0, 0] - permuted.weights[0][0, 0]) < 1e-12
        assert abs(base.weights[0][0, 0] - scaled.weights[0][0, 0]) < 1e-12


class TestRunFl:
    def test_zero_rounds_returns_seeded_init(self):
        shards = make_shards()
        test = Dataset(*toy_separable(30, seed=9))
        model, history = run_fl(shards, test, rounds=0, config=FAST, seed=5,
                                hidden=6)
        expected = init_model(4, 6, 5, seed=derive_seed(5, TAG_INIT))
        assert models_equal(model, expected)
        assert history.rounds == []

    def test_one_client_one_round_equals_train_local(self):
        shards = make_shards(num_clients=1)
        test = Dataset(*toy_separable(30, seed=9))
        model, _ = run_fl(shards, test, rounds=1, config=FAST, seed=3, hidden=6)
        init = init_model(4, 6, 5, seed=derive_seed(3, TAG_INIT))
        cfg = TrainConfig(**{**vars(FAST),
                             "seed": derive_seed(3, TAG_CLIENT, 0, 0)})
        direct, _ = train_local(init, shards[0].data.X, shards[0].data.y, cfg)
        assert max_param_diff(model, direct) < 1e-7

    def test_local_fit_count(self):
        shards = make_shards(num_clients=3)
        test = Dataset(*toy_separable(30, seed=9))
        _, history = run_fl(shards, test, rounds=4, config=FAST, seed=1,
                            hidden=6)
        assert history.total_local_fits == 3 * 4
        assert all(r.local_fits == 3 for r in history.rounds)

    def test_deterministic_history(self):
        shards = make_shards()
        test = Dataset(*toy_separable(30, seed=9))
        _, h1 = run_fl(shards, test, rounds=2, config=FAST, seed=2, hidden=6)
        _, h2 = run_fl(shards, test, rounds=2, config=FAST, seed=2, hidden=6)
        assert h1.to_csv() == h2.to_csv()

    def test_thread_count_invariant(self):
        shards = make_shards()
        test = Dataset(*toy_separable(30, seed=9))
        m1, h1 = run_fl(shards, test, rounds=2, config=FAST, seed=2, hidden=6,
                        threads=1)
        m3, h3 = run_fl(shards, test, rounds=2, config=FAST, seed=2, hidden=6,
                        threads=3)
        assert models_equal(m1, m3)
        assert h1.to_csv() == h3.to_csv()

    def test_empty_shards_rejected(self):
        with pytest.raises(ValueError):
            run_fl([], Dataset(*toy_separable(10)), rounds=1)

    def test_duplicate_ids_rejected(self):
        shards = make_shards(num_clients=2)
        shards[1].client_id = shards[0].client_id
        with pytest.raises(ValueError, match="duplicate client ids"):
            run_fl(shards, Dataset(*toy_separable(10)), rounds=1)

    def test_learns_toy_problem(self):
        shards = make_shards(num_clients=3, per_client=60)
        X, y = toy_separable(60, seed=12)
        _, history = run_fl(shards, Dataset(X, y), rounds=3,
                            config=TrainConfig(epochs=5, batch_size=16,
                                               dropout_rate=0.0),
                            seed=0, hidden=12)
        assert history.rounds[-1].test_accuracy > 90.0


class TestClientPool:
    """run_rounds' client workers: BLAS at one thread inside them, the
    caller's count untouched, one warning where BLAS cannot be pinned, a
    failing client raising as it would in the serial loop, and no worker
    left behind."""

    @pytest.fixture
    def blas(self):
        if openblas_threads() is None:
            pytest.skip("no OpenBLAS thread control in this numpy")
        get, set_ = openblas_threads()
        old = get()
        set_(2)  # a count the workers must not inherit or change
        yield get
        set_(old)

    @staticmethod
    def rounds(step, threads, rounds=2, clients=3):
        return run_rounds(make_shards(num_clients=clients), step,
                          Dataset(*toy_separable(30, seed=9)), rounds,
                          init_model(4, 6, 5, seed=0), threads)

    def test_blas_at_one_thread_inside_and_restored_after(self, blas):
        def step(global_model, client, rnd, prev):
            # a worker's side effects stay in it, so report through losses
            return global_model.copy(), [float(blas())], None

        _, history = self.rounds(step, threads=2)
        assert [r.client_losses for r in history.rounds] == [
            {0: 1.0, 1: 1.0, 2: 1.0}] * 2
        assert blas() == 2
        _, history = self.rounds(step, threads=1)  # no workers: BLAS alone
        assert [r.client_losses for r in history.rounds] == [
            {0: 2.0, 1: 2.0, 2: 2.0}] * 2

    def test_blas_restored_after_a_step_raises(self, blas):
        def step(global_model, client, rnd, prev):
            assert blas() == 1
            if client.client_id == 1:
                raise RuntimeError("client failed")
            return global_model.copy(), [0.0], None

        with pytest.raises(RuntimeError, match="client failed") as info:
            self.rounds(step, threads=3)
        assert "client failed" in str(info.value.__cause__)  # its traceback
        assert blas() == 2
        assert multiprocessing.active_children() == []

    def test_one_warning_without_blas_control(self, monkeypatch, capsys):
        fedsim._warn_blas_unpinned.cache_clear()
        monkeypatch.setattr(fedsim, "openblas_threads", lambda: None)
        shards = make_shards()
        test = Dataset(*toy_separable(30, seed=9))
        try:
            runs = [run_fl(shards, test, rounds=2, config=FAST, seed=2,
                           hidden=6, threads=2) for _ in range(2)]
        finally:
            fedsim._warn_blas_unpinned.cache_clear()
        err = capsys.readouterr().err
        assert err.count("warning:") == 1 and "OpenBLAS" in err
        (m1, h1), (m2, h2) = runs
        assert models_equal(m1, m2) and h1.to_csv() == h2.to_csv()

    def test_without_fork_one_warning_and_serial(self, monkeypatch, capsys):
        fedsim._warn_no_fork.cache_clear()
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        pids = []

        def step(global_model, client, rnd, prev):
            pids.append(os.getpid())
            return global_model.copy(), [0.0], None

        try:
            for _ in range(2):
                self.rounds(step, threads=2)
        finally:
            fedsim._warn_no_fork.cache_clear()
        assert pids == [os.getpid()] * 12
        assert capsys.readouterr().err.count("warning: no fork") == 1

    def test_first_failing_client_in_order_raises(self):
        def step(global_model, client, rnd, prev):
            if rnd == 1 and client.client_id >= 3:
                if client.client_id == 3:  # so that client 4 fails first
                    time.sleep(0.3)
                raise ValueError(f"client {client.client_id}")
            return global_model.copy(), [0.0], None

        for threads in (1, 2, 4):
            with pytest.raises(ValueError, match="client 3"):
                self.rounds(step, threads, clients=5)
        assert multiprocessing.active_children() == []

    def test_prev_is_the_clients_last_result(self):
        def step(global_model, client, rnd, prev):
            assert (prev is None) == (rnd == 0)
            n = client.client_id if prev is None else prev[1][0] + 100.0
            return global_model.copy(), [float(n)], None

        for threads in (1, 2):
            _, history = self.rounds(step, threads, rounds=3, clients=5)
            assert [r.client_losses for r in history.rounds] == [
                {c: c + 100.0 * rnd for c in range(5)} for rnd in range(3)]

    def test_a_worker_that_dies_raises(self):
        def step(global_model, client, rnd, prev):
            if client.client_id == 1:
                os._exit(3)
            time.sleep(30)  # the other worker is stopped, not waited for
            return global_model.copy(), [0.0], None

        start = time.monotonic()
        with pytest.raises(RuntimeError, match=r"exited \(code 3\)"):
            self.rounds(step, threads=2)
        assert time.monotonic() - start < 15
        assert multiprocessing.active_children() == []


def test_history_csv_round_trip_fields():
    history = RoundHistory([
        RoundRecord(0, 50.0, {0: 0.5, 1: 0.25}, 2),
        RoundRecord(1, 75.0, {0: 0.4, 1: 0.2}, 2),
    ])
    lines = history.to_csv().splitlines()
    assert lines[0] == "round,test_accuracy,local_fits,loss_client_0,loss_client_1"
    assert lines[1].startswith("0,50.0000,2,")
