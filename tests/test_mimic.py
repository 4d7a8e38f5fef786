import numpy as np
import pytest

import fedmimic.mimic as mimic
from fedmimic.data import Dataset, PublicSet
from fedmimic.fedsim import (TAG_CLIENT, TAG_INIT, TAG_TEACHER, derive_seed,
                             fedavg, run_fl)
from fedmimic.mimic import (MimicClient, label_public, pseudo_label_agreement,
                            run_fsml, run_ftml)
from fedmimic.nn import TrainConfig, init_model, predict, train_local

from conftest import toy_separable
from test_fedsim import max_param_diff
from test_nn import models_equal

FAST = TrainConfig(epochs=2, batch_size=16, dropout_rate=0.0, seed=0)
LEARN = TrainConfig(epochs=10, batch_size=16, dropout_rate=0.0, seed=0)


def make_clients(num_clients=3, private_n=40, public_n=30, seed=0,
                 shared_public=True):
    clients = []
    shared = PublicSet(*toy_separable(public_n, seed=seed + 500))
    for c in range(num_clients):
        private = Dataset(*toy_separable(private_n, seed=seed + c))
        public = shared if shared_public else PublicSet(
            *toy_separable(public_n, seed=seed + 100 + c))
        clients.append(MimicClient(private, public))
    return clients


class TestLabelPublic:
    def test_perfect_teacher_reproduces_truth(self):
        X, y = toy_separable(50, seed=1)
        teacher, _ = train_local(init_model(4, 16, 5, seed=2), X, y, LEARN)
        assert (predict(teacher, X) == y).all()  # teacher is perfect here
        assert np.array_equal(label_public(teacher, X), y)

    def test_zero_weight_teacher_labels_class_zero(self):
        teacher = init_model(4, 8, 5, seed=0)
        for w in teacher.weights:
            w[:] = 0.0
        X, _ = toy_separable(20)
        assert (label_public(teacher, X) == 0).all()

    def test_empty_public_set(self):
        teacher = init_model(4, 8, 5, seed=0)
        assert label_public(teacher, np.zeros((0, 4))).shape == (0,)

    def test_dimension_mismatch(self):
        teacher = init_model(4, 8, 5, seed=0)
        with pytest.raises(ValueError):
            label_public(teacher, np.zeros((3, 7)))


class TestAgreement:
    def test_unanimous(self):
        labels = [np.array([0, 1, 2])] * 4
        assert pseudo_label_agreement(labels) == 1.0

    def test_partial(self):
        labels = [np.array([0, 0]), np.array([0, 0]), np.array([0, 1])]
        assert pseudo_label_agreement(labels) == pytest.approx(5 / 6)

    def test_matches_per_column_bincount_on_five_classes(self):
        rng = np.random.default_rng(3)
        labels = list(rng.integers(0, 5, (7, 300)))
        stack = np.stack(labels)
        counts = np.apply_along_axis(np.bincount, 0, stack, minlength=5)
        expected = float((stack == counts.argmax(axis=0)).mean())
        assert pseudo_label_agreement(labels) == expected

    def test_seven_classes(self):
        # per-sample majorities 6, 5, 1 and 2 (the 2-3-4 tie goes to the lowest)
        labels = [np.array([6, 5, 1, 2]), np.array([6, 5, 1, 3]),
                  np.array([2, 5, 0, 4])]
        assert pseudo_label_agreement(labels) == pytest.approx(8 / 12)


class TestFtml:
    def test_zero_rounds_returns_seeded_init(self):
        clients = make_clients()
        test = Dataset(*toy_separable(20, seed=9))
        model, history = run_ftml(clients, test, rounds=0, config=FAST,
                                  seed=4, hidden=6)
        assert models_equal(model, init_model(4, 6, 5,
                                              seed=derive_seed(4, TAG_INIT)))
        assert history.rounds == []

    def test_two_fits_per_client_per_round(self):
        clients = make_clients(num_clients=3)
        test = Dataset(*toy_separable(20, seed=9))
        _, history = run_ftml(clients, test, rounds=3, config=FAST, seed=1,
                              hidden=6)
        assert all(r.local_fits == 2 * 3 for r in history.rounds)
        assert sum(r.local_fits for r in history.rounds) == 2 * 3 * 3

    def test_deterministic_and_thread_invariant(self):
        clients = make_clients()
        test = Dataset(*toy_separable(20, seed=9))
        m1, h1 = run_ftml(clients, test, rounds=2, config=FAST, seed=7,
                          hidden=6, threads=1)
        m2, h2 = run_ftml(clients, test, rounds=2, config=FAST, seed=7,
                          hidden=6, threads=3)
        assert models_equal(m1, m2)
        assert h1.to_csv() == h2.to_csv()

    def test_student_init_policies_differ(self):
        clients = make_clients()
        test = Dataset(*toy_separable(20, seed=9))
        outs = {}
        for warm in (True, False):
            outs[warm], _ = run_ftml(clients, test, rounds=2, config=FAST,
                                     seed=7, hidden=6, warm_students=warm)
        assert not models_equal(outs[True], outs[False])


class TestRecordedAgreement:
    @pytest.mark.parametrize("run", [run_ftml, run_fsml])
    def test_only_over_one_shared_public_set(self, run):
        """Clients with their own public rows label different rows, whose
        labels neither agree nor disagree."""
        test = Dataset(*toy_separable(20, seed=9))
        _, shared = run(make_clients(), test, rounds=2, config=FAST, seed=1,
                        hidden=6)
        _, own = run(make_clients(shared_public=False), test, rounds=2,
                     config=FAST, seed=1, hidden=6)
        assert all(r.pseudo_agreement is not None for r in shared.rounds)
        assert all(r.pseudo_agreement is None for r in own.rounds)
        assert "pseudo_agreement" not in own.to_csv().splitlines()[0]


class TestFsml:
    def test_one_fit_per_client_per_round_plus_teachers(self, monkeypatch):
        taught, teach = [], mimic._teach
        monkeypatch.setattr(mimic, "_teach", lambda *a: taught.append(
            a[4]) or teach(*a))
        clients = make_clients(num_clients=3)
        test = Dataset(*toy_separable(20, seed=9))
        model, history = run_fsml(clients, test, rounds=4, config=FAST,
                                  seed=1, hidden=6)
        assert taught == [0, 1, 2]
        assert all(r.local_fits == 3 for r in history.rounds)
        assert sum(r.local_fits for r in history.rounds) == 3 * 4
        m3, h3 = run_fsml(clients, test, rounds=4, config=FAST, seed=1,
                          hidden=6, threads=3)
        assert models_equal(model, m3) and h3.to_csv() == history.to_csv()

    def test_zero_rounds_fit_no_teachers(self, monkeypatch):
        taught = []
        monkeypatch.setattr(mimic, "_teach", lambda *a: taught.append(a))
        clients = make_clients(num_clients=3)
        test = Dataset(*toy_separable(20, seed=9))
        model, history = run_fsml(clients, test, rounds=0, config=FAST,
                                  seed=4, hidden=6)
        assert taught == [] and history.rounds == []
        assert models_equal(model, init_model(4, 6, 5,
                                              seed=derive_seed(4, TAG_INIT)))

    def test_is_ftml_with_global_students_and_round_0_teachers(self):
        """One round of FSML is one round of FTML from the global model; at
        two rounds they part, because FTML's teachers refit in round 1 (at
        this seed the refit teachers' labels change)."""
        clients = make_clients()
        test = Dataset(*toy_separable(20, seed=9))
        for rounds, same in ((1, True), (2, False)):
            m_fsml, _ = run_fsml(clients, test, rounds=rounds, config=FAST,
                                 seed=1, hidden=6)
            m_ftml, _ = run_ftml(clients, test, rounds=rounds, config=FAST,
                                 seed=1, hidden=6, warm_students=False)
            assert models_equal(m_fsml, m_ftml) == same

    def test_per_round_cost_is_half_of_ftml(self):
        clients = make_clients(num_clients=3)
        test = Dataset(*toy_separable(20, seed=9))
        _, h_ftml = run_ftml(clients, test, rounds=3, config=FAST, seed=1,
                             hidden=6)
        _, h_fsml = run_fsml(clients, test, rounds=3, config=FAST, seed=1,
                             hidden=6)
        for rt, rs in zip(h_ftml.rounds, h_fsml.rounds):
            assert rt.local_fits == 2 * rs.local_fits

    def test_single_round_matches_manual_composition(self):
        clients = make_clients(num_clients=2)
        test = Dataset(*toy_separable(20, seed=9))
        seed = 5
        model, _ = run_fsml(clients, test, rounds=1, config=FAST,
                            seed=seed, hidden=6)

        init = init_model(4, 6, 5, seed=derive_seed(seed, TAG_INIT))
        students = []
        for c, client in enumerate(clients):
            t_cfg = TrainConfig(**{**vars(FAST), "seed": derive_seed(
                seed, TAG_TEACHER, c, 0)})
            teacher, _ = train_local(init, client.private.X, client.private.y,
                                     t_cfg)
            pseudo = label_public(teacher, client.public.X)
            s_cfg = TrainConfig(**{**vars(FAST), "seed": derive_seed(
                seed, TAG_CLIENT, c, 0)})
            student, _ = train_local(init, client.public.X, pseudo, s_cfg)
            students.append(student)
        assert max_param_diff(model, fedavg(students)) == 0.0

    def test_oracle_teachers_reproduce_run_fl(self):
        # per-client public shards whose labels the teachers recover exactly
        # make FSML coincide with plain FL on those shards
        num_clients, n_pub = 3, 40
        shards = []
        clients = []
        for c in range(num_clients):
            private = Dataset(*toy_separable(200, seed=300 + c))
            pub_X, pub_y = toy_separable(n_pub, seed=600 + c)
            shards.append(Dataset(pub_X, pub_y))
            clients.append(MimicClient(private, PublicSet(pub_X, pub_y)))
        test = Dataset(*toy_separable(50, seed=999))
        seed = 11

        # confirm the teachers are oracles on their public shards
        init = init_model(4, 12, 5, seed=derive_seed(seed, TAG_INIT))
        for c, client in enumerate(clients):
            cfg = TrainConfig(**{**vars(LEARN), "seed": derive_seed(
                seed, TAG_TEACHER, c, 0)})
            teacher, _ = train_local(init, client.private.X, client.private.y,
                                     cfg)
            assert np.array_equal(label_public(teacher, client.public.X),
                                  client.public.truth_for_diagnostics())

        m_fsml, h_fsml = run_fsml(clients, test, rounds=2, config=LEARN,
                                  seed=seed, hidden=12)
        m_fl, h_fl = run_fl(shards, test, rounds=2, config=LEARN, seed=seed,
                            hidden=12)
        assert models_equal(m_fsml, m_fl)
        assert [r.test_accuracy for r in h_fsml.rounds] == \
               [r.test_accuracy for r in h_fl.rounds]


class TestPrivacyContract:
    def test_student_fits_only_see_public_features(self, monkeypatch):
        clients = make_clients(num_clients=2)
        test = Dataset(*toy_separable(20, seed=9))
        calls = []
        real = mimic.train_local

        def spy(model, X, y, cfg):
            calls.append((X, y))
            return real(model, X, y, cfg)

        monkeypatch.setattr(mimic, "train_local", spy)
        private_ids = {id(c.private.X) for c in clients}
        public_ids = {id(c.public.X) for c in clients}

        for runner in (lambda: run_ftml(clients, test, rounds=2, config=FAST,
                                        seed=3, hidden=6),
                       lambda: run_fsml(clients, test, rounds=2, config=FAST,
                                        seed=3, hidden=6)):
            calls.clear()
            runner()
            for X, y in calls:
                assert id(X) in private_ids | public_ids
                if id(X) in public_ids:
                    # student fit: pseudo-labels cover the whole public set
                    # and are never the withheld truth array
                    assert len(y) == clients[0].public.X.shape[0]
                    assert id(y) != id(clients[0].public._truth)

    def test_public_truth_never_read_by_loops(self, monkeypatch):
        clients = make_clients(num_clients=2)
        test = Dataset(*toy_separable(20, seed=9))

        def forbidden(self):
            raise AssertionError("training loop read public ground truth")

        monkeypatch.setattr(PublicSet, "truth_for_diagnostics", forbidden)
        run_ftml(clients, test, rounds=1, config=FAST, seed=3, hidden=6)
        run_fsml(clients, test, rounds=1, config=FAST, seed=3, hidden=6)

    def test_pseudo_label_count_matches_public_size(self, monkeypatch):
        clients = make_clients(num_clients=2, public_n=17)
        test = Dataset(*toy_separable(20, seed=9))
        recorded = []
        real = mimic.label_public

        def spy(teacher, X):
            out = real(teacher, X)
            recorded.append((X.shape[0], out.shape[0]))
            return out

        monkeypatch.setattr(mimic, "label_public", spy)
        run_ftml(clients, test, rounds=2, config=FAST, seed=3, hidden=6)
        assert recorded and all(n == m == 17 for n, m in recorded)
