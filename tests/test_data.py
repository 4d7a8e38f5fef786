import numpy as np
import pytest

from fedmimic.data import (AttackClass, Dataset, ParseError,
                           PreprocessPipeline, UnknownLabelError,
                           apply_pipeline, class_counts, fit_pipeline,
                           load_attack_mapping, map_label, parse_records,
                           select_columns, shard_clients, split_private_public,
                           split_train_test)
from fedmimic.nn import init_model

from conftest import make_kdd_lines

# verbatim first row of the official KDDTrain+ file
KDDTRAIN_ROW_1 = ("0,tcp,ftp_data,SF,491,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,"
                  "2,2,0.00,0.00,0.00,0.00,1.00,0.00,0.00,150,25,0.17,0.03,"
                  "0.17,0.00,0.00,0.00,0.05,0.00,normal,20")


class TestParse:
    def test_official_first_row(self):
        (rec,) = parse_records([KDDTRAIN_ROW_1])
        assert rec.nominal == ("tcp", "ftp_data", "SF")
        assert rec.label == "normal"
        assert rec.difficulty == 20.0
        assert rec.numeric[0] == 0.0 and rec.numeric[1] == 491.0

    def test_wrong_field_count_names_row(self):
        with pytest.raises(ParseError, match="row 2"):
            parse_records([KDDTRAIN_ROW_1, "a,b,c,d,e,f,g,h,i,j"])

    def test_unparseable_numeric_names_row(self):
        bad = KDDTRAIN_ROW_1.replace("491", "oops")
        with pytest.raises(ParseError, match="row 1"):
            parse_records([bad])

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_numeric_names_row_and_field(self, value):
        # a blank line before it: the row number counts file lines
        bad = KDDTRAIN_ROW_1.replace("491", value)
        with pytest.raises(ParseError, match="row 3: field 'src_bytes'"):
            parse_records([KDDTRAIN_ROW_1, "", bad])

    def test_empty_stream(self):
        assert parse_records([]) == []

    def test_synthetic_corpus_round_count(self):
        lines = make_kdd_lines(n=50, seed=0)
        assert len(parse_records(lines)) == 50

    def test_42_field_row_without_difficulty(self):
        row = KDDTRAIN_ROW_1.rsplit(",", 1)[0]
        (rec,) = parse_records([row])
        assert rec.difficulty is None


class TestLabelMapping:
    def test_normal(self):
        assert map_label("normal") is AttackClass.Normal

    def test_neptune_is_dos(self):
        assert map_label("neptune") is AttackClass.DoS

    def test_unknown_label(self):
        with pytest.raises(UnknownLabelError):
            map_label("frobnicate")

    def test_shipped_mapping_covers_families(self):
        mapping = load_attack_mapping()
        assert mapping["satan"] is AttackClass.Probe
        assert mapping["guess_passwd"] is AttackClass.R2L
        assert mapping["rootkit"] is AttackClass.U2R
        assert set(mapping.values()) == set(AttackClass)

    def test_custom_mapping_file(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("weird\tProbe\nnormal\tNormal\n")
        mapping = load_attack_mapping(path)
        assert map_label("weird", mapping) is AttackClass.Probe

    def test_bad_class_name_rejected(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("x\tNotAClass\n")
        with pytest.raises(ParseError):
            load_attack_mapping(path)


def _toy_records():
    lines = make_kdd_lines(n=120, seed=3)
    return parse_records(lines)


class TestPipeline:
    def test_vocab_sorted_and_counted(self):
        recs = _toy_records()
        pipe = fit_pipeline(recs)
        for vocab in pipe.vocabs.values():
            assert vocab == sorted(vocab)
        assert pipe.expanded_dim == 38 + sum(len(v) for v in pipe.vocabs.values())

    def test_fit_rejects_empty(self):
        with pytest.raises(ValueError):
            fit_pipeline([])

    def test_applied_training_data_in_unit_range(self):
        recs = _toy_records()
        pipe = fit_pipeline(recs)
        X = apply_pipeline(pipe, recs)
        assert X.min() >= 0.0 and X.max() <= 1.0
        # non-constant numeric columns reach both endpoints on the fit data
        span = pipe.maxs - pipe.mins
        col = int(np.argmax(span > 0))
        col_expanded = [i for i, n in enumerate(pipe.column_names())
                        if "=" not in n][col]
        assert X[:, col_expanded].min() == 0.0
        assert X[:, col_expanded].max() == 1.0

    def test_one_hot_blocks(self):
        recs = _toy_records()
        pipe = fit_pipeline(recs)
        X = apply_pipeline(pipe, recs)
        names = pipe.column_names()
        svc_cols = [i for i, n in enumerate(names) if n.startswith("service=")]
        assert (X[:, svc_cols].sum(axis=1) == 1.0).all()

    def test_unseen_nominal_is_zero_block(self):
        recs = _toy_records()
        pipe = fit_pipeline(recs)
        unseen = parse_records([KDDTRAIN_ROW_1])  # service ftp_data unseen
        assert "ftp_data" not in pipe.vocabs["service"]
        X = apply_pipeline(pipe, unseen)
        names = pipe.column_names()
        svc_cols = [i for i, n in enumerate(names) if n.startswith("service=")]
        assert X[0, svc_cols].sum() == 0.0

    def test_out_of_range_clips(self):
        recs = _toy_records()
        pipe = fit_pipeline(recs)
        pipe.maxs[:] = np.maximum(pipe.mins, pipe.maxs * 0.5)
        X = apply_pipeline(pipe, recs)
        assert X.max() <= 1.0

    def test_constant_column_emits_zero(self):
        recs = _toy_records()
        pipe = fit_pipeline(recs)
        pipe.mins[2] = pipe.maxs[2] = 7.0
        X = apply_pipeline(pipe, recs)
        names = pipe.column_names()
        numeric_cols = [i for i, n in enumerate(names) if "=" not in n]
        assert (X[:, numeric_cols[2]] == 0.0).all()

    def test_json_round_trip_byte_exact(self):
        pipe = fit_pipeline(_toy_records())
        pipe.feature_mask = [0, 3, 17]
        text = pipe.to_json()
        again = PreprocessPipeline.from_json(text).to_json()
        assert text == again


class TestSelectColumns:
    def test_identity_mask(self):
        X = np.arange(12.0).reshape(4, 3)
        assert np.array_equal(select_columns(X, [0, 1, 2]), X)

    def test_projection(self):
        X = np.arange(12.0).reshape(4, 3)
        assert np.array_equal(select_columns(X, [0, 2]), X[:, [0, 2]])

    def test_empty_mask_then_model_rejects(self):
        X = np.ones((4, 3))
        out = select_columns(X, [])
        assert out.shape == (4, 0)
        with pytest.raises(ValueError):
            init_model(out.shape[1], 8, 5, seed=0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            select_columns(np.ones((2, 3)), [0, 5])

    def test_not_increasing(self):
        with pytest.raises(ValueError):
            select_columns(np.ones((2, 3)), [2, 1])


class TestSplits:
    def test_train_test_sizes(self):
        X = np.arange(100.0).reshape(100, 1)
        y = np.zeros(100, dtype=int)
        train, test = split_train_test(X, y, 0.10, seed=4)
        assert len(train) == 90 and len(test) == 10
        assert sorted(np.concatenate([train.X[:, 0], test.X[:, 0]])) == list(range(100))

    def test_deterministic(self):
        X = np.arange(50.0).reshape(50, 1)
        y = np.zeros(50, dtype=int)
        a = split_train_test(X, y, 0.2, seed=9)
        b = split_train_test(X, y, 0.2, seed=9)
        assert np.array_equal(a[0].X, b[0].X)

    def test_degenerate_fraction(self):
        X, y = np.ones((5, 1)), np.zeros(5, dtype=int)
        for frac in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                split_train_test(X, y, frac, seed=0)

    def test_shards_disjoint_exact(self):
        X = np.arange(200.0).reshape(200, 1)
        train = Dataset(X, np.zeros(200, dtype=int))
        shards = shard_clients(train, num_clients=4, samples_per_client=30,
                               seed=2)
        assert all(len(s) == 30 for s in shards)
        ids = np.concatenate([s.X[:, 0] for s in shards])
        assert len(np.unique(ids)) == 120

    def test_shards_capacity(self):
        train = Dataset(np.ones((5, 1)), np.zeros(5, dtype=int))
        with pytest.raises(ValueError):
            shard_clients(train, num_clients=2, samples_per_client=3, seed=0)

    def test_private_public_split(self):
        pool = Dataset(np.arange(1000.0).reshape(1000, 1),
                       np.zeros(1000, dtype=int))
        private, public = split_private_public(pool, 0.60, seed=1)
        assert len(private) == 600 and len(public) == 400
        assert not set(private.X[:, 0]) & set(public.X[:, 0])
        assert public.truth_for_diagnostics().shape == (400,)

    def test_private_public_deterministic(self):
        pool = Dataset(np.arange(40.0).reshape(40, 1), np.zeros(40, dtype=int))
        a = split_private_public(pool, 0.6, seed=8)
        b = split_private_public(pool, 0.6, seed=8)
        assert np.array_equal(a[1].X, b[1].X)


def test_class_counts():
    y = np.array([0, 0, 1, 2, 4])
    counts = class_counts(y)
    assert counts == {"DoS": 2, "Normal": 1, "Probe": 1, "R2L": 0, "U2R": 1}
