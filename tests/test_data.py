import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmimic import data as data_module
from fedmimic.data import (FEATURE_NAMES, NOMINAL_FEATURES, AttackClass,
                           Dataset, ParseError, PreprocessPipeline,
                           apply_pipeline, class_counts, fit_pipeline,
                           load_attack_mapping, map_labels, parse_records,
                           shard_clients, split_indices, split_private_public)

from conftest import make_kdd_lines

# verbatim first row of the official KDDTrain+ file
KDDTRAIN_ROW_1 = ("0,tcp,ftp_data,SF,491,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,"
                  "2,2,0.00,0.00,0.00,0.00,1.00,0.00,0.00,150,25,0.17,0.03,"
                  "0.17,0.00,0.00,0.00,0.05,0.00,normal,20")


class TestParse:
    def test_official_first_row(self):
        recs = parse_records([KDDTRAIN_ROW_1])
        assert len(recs) == 1
        assert tuple(recs.nominal[0]) == ("tcp", "ftp_data", "SF")
        assert recs.labels[0] == "normal"
        assert recs.difficulty[0] == 20.0
        assert recs.numeric[0, 0] == 0.0 and recs.numeric[0, 1] == 491.0

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

    def test_unparseable_difficulty_names_row(self):
        bad = KDDTRAIN_ROW_1.rsplit(",", 1)[0] + ",hard"
        with pytest.raises(ParseError, match="row 2: field 'difficulty' is "
                                             "not numeric: 'hard'"):
            parse_records([KDDTRAIN_ROW_1, bad])

    @pytest.mark.parametrize("old, new, name", [
        (",tcp,", ",tcp\0,", "protocol_type"),
        (",normal,", ",normal\0,", "label"),
        (",491,", ",4\x0091,", "src_bytes")])
    def test_nul_character_names_row_and_field(self, old, new, name):
        bad = KDDTRAIN_ROW_1.replace(old, new)
        with pytest.raises(ParseError, match=f"row 1: field '{name}' holds a "
                                             f"NUL character"):
            parse_records([bad])

    def test_empty_stream(self):
        assert len(parse_records([])) == 0

    def test_synthetic_corpus_round_count(self):
        lines = make_kdd_lines(n=50, seed=0)
        assert len(parse_records(lines)) == 50

    def test_42_field_row_without_difficulty(self):
        row = KDDTRAIN_ROW_1.rsplit(",", 1)[0]
        recs = parse_records([row])
        assert len(recs) == 1
        assert np.isnan(recs.difficulty[0])

    def test_blocked_conversion(self, monkeypatch):
        # 11 rows and a blank line in blocks of 4 rows: two whole blocks and
        # a ragged one, the same values as one block
        lines = make_kdd_lines(n=11, seed=0)
        lines.insert(2, "")
        whole = parse_records(lines)
        monkeypatch.setattr(data_module, "PARSE_BLOCK_ROWS", 4)
        blocked = parse_records(lines)
        assert np.array_equal(blocked.rows, whole.rows)
        assert np.array_equal(blocked.numeric, whole.numeric)
        assert np.array_equal(blocked.difficulty, whole.difficulty)
        # the first bad field in row order names its own file row: in the
        # ragged last block (rows 10-12), then in the second block (rows
        # 6-9) with the later one still there
        for row, field, name in ((11, 4, "src_bytes"), (7, 0, "duration")):
            parts = lines[row - 1].split(",")
            parts[field] = "x"
            lines[row - 1] = ",".join(parts)
            with pytest.raises(ParseError, match=f"^row {row}: field "
                                                 f"'{name}' is not numeric: "
                                                 f"'x'$"):
                parse_records(lines)


def label_of(raw_label, mapping=None):
    """The class map_labels gives a one-row file with this label."""
    row = KDDTRAIN_ROW_1.replace(",normal,", f",{raw_label},")
    return AttackClass(map_labels(parse_records([row]), mapping)[0])


class TestLabelMapping:
    def test_normal(self):
        assert label_of("normal") is AttackClass.Normal

    def test_neptune_is_dos(self):
        assert label_of("neptune") is AttackClass.DoS

    def test_unknown_label(self):
        with pytest.raises(ParseError, match="row 1: label 'frobnicate'"):
            label_of("frobnicate")

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
        assert label_of("weird", mapping) is AttackClass.Probe

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


def reference_parse(lines):
    """The per-row parser the column table replaced: one (nominal, numeric,
    label, difficulty, row) tuple per row."""
    nominal_idx = [FEATURE_NAMES.index(n) for n in NOMINAL_FEATURES]
    records = []
    for i, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        numeric = np.array([float(parts[j]) for j in range(41)
                            if j not in nominal_idx])
        difficulty = float(parts[42]) if len(parts) == 43 else None
        records.append((tuple(parts[j] for j in nominal_idx), numeric,
                        parts[41], difficulty, i))
    return records


def reference_fit(records):
    vocabs = {fname: sorted({r[0][pos] for r in records})
              for pos, fname in enumerate(NOMINAL_FEATURES)}
    numeric = np.stack([r[1] for r in records])
    return vocabs, numeric.min(axis=0), numeric.max(axis=0)


def reference_apply(vocabs, mins, maxs, records):
    """Per-row one-hot into a zero matrix at per-feature column offsets."""
    dim = 38 + sum(len(v) for v in vocabs.values())
    out = np.zeros((len(records), dim))
    offsets, col = [], 0
    for fname in FEATURE_NAMES:
        offsets.append(col)
        col += len(vocabs[fname]) if fname in NOMINAL_FEATURES else 1
    span = maxs - mins
    numeric = (np.stack([r[1] for r in records]) if records
               else np.zeros((0, 38)))
    scaled = np.clip((numeric - mins) / np.where(span > 0, span, 1.0), 0, 1)
    scaled[:, span == 0] = 0.0
    k = 0
    for j, fname in enumerate(FEATURE_NAMES):
        if fname in NOMINAL_FEATURES:
            pos = NOMINAL_FEATURES.index(fname)
            index = {v: c for c, v in enumerate(vocabs[fname])}
            for i, r in enumerate(records):
                c = index.get(r[0][pos])
                if c is not None:
                    out[i, offsets[j] + c] = 1.0
        else:
            out[:, offsets[j]] = scaled[:, k]
            k += 1
    return out


def set_field(line, j, value):
    parts = line.split(",")
    parts[j] = value
    return ",".join(parts)


def oracle_corpus(seed):
    """Train and test lines with blank lines, rows of 42 and 43 fields, a
    constant train column (urgent), an unseen test service and test values
    outside the train range."""
    train = [set_field(line, 8, "0.5")
             for line in make_kdd_lines(n=300, seed=seed)]
    test = make_kdd_lines(n=80, seed=seed + 100)
    test[0] = set_field(test[0], 2, "ftp_data")
    test[1] = set_field(test[1], 4, "99999")
    test[2] = set_field(test[2], 0, "-7")
    test[3] = set_field(test[3], 8, "2")
    for lines, every in ((train, 3), (test, 4)):
        for i in range(0, len(lines), every):
            lines[i] = lines[i].rsplit(",", 1)[0]
        for i in range(len(lines) - 10, 0, -50):
            lines.insert(i, "" if i % 2 else "   ")
    return train, test


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestColumnsOracle:
    """The column table gives bit-equal results to the per-row pipeline,
    whose float64 matrix is rounded once to prep's float32."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equal_to_per_row_pipeline(self, seed):
        train_lines, test_lines = oracle_corpus(seed)
        ref_train = reference_parse(train_lines)
        ref_test = reference_parse(test_lines)
        vocabs, mins, maxs = reference_fit(ref_train)
        assert "ftp_data" not in vocabs["service"]
        assert mins[5] == maxs[5] == 0.5  # urgent is constant in train

        train, test = parse_records(train_lines), parse_records(test_lines)
        pipe = fit_pipeline(train)
        assert pipe.vocabs == vocabs
        assert same_bits(pipe.mins, mins) and same_bits(pipe.maxs, maxs)
        for recs, ref in ((train, ref_train), (test, ref_test)):
            X = apply_pipeline(pipe, recs)
            assert same_bits(X, reference_apply(vocabs, mins, maxs, ref)
                             .astype(np.float32))
            mapping = load_attack_mapping()
            assert same_bits(map_labels(recs, mapping),
                             np.array([mapping[r[2]] for r in ref]))
            assert recs.rows.tolist() == [r[4] for r in ref]
            assert same_bits(recs.difficulty, [np.nan if r[3] is None
                                               else r[3] for r in ref])
        assert X.max() <= 1.0 and X.min() >= 0.0

    def test_empty_input(self):
        train_lines, _ = oracle_corpus(0)
        pipe = fit_pipeline(parse_records(train_lines))
        vocabs, mins, maxs = reference_fit(reference_parse(train_lines))
        empty = parse_records(["", "  "])
        assert len(empty) == 0 and len(map_labels(empty)) == 0
        assert same_bits(apply_pipeline(pipe, empty),
                         reference_apply(vocabs, mins, maxs, [])
                         .astype(np.float32))


# numeric fields after the nominal ones, so the line's own strip() cannot
# reach the field under test
NUMERIC_FIELD = st.integers(4, 40)
FIELD_TEXT = st.one_of(
    st.text(max_size=8),
    st.from_regex(r"\A[ +-]?[0-9_.eE]{0,6}\Z"),
    st.floats().map(repr),
    st.sampled_from(["1_0", " 1", "nan", "-nan", "Infinity", "\u0661\u0662",
                     "0x10", "", "1e999", "-0", "5.", ".5", "1__0"]),
).filter(lambda text: "," not in text)


@settings(max_examples=300, deadline=None)
@given(j=NUMERIC_FIELD, text=FIELD_TEXT)
def test_numeric_field_accepted_exactly_when_float_accepts(j, text):
    lines = [KDDTRAIN_ROW_1, set_field(KDDTRAIN_ROW_1, j, text)]
    try:
        expected = float(text)
    except ValueError:
        with pytest.raises(ParseError, match=f"^row 2: field "
                                             f"'{FEATURE_NAMES[j]}' "):
            parse_records(lines)
        return
    if not math.isfinite(expected):
        with pytest.raises(ParseError, match=f"^row 2: field "
                                             f"'{FEATURE_NAMES[j]}' is not finite"):
            parse_records(lines)
        return
    recs = parse_records(lines)
    assert same_bits(recs.numeric[1, j - 3], np.float64(expected))


class TestFeatureMask:
    """PreprocessPipeline.from_json is the one check of a feature mask: null
    keeps every column, anything else must be a non-empty, strictly
    increasing list of ints in range(expanded_dim)."""

    @staticmethod
    def _text(mask_of_dim) -> tuple[str, int]:
        pipe = fit_pipeline(_toy_records())
        doc = json.loads(pipe.to_json())
        doc["feature_mask"] = mask_of_dim(pipe.expanded_dim)
        return json.dumps(doc), pipe.expanded_dim

    @pytest.mark.parametrize("mask_of_dim", [
        lambda dim: None, lambda dim: [0], lambda dim: [dim - 1],
        lambda dim: list(range(dim))],
        ids=["null", "first_column", "last_column", "every_column"])
    def test_round_trip(self, mask_of_dim):
        text, dim = self._text(mask_of_dim)
        pipe = PreprocessPipeline.from_json(text)
        assert pipe.feature_mask == mask_of_dim(dim)
        assert json.loads(pipe.to_json()) == json.loads(text)

    @pytest.mark.parametrize("mask_of_dim", [
        lambda dim: [], lambda dim: [3, 0], lambda dim: [0, 3, 3],
        lambda dim: [-1, 3], lambda dim: [0, dim], lambda dim: [0, True]],
        ids=["empty", "unsorted", "duplicate", "negative", "at_expanded_dim",
             "true_entry"])
    def test_rejected(self, mask_of_dim):
        text, dim = self._text(mask_of_dim)
        with pytest.raises(ValueError, match=(
                rf"^'feature_mask' is not null or a non-empty, strictly "
                rf"increasing list of ints in \[0, {dim}\)$")):
            PreprocessPipeline.from_json(text)


class TestSplits:
    def test_train_test_sizes(self):
        train, test = split_indices(100, 0.10, seed=4)
        assert len(train) == 90 and len(test) == 10
        assert sorted(np.concatenate([train, test])) == list(range(100))

    def test_deterministic(self):
        a = split_indices(50, 0.2, seed=9)
        b = split_indices(50, 0.2, seed=9)
        assert np.array_equal(a[0], b[0])

    def test_degenerate_fraction(self):
        for frac in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                split_indices(5, frac, seed=0)

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
