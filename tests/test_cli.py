import contextlib
import errno
import hashlib
import io
import json
import math
import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmimic import cli
from fedmimic.cli import (DATA_ROOT_ENV, DEFAULTS, RANGES,
                          build_mimic_clients, build_parser, load_prep, main,
                          resolve_config, train_config, usable_cpus)
from fedmimic.data import (FEATURE_NAMES, NOMINAL_FEATURES, NUM_FEATURES,
                           Dataset, load_attack_mapping)
from fedmimic.fedsim import ClientShard, openblas_threads, run_fl
from fedmimic.modelio import load_model
from fedmimic.nn import init_model

from conftest import make_kdd_lines, write_model


@pytest.fixture(scope="module")
def prepped(tmp_path_factory):
    """A synthetic corpus put through prep + select once; tests copy it."""
    base = tmp_path_factory.mktemp("cli")
    train_file = base / "train.txt"
    train_file.write_text("\n".join(make_kdd_lines(n=400, seed=0)) + "\n")
    out = base / "out"
    assert main(["--mode", "prep", "--train-file", str(train_file),
                 "--out-dir", str(out), "--test-fraction", "0.2",
                 "--seed", "1"]) == 0
    assert main(["--mode", "select", "--out-dir", str(out),
                 "--k-features", "3", "--rfe-step", "25", "--seed", "1"]) == 0
    return base


@pytest.fixture
def workdir(prepped, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(prepped / "out", out)
    return out


TRAIN_FLAGS = ["--hidden", "8", "--epochs", "2", "--batch", "32",
               "--clients", "3", "--samples-per-client", "40",
               "--rounds", "2", "--seed", "1"]


class TestPrep:
    def test_artifacts_and_manifest(self, prepped):
        out = prepped / "out"
        for name in ("pipeline.json", "manifest.json", "train_X.npy",
                     "train_y.npy", "test_X.npy", "test_y.npy",
                     "runmeta.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n_train"] == 320 and manifest["n_test"] == 80
        assert manifest["expanded_dim"] == 38 + sum(
            len(v) for v in json.loads(
                (out / "pipeline.json").read_text())["vocabs"].values())
        assert sum(manifest["train_class_counts"].values()) == 320
        # the known reporting discrepancy is flagged
        disc = manifest["reference_count_discrepancy"]
        assert disc["reference_train_sum"] == 113373
        assert disc["reference_reported_train_total"] == 113375

    def test_missing_file_exit_2(self, tmp_path, capsys):
        rc = main(["--mode", "prep", "--train-file",
                   str(tmp_path / "nope.txt"), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "nope.txt" in capsys.readouterr().err

    def test_malformed_row_exit_5(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1,2,3\n")
        rc = main(["--mode", "prep", "--train-file", str(bad),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 5

    @pytest.mark.parametrize("corpus, code", [(None, 2), ("1,2,3\n", 5)])
    def test_failed_prep_creates_no_out_dir(self, tmp_path, corpus, code):
        train = tmp_path / "train.txt"
        if corpus is not None:
            train.write_text(corpus)
        rc = main(["--mode", "prep", "--train-file", str(train),
                   "--out-dir", str(tmp_path / "new" / "o")])
        assert rc == code
        assert not (tmp_path / "new").exists()

    def test_non_finite_field_exit_5_writes_no_matrix(self, tmp_path,
                                                      capsys):
        lines = make_kdd_lines(n=20, seed=0)
        fields = lines[5].split(",")
        fields[4] = "-inf"  # src_bytes
        lines[5] = ",".join(fields)
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        assert main(["--mode", "prep", "--train-file", str(bad),
                     "--out-dir", str(out)]) == 5
        assert "row 6: field 'src_bytes'" in capsys.readouterr().err
        assert not (out / "test_X.npy").exists()

    def test_unknown_label_exit_5_names_row_and_label(self, tmp_path, capsys):
        lines = make_kdd_lines(n=30, seed=0)
        fields = lines[3].split(",")
        fields[-2] = "martian"  # the label; the last field is the difficulty
        lines[3] = ",".join(fields)
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(["--mode", "prep", "--train-file", str(bad),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 5
        err = capsys.readouterr().err
        assert "row 4: label 'martian'" in err
        assert len(err.strip().splitlines()) == 1

    def test_error_in_test_file_names_the_file(self, tmp_path, capsys):
        train = tmp_path / "tr.txt"
        train.write_text("\n".join(make_kdd_lines(n=30, seed=0)) + "\n")
        lines = make_kdd_lines(n=5, seed=1)
        fields = lines[1].split(",")
        fields[-2] = "martian"
        lines[1] = ",".join(fields)
        test = tmp_path / "te.txt"
        test.write_text("\n".join(lines) + "\n")
        rc = main(["--mode", "prep", "--train-file", str(train),
                   "--test-file", str(test), "--out-dir", str(tmp_path / "o")])
        assert rc == 5
        err = capsys.readouterr().err
        assert f"{test}: row 2: label 'martian'" in err
        assert "tr.txt" not in err

    @pytest.mark.parametrize("fraction", ["0.001", "0.999"])
    def test_empty_split_exit_4_writes_nothing(self, kdd_file, tmp_path,
                                               fraction, capsys):
        out = tmp_path / "o"
        rc = main(["--mode", "prep", "--train-file", str(kdd_file(n=300)),
                   "--test-fraction", fraction, "--out-dir", str(out)])
        assert rc == 4
        assert "test_fraction" in capsys.readouterr().err
        assert not (out / "train_X.npy").exists()
        assert not (out / "runmeta.json").exists()

    def test_rerun_is_byte_identical(self, prepped, tmp_path):
        out2 = tmp_path / "out2"
        assert main(["--mode", "prep", "--train-file",
                     str(prepped / "train.txt"), "--out-dir", str(out2),
                     "--test-fraction", "0.2", "--seed", "1"]) == 0
        # pipeline.json in the fixture dir also carries the selection mask,
        # so compare the prep-owned artifacts only
        for name in ("manifest.json", "train_X.npy", "test_X.npy",
                     "train_y.npy"):
            assert (out2 / name).read_bytes() == \
                   (prepped / "out" / name).read_bytes()


def _run_main(argv) -> tuple[int, str]:
    """(exit code, stderr) of an in-process CLI run; an exception that
    escapes main, which would end the process in a traceback, fails the
    test."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue()


CORPUS = make_kdd_lines(n=30, seed=0)
LABEL_FIELD = NUM_FEATURES  # the difficulty follows the label
NUMERIC_FIELDS = [j for j, name in enumerate(FEATURE_NAMES)
                  if name not in NOMINAL_FEATURES]


def _field_text(**kwargs):
    """Text that stays inside one field of one line of a corpus file."""
    return st.text(**kwargs).filter(
        lambda t: not any(c in t for c in ",\n\r\0"))


def _not_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return True
    return False


@st.composite
def damaged_corpus(draw):
    """(lines, 1-based row): CORPUS with one row damaged in one way."""
    lines = list(CORPUS)
    r = draw(st.integers(0, len(lines) - 1), label="row index")
    fields = lines[r].split(",")
    kind = draw(st.sampled_from(["field_count", "empty_label", "not_numeric",
                                 "not_finite", "nul", "unknown_label"]),
                label="damage")
    if kind == "field_count":
        n = draw(st.integers(1, 60).filter(lambda n: n not in (42, 43)))
        fields = (fields + ["0"] * n)[:n]
    elif kind == "empty_label":
        fields[LABEL_FIELD] = ""
    elif kind == "not_numeric":  # a feature or the difficulty
        j = draw(st.sampled_from(NUMERIC_FIELDS + [LABEL_FIELD + 1]))
        fields[j] = draw(_field_text().filter(_not_float))
    elif kind == "not_finite":
        fields[draw(st.sampled_from(NUMERIC_FIELDS))] = draw(st.sampled_from(
            ["nan", "inf", "-inf", "NaN", "+Infinity", "1e999"]))
    elif kind == "nul":
        j = draw(st.integers(0, len(fields) - 1))
        k = draw(st.integers(0, len(fields[j])))
        fields[j] = fields[j][:k] + "\0" + fields[j][k:]
    else:
        known = load_attack_mapping()
        fields[LABEL_FIELD] = draw(
            _field_text(min_size=1).filter(lambda t: t not in known))
    lines[r] = ",".join(fields)
    return lines, r + 1


class TestCorpusProperties:
    @settings(max_examples=200, deadline=None)
    @given(case=damaged_corpus())
    def test_damaged_row_exits_5_naming_file_and_row(self, tmp_path_factory,
                                                     case):
        lines, row = case
        base = tmp_path_factory.mktemp("corpus")
        train = base / "train.txt"
        train.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc, err = _run_main(["--mode", "prep", "--train-file", str(train),
                             "--out-dir", str(base / "out")])
        assert rc == 5
        assert err.startswith(f"error: {train}: row {row}: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not (base / "out").exists()


class TestTextInputs:
    """Text inputs are read as UTF-8 in any locale. A byte that does not
    decode is a format error naming the file, in the config file a
    configuration error."""

    @pytest.mark.parametrize("flag, code, message", [
        ("--train-file", 5, "{bad}: row 4: byte 0xff is not UTF-8"),
        ("--attack-map", 5, "{bad}: 'utf-8' codec can't decode byte 0xff"),
        ("--config", 4, "config file {bad}: 'utf-8' codec can't decode"),
    ], ids=["corpus", "attack_map", "config"])
    def test_undecodable_byte_names_the_file(self, tmp_path, flag, code,
                                             message):
        rows = [line.encode() for line in CORPUS]
        rows[3] = rows[3].replace(b",", b",\xff", 1)
        bad = tmp_path / "bad"
        bad.write_bytes(b"\n".join({
            "--train-file": rows,
            "--attack-map": [b"normal\tNormal", b"\xff\tDoS"],
            "--config": [b'{"seed": 1,', b'"lr": "\xff"}'],
        }[flag]) + b"\n")
        train = tmp_path / "train.txt"
        train.write_text("\n".join(CORPUS) + "\n")
        files = {"--train-file": train, flag: bad}
        rc, err = _run_main(["--mode", "prep", "--out-dir", str(tmp_path / "o"),
                             *(a for f, p in files.items()
                               for a in (f, str(p)))])
        assert rc == code
        assert err.startswith("error: " + message.format(bad=bad))
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_undecodable_history_file_exit_5(self, workdir, tmp_path):
        _, _, test = load_prep(workdir, ("test",))
        model = tmp_path / "m.fmim"
        write_model(init_model(test.X.shape[1], 3, seed=0), model)
        hist = tmp_path / "history.csv"
        hist.write_bytes(b"round,test_accuracy\n0,5\xff.0\n")
        rc, err = _run_main(["--mode", "eval", "--out-dir", str(workdir),
                             "--model-file", str(model),
                             "--history-file", str(hist)])
        assert rc == 5
        assert err.startswith(f"error: {hist}: 'utf-8' codec can't decode")
        assert err.count("\n") == 1
        assert not (workdir / "eval_report.json").exists()

    def test_utf8_label_under_an_ascii_locale(self, tmp_path):
        """A label outside ASCII, mapped in --attack-map, preps where the
        locale's encoding is ASCII."""
        lines = list(CORPUS)
        fields = lines[2].split(",")
        fields[LABEL_FIELD] = "naïve"
        lines[2] = ",".join(fields)
        train = tmp_path / "train.txt"
        train.write_text("\n".join(lines) + "\n", encoding="utf-8")
        amap = tmp_path / "map.tsv"
        amap.write_text("".join(f"{name}\t{cls.name}\n" for name, cls in
                                load_attack_mapping().items())
                        + "naïve\tProbe\n", encoding="utf-8")
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0",
                   PYTHONUTF8="0", PYTHONPATH=os.pathsep.join(
                       [str(Path(__file__).parents[1] / "src"),
                        os.environ.get("PYTHONPATH", "")]))
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "fedmimic.cli", "--mode", "prep",
             "--train-file", str(train), "--attack-map", str(amap),
             "--out-dir", str(out)], capture_output=True, text=True,
            env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n_train"] + manifest["n_test"] == len(CORPUS)

    @pytest.mark.parametrize("line, message", [
        ("neptune", "expected 2 TAB-separated columns, got 1"),
        ("neptune\tDoS\tx", "expected 2 TAB-separated columns, got 3"),
        ("neptune\tMartian", "unknown class name 'Martian'"),
    ], ids=["no_tab", "three_columns", "unknown_class"])
    def test_attack_map_format_error_names_the_file(self, tmp_path, line,
                                                    message):
        amap = tmp_path / "map.tsv"
        amap.write_text(f"normal\tNormal\n{line}\n", encoding="utf-8")
        train = tmp_path / "train.txt"
        train.write_text("\n".join(CORPUS) + "\n")
        rc, err = _run_main(["--mode", "prep", "--train-file", str(train),
                             "--attack-map", str(amap),
                             "--out-dir", str(tmp_path / "o")])
        assert rc == 5
        assert err == f"error: {amap}: line 2: {message}\n"
        assert not (tmp_path / "o").exists()


class TestSplitFiles:
    """--train-file and --test-file: with --official-split used as they are,
    else pooled and split again; a file with no records is a format error."""

    @pytest.fixture
    def files(self, tmp_path, monkeypatch):
        monkeypatch.delenv(DATA_ROOT_ENV, raising=False)
        train, test = tmp_path / "train.txt", tmp_path / "test.txt"
        train.write_text("\n".join(CORPUS) + "\n")
        test.write_text("\n".join(make_kdd_lines(n=12, seed=5)) + "\n")
        return train, test

    def test_official_split_without_test_file_exit_2(self, files, tmp_path):
        rc, err = _run_main(["--mode", "prep", "--official-split",
                             "--train-file", str(files[0]),
                             "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert err == "error: --official-split requires --test-file\n"
        assert not (tmp_path / "o").exists()

    def test_official_split_uses_the_files_as_they_are(self, files,
                                                       tmp_path):
        train, test = files
        out = tmp_path / "o"
        assert main(["--mode", "prep", "--official-split", "--train-file",
                     str(train), "--test-file", str(test),
                     "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["n_train"], manifest["n_test"]) == (len(CORPUS), 12)
        mapping = load_attack_mapping()
        for path, name in ((train, "train"), (test, "test")):
            labels = [line.split(",")[LABEL_FIELD]
                      for line in path.read_text().splitlines()]
            assert np.load(out / f"{name}_y.npy").tolist() == [
                int(mapping[label]) for label in labels]

    @pytest.mark.parametrize("official", [False, True],
                             ids=["resplit", "official"])
    @pytest.mark.parametrize("empty, text", [
        ("train", ""), ("train", "\n  \n\n"), ("test", "")],
        ids=["empty_train", "blank_train", "empty_test"])
    def test_file_with_no_records_exit_5(self, files, tmp_path, official,
                                         empty, text):
        train, test = files
        path = {"train": train, "test": test}[empty]
        path.write_text(text)
        rc, err = _run_main(["--mode", "prep", "--train-file", str(train),
                             "--test-file", str(test),
                             "--out-dir", str(tmp_path / "o")]
                            + ["--official-split"] * official)
        assert rc == 5
        assert err == f"error: {path}: no records\n"
        assert not (tmp_path / "o").exists()


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_prep_succeeds_into_a_closed_pipe(self, prepped, tmp_path,
                                              unbuffered):
        """``fedmimic --mode prep ... | true``: the reader is gone before the
        summary is printed, buffered or not."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(__file__).parents[1] / "src"),
             os.environ.get("PYTHONPATH", "")]))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        out = tmp_path / "out"
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "fedmimic.cli", "--mode", "prep",
                 "--train-file", str(prepped / "train.txt"),
                 "--out-dir", str(out)],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env=env, timeout=120)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, "")
        meta = json.loads((out / "runmeta.json").read_text())
        assert len(meta["artifacts"]) == 6


class TestSelect:
    def test_mask_written(self, prepped):
        pipe = json.loads((prepped / "out" / "pipeline.json").read_text())
        mask, per_class = pipe["feature_mask"], pipe["per_class_features"]
        assert 3 <= len(mask) <= 15
        assert len(per_class) == 5
        assert mask == sorted(set().union(*per_class.values()))

    def test_without_prep_exit_3(self, tmp_path):
        assert main(["--mode", "select", "--out-dir", str(tmp_path)]) == 3

    def test_reads_no_test_split(self, workdir):
        (workdir / "test_X.npy").write_bytes(b"not an npy file")
        (workdir / "test_y.npy").write_bytes(b"not an npy file")
        assert main(["--mode", "select", "--out-dir", str(workdir),
                     "--k-features", "3", "--rfe-step", "25"]) == 0

    def test_negative_k_features_exits_4_promptly(self, workdir):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(__file__).parents[1] / "src"),
             os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "fedmimic.cli", "--mode", "select",
             "--out-dir", str(workdir), "--k-features=-1"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 4
        assert "'k_features'" in proc.stderr


def _damage(out: Path, case: str, split: str = "train") -> str:
    """Damages one prep artifact in ``out`` and returns its name. A damage
    of an array hits ``split``'s file unless its case names the split."""
    def edit_npy(name, change):
        np.save(out / name, change(np.load(out / name)))
        return name

    def edit_pipeline(change):
        doc = json.loads((out / "pipeline.json").read_text())
        change(doc)
        (out / "pipeline.json").write_text(json.dumps(doc))
        return "pipeline.json"

    if case == "y_shorter_than_X":
        return edit_npy(f"{split}_y.npy", lambda y: y[:-1])
    if case == "no_feature_mask":
        return edit_pipeline(lambda doc: doc.pop("feature_mask"))
    if case == "mask_out_of_range":
        return edit_pipeline(lambda doc: doc["feature_mask"].append(10 ** 6))
    if case == "X_all_nan":
        return edit_npy(f"{split}_X.npy", lambda X: np.full_like(X, np.nan))
    if case == "X_missing_a_column":
        return edit_npy("test_X.npy", lambda X: X[:, 1:])
    if case in ("train_label_9", "test_label_9"):
        return edit_npy(f"{case[:-8]}_y.npy",
                        lambda y: np.where(np.arange(len(y)) == 3, 9, y))
    if case == "float_labels":
        return edit_npy(f"{split}_y.npy", lambda y: y.astype(np.float64))
    if case == "float64_X":
        return edit_npy(f"{split}_X.npy", lambda X: X.astype(np.float64))
    if case == "truncated_npy":
        data = (out / f"{split}_X.npy").read_bytes()
        (out / f"{split}_X.npy").write_bytes(data[:len(data) // 2])
        return f"{split}_X.npy"
    if case == "object_npy":
        np.save(out / f"{split}_y.npy", np.array([0, "x", None], dtype=object))
        return f"{split}_y.npy"
    assert case == "unparsable_pipeline"
    (out / "pipeline.json").write_text('{"vocabs": ')
    return "pipeline.json"


# array damages hit the training split, except in eval, which reads only
# pipeline.json and the test split: there they hit the test split
ARRAY_DAMAGES = ["y_shorter_than_X", "X_all_nan", "float_labels",
                 "float64_X", "truncated_npy", "object_npy"]
DAMAGES = [*ARRAY_DAMAGES, "no_feature_mask", "train_label_9",
           "unparsable_pipeline"]
# select reads no test split and replaces the feature mask, so these damages
# show only in fl and eval
MASK_AND_TEST_DAMAGES = ["mask_out_of_range", "X_missing_a_column",
                         "test_label_9"]


class TestDamagedPrep:
    @pytest.mark.parametrize("mode,case", [
        *((mode, case) for mode in ("select", "fl") for case in DAMAGES),
        *(("eval", case) for case in DAMAGES if case != "train_label_9"),
        *((mode, case) for mode in ("fl", "eval")
          for case in MASK_AND_TEST_DAMAGES)])
    def test_exit_5_naming_the_file(self, workdir, capsys, mode, case):
        from fedmimic.nn import init_model
        width = load_prep(workdir)[1].X.shape[1]
        write_model(init_model(width, 3, 5, seed=0), workdir / "model.fmim")
        name = _damage(workdir, case, "test" if mode == "eval" else "train")
        capsys.readouterr()
        argv = ["--mode", mode, "--out-dir", str(workdir)]
        assert main(argv + (TRAIN_FLAGS if mode == "fl" else [])) == 5
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"error: {workdir / name}: ")
        assert "\n" not in err
        assert not (workdir / "report.json").exists()
        assert not (workdir / "eval_report.json").exists()

    @pytest.mark.parametrize("mode,split", [
        ("select", "train"), ("central", "train"), ("central", "test"),
        ("eval", "test")])
    def test_float64_matrix_from_an_older_prep_exit_5(self, workdir, capsys,
                                                      mode, split):
        """Prep writes float32; a float64 matrix is not cast but rejected,
        with a line that says how to mend it."""
        from fedmimic.nn import init_model
        width = load_prep(workdir)[1].X.shape[1]
        write_model(init_model(width, 3, 5, seed=0), workdir / "model.fmim")
        assert np.load(workdir / f"{split}_X.npy").dtype == np.float32
        name = _damage(workdir, "float64_X", split)
        capsys.readouterr()
        argv = ["--mode", mode, "--out-dir", str(workdir)]
        assert main(argv + (TRAIN_FLAGS if mode == "central" else [])) == 5
        assert capsys.readouterr().err == (
            f"error: {workdir / name}: float64 matrix from an older prep; "
            f"run --mode prep again\n")

    @pytest.mark.parametrize("case", [*ARRAY_DAMAGES, "train_label_9"])
    def test_eval_reads_no_train_split(self, workdir, case):
        from fedmimic.nn import init_model
        width = load_prep(workdir)[1].X.shape[1]
        write_model(init_model(width, 3, 5, seed=0), workdir / "model.fmim")
        assert _damage(workdir, case).startswith("train_")
        assert main(["--mode", "eval", "--out-dir", str(workdir)]) == 0
        for ext in ("txt", "csv", "json"):
            assert (workdir / f"eval_report.{ext}").exists()

    def test_eval_without_train_split(self, workdir):
        from fedmimic.nn import init_model
        width = load_prep(workdir)[1].X.shape[1]
        write_model(init_model(width, 3, 5, seed=0), workdir / "model.fmim")
        (workdir / "train_X.npy").unlink()
        (workdir / "train_y.npy").unlink()
        assert main(["--mode", "eval", "--out-dir", str(workdir)]) == 0
        assert main(["--mode", "fl", "--out-dir", str(workdir)]
                    + TRAIN_FLAGS) == 3


class TestTrainModes:
    @pytest.mark.parametrize("mode", ["central", "fl", "ftml", "fsml"])
    def test_runs_and_writes_reports(self, workdir, mode):
        assert main(["--mode", mode, "--out-dir", str(workdir)]
                    + TRAIN_FLAGS) == 0
        for name in ("model.fmim", "history.csv", "report.txt", "report.csv",
                     "report.json", "runmeta.json"):
            assert (workdir / name).exists()
        report = json.loads((workdir / "report.json").read_text())
        assert 0.0 <= report["overall_accuracy"] <= 100.0

    def test_missing_prep_exit_3(self, tmp_path):
        assert main(["--mode", "central", "--out-dir", str(tmp_path)]) == 3

    def test_bad_config_exit_4(self, workdir):
        rc = main(["--mode", "central", "--out-dir", str(workdir),
                   "--dropout", "1.5"])
        assert rc == 4

    def test_dropout_keeping_under_one_draw_in_65536_exit_4(self, workdir,
                                                            capsys):
        capsys.readouterr()
        rc = main(["--mode", "central", "--out-dir", str(workdir),
                   "--dropout", "0.99999"])
        assert rc == 4
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and "config key 'dropout'" in err

    def test_ftml_history_has_double_fit_count_of_fsml(self, workdir,
                                                       tmp_path):
        other = tmp_path / "fsml"
        shutil.copytree(workdir, other)
        assert main(["--mode", "ftml", "--out-dir", str(workdir)]
                    + TRAIN_FLAGS) == 0
        assert main(["--mode", "fsml", "--out-dir", str(other)]
                    + TRAIN_FLAGS) == 0

        def fits(path):
            lines = (path / "history.csv").read_text().splitlines()
            col = lines[0].split(",").index("local_fits")
            return [int(r.split(",")[col]) for r in lines[1:]]

        assert all(a == 2 * b for a, b in zip(fits(workdir), fits(other)))

    def test_determinism_byte_identical_reports(self, workdir, tmp_path):
        other = tmp_path / "again"
        shutil.copytree(workdir, other)
        assert main(["--mode", "fl", "--out-dir", str(workdir)]
                    + TRAIN_FLAGS) == 0
        assert main(["--mode", "fl", "--out-dir", str(other)]
                    + TRAIN_FLAGS) == 0
        for name in ("report.txt", "history.csv", "model.fmim"):
            assert (workdir / name).read_bytes() == (other / name).read_bytes()

    def test_thread_count_does_not_change_results(self, workdir, tmp_path):
        other = tmp_path / "threads"
        shutil.copytree(workdir, other)
        assert main(["--mode", "ftml", "--out-dir", str(workdir),
                     "--threads", "1"] + TRAIN_FLAGS) == 0
        assert main(["--mode", "ftml", "--out-dir", str(other),
                     "--threads", "3"] + TRAIN_FLAGS) == 0
        for name in ("report.txt", "history.csv", "model.fmim"):
            assert (workdir / name).read_bytes() == (other / name).read_bytes()

    @pytest.mark.parametrize("mode", ["fl", "ftml"])
    def test_default_threads_write_the_digests_of_one_thread(self, mode,
                                                             workdir,
                                                             tmp_path):
        other = tmp_path / "one"
        shutil.copytree(workdir, other)
        assert main(["--mode", mode, "--out-dir", str(workdir)]
                    + TRAIN_FLAGS) == 0
        assert main(["--mode", mode, "--out-dir", str(other),
                     "--threads", "1"] + TRAIN_FLAGS) == 0
        metas = [json.loads((d / "runmeta.json").read_text())
                 for d in (workdir, other)]
        assert metas[0]["config"]["threads"] == usable_cpus()
        assert metas[0]["artifacts"] == metas[1]["artifacts"]

    def test_central_history_is_one_round_of_one_client(self, workdir):
        assert main(["--mode", "central", "--out-dir", str(workdir)]
                    + TRAIN_FLAGS) == 0
        lines = (workdir / "history.csv").read_text().splitlines()
        assert lines[0] == "round,test_accuracy,local_fits,loss_client_0"
        assert len(lines) == 2 and lines[1].startswith("0,")

    def test_central_model_equals_one_shard_one_round_fl(self, workdir,
                                                         tmp_path):
        args = ["--mode", "central", "--out-dir", str(workdir)] + TRAIN_FLAGS
        assert main(args) == 0
        cfg = resolve_config(build_parser().parse_args(args))
        _, train, test = load_prep(workdir)
        model, _ = run_fl([ClientShard(0, train)], test, rounds=1,
                          config=train_config(cfg), seed=cfg["seed"],
                          hidden=cfg["hidden"])
        write_model(model, tmp_path / "direct.fmim", cfg["loss"])
        assert (tmp_path / "direct.fmim").read_bytes() == \
               (workdir / "model.fmim").read_bytes()

    def test_runmeta_records_resolved_config_and_digests(self, workdir):
        assert main(["--mode", "central", "--out-dir", str(workdir)]
                    + TRAIN_FLAGS) == 0
        meta = json.loads((workdir / "runmeta.json").read_text())
        assert meta["config"]["mode"] == "central"
        assert meta["config"]["epochs"] == 2
        assert len(meta["artifacts"]["model.fmim"]) == 64

    def test_runmeta_records_the_environment(self, workdir):
        assert main(["--mode", "fl", "--out-dir", str(workdir), "--threads",
                     "2"] + TRAIN_FLAGS) == 0
        env = json.loads((workdir / "runmeta.json").read_text())["environment"]
        assert env["numpy"] == np.__version__
        assert set(env["blas"]) == {"name", "version"}
        assert env["usable_cpus"] == usable_cpus() >= 1
        assert env["OPENBLAS_NUM_THREADS"] == os.environ.get(
            "OPENBLAS_NUM_THREADS")
        assert env["OMP_NUM_THREADS"] == os.environ.get("OMP_NUM_THREADS")
        assert env["threads"] == 2
        assert env["blas_pinnable"] == (openblas_threads() is not None)
        assert env["wall_s"] > 0
        if Path("/proc/self/status").exists():
            assert 1 < env["peak_rss_mb"] < 4096
        else:
            assert env["peak_rss_mb"] is None
        assert 1 < env["workers_peak_rss_mb"] < 4096  # 2 workers joined

    def test_no_workers_peak_when_clients_train_in_process(self, workdir):
        assert main(["--mode", "fl", "--out-dir", str(workdir), "--threads",
                     "1"] + TRAIN_FLAGS) == 0
        env = json.loads((workdir / "runmeta.json").read_text())["environment"]
        assert env["workers_peak_rss_mb"] is None

    @pytest.mark.skipif(not Path("/bin/sh").exists(),
                        reason="needs a POSIX shell")
    def test_no_workers_peak_after_a_child_reaped_before_exec(self, workdir):
        """A shell that ran a child before it exec'd the CLI leaves that
        child's peak in the CLI's RUSAGE_CHILDREN; select starts no worker
        and still records null."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(__file__).parents[1] / "src"),
             os.environ.get("PYTHONPATH", "")]))
        script = ('"$0" -c pass; exec "$0" -m fedmimic.cli --mode select '
                  '--out-dir "$1" --k-features 3 --rfe-step 25')
        proc = subprocess.run(["/bin/sh", "-c", script, sys.executable,
                               str(workdir)], capture_output=True, text=True,
                              env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        meta = json.loads((workdir / "runmeta.json").read_text())
        assert meta["environment"]["workers_peak_rss_mb"] is None

    def test_threads_default_is_the_usable_cpus(self):
        cfg = resolve_config(build_parser().parse_args(["--mode", "fl"]))
        want = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count())
        assert cfg["threads"] == usable_cpus() == want


def _row_ids(X):
    return X[:, 0].astype(int).tolist()


class TestMimicPool:
    """--per-user-public and --mimic-full-data, on a training split whose
    column 0 holds the row index and whose label is that index mod 5."""

    TRAIN = Dataset(np.repeat(np.arange(100, dtype=np.float32)[:, None], 2,
                              axis=1), np.arange(100) % 5)

    def clients(self, **flags):
        cfg = {**DEFAULTS, "seed": 5, "clients": 3, "samples_per_client": 10,
               **flags}
        return build_mimic_clients(self.TRAIN, cfg)

    def test_per_user_public_gives_client_c_its_chunk(self):
        shared, own = self.clients(), self.clients(per_user_public=True)
        public = shared[0].public
        assert all(c.public is public for c in shared)
        chunk = len(public) // 3
        assert chunk == 4  # 30-row pool, 12 public rows
        for c, (mine, theirs) in enumerate(zip(own, shared)):
            rows = slice(c * chunk, (c + 1) * chunk)
            assert _row_ids(mine.private.X) == _row_ids(theirs.private.X)
            assert _row_ids(mine.public.X) == _row_ids(public.X[rows])
            truth = mine.public.truth_for_diagnostics()
            assert truth.tolist() == public.truth_for_diagnostics()[
                rows].tolist()
            assert truth.tolist() == [i % 5 for i in _row_ids(mine.public.X)]

    @pytest.mark.parametrize("full, pooled", [(False, 30), (True, 100)])
    def test_mimic_full_data_pools_the_whole_split(self, full, pooled):
        clients = self.clients(mimic_full_data=full)
        private = [i for c in clients for i in _row_ids(c.private.X)]
        public = _row_ids(clients[0].public.X)
        # 60% private, split evenly over the 3 clients
        assert (len(private), len(public)) == (pooled * 3 // 5,
                                               pooled * 2 // 5)
        assert len(set(private + public)) == pooled
        if full:
            assert set(private + public) == set(range(100))

    def test_full_data_ignores_samples_per_client(self):
        assert len(self.clients(mimic_full_data=True,
                                samples_per_client=1000)) == 3
        with pytest.raises(ValueError, match="mimic pool needs 3000"):
            self.clients(samples_per_client=1000)

    @pytest.mark.parametrize("flags", [
        ["--per-user-public"], ["--mimic-full-data"],
        ["--per-user-public", "--mimic-full-data"]])
    def test_outputs_do_not_depend_on_threads(self, workdir, tmp_path, flags):
        other = tmp_path / "two"
        shutil.copytree(workdir, other)
        for out, threads in ((workdir, "1"), (other, "2")):
            assert main(["--mode", "ftml", "--out-dir", str(out), "--threads",
                         threads] + flags + TRAIN_FLAGS) == 0
        for name in ("model.fmim", "history.csv", "report.txt", "report.csv",
                     "report.json"):
            assert (workdir / name).read_bytes() == (other / name).read_bytes()

    def test_per_user_public_with_more_clients_than_public_rows_exit_4(
            self, workdir, capsys):
        # 300-row pool: 180 private rows, one per client, 120 public rows
        capsys.readouterr()
        assert main(["--mode", "ftml", "--out-dir", str(workdir),
                     "--per-user-public", "--clients", "150",
                     "--samples-per-client", "2"]) == 4
        assert capsys.readouterr().err == (
            "error: public pool too small for 150 clients\n")


class TestCommandLine:
    @pytest.mark.parametrize("argv", [
        ["--mode", "fl", "--rounds", "abc"],
        ["--mode", "fl", "--loss", "bogus"],
        ["--mode", "bogus"],
        ["--mode", "fl", "--bogus"],
        ["--rounds", "3"],
    ], ids=["int_flag_not_an_int", "loss_not_a_choice", "mode_not_a_choice",
            "unknown_flag", "no_mode"])
    def test_bad_command_line_exit_4_with_one_line(self, tmp_path, argv):
        rc, err = _run_main(argv + ["--out-dir", str(tmp_path / "out")])
        assert rc == 4
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--help"])
        assert e.value.code == 0
        assert "--mode" in capsys.readouterr().out


class TestConfigFile:
    def test_flags_override_config_file(self, workdir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, "hidden": 8, "batch": 32,
                                   "seed": 1}))
        assert main(["--mode", "central", "--out-dir", str(workdir),
                     "--config", str(cfg), "--epochs", "2"]) == 0
        meta = json.loads((workdir / "runmeta.json").read_text())
        assert meta["config"]["epochs"] == 2
        assert meta["config"]["hidden"] == 8

    @pytest.mark.parametrize("doc,needle", [
        ({"rounds": "x"}, "'rounds'"),
        ({"rounds": True}, "'rounds'"),
        ({"rounds": 2.5}, "'rounds'"),
        ({"lr": "0.1"}, "'lr'"),
        ({"lr": False}, "'lr'"),
        ({"train_file": 3}, "'train_file'"),
        ({"official_split": 1}, "'official_split'"),
        ({"loss": 0}, "'loss'"),
        (["rounds"], "JSON object"),
    ])
    def test_wrong_value_type_exit_4(self, workdir, tmp_path, capsys, doc,
                                     needle):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["--mode", "fl", "--out-dir", str(workdir),
                     "--config", str(cfg)]) == 4
        assert needle in capsys.readouterr().err

    def test_int_for_float_and_null_path_accepted(self, workdir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lr": 1, "model_file": None}))
        assert main(["--mode", "central", "--out-dir", str(workdir),
                     "--config", str(cfg)] + TRAIN_FLAGS) == 0
        meta = json.loads((workdir / "runmeta.json").read_text())
        assert meta["config"]["lr"] == 1

    def test_line_break_in_a_path_stays_on_one_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train_file": "a\nb\rc"}))
        assert main(["--mode", "prep", "--config", str(cfg), "--out-dir",
                     str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: training file not found: a\\nb\\rc\n")

    def test_unknown_key_rejected(self, workdir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"verbosity": 3}))
        assert main(["--mode", "central", "--out-dir", str(workdir),
                     "--config", str(cfg)]) == 4


def _outside(key):
    """Values of the config key's type outside its interval in RANGES."""
    low, high, brackets = RANGES[key]
    if isinstance(DEFAULTS[key], int):  # counts have no upper bound
        return st.integers(max_value=low - 1)
    below = low if brackets[0] == "(" else math.nextafter(low, -math.inf)
    above = high if brackets[1] == ")" else math.nextafter(high, math.inf)
    return (st.floats(max_value=below) | st.floats(min_value=above)
            | st.just(math.nan))


def _out_of_range():
    """(key, value) pairs outside the range check_ranges allows."""
    return st.sampled_from(sorted(RANGES)).flatmap(
        lambda key: st.tuples(st.just(key), _outside(key)))


class TestConfigRanges:
    @settings(max_examples=60, deadline=None)
    @given(case=_out_of_range(), via_file=st.booleans())
    def test_out_of_range_exit_4_naming_key(self, tmp_path_factory, case,
                                            via_file):
        key, val = case
        base = tmp_path_factory.mktemp("ranges")
        # no prep artifacts here: without the range check fl would exit 3
        argv = ["--mode", "fl", "--out-dir", str(base / "out")]
        if via_file:
            cfg = base / "cfg.json"
            cfg.write_text(json.dumps({key: val}))  # NaN/Infinity are JSON here
            argv += ["--config", str(cfg)]
        else:
            argv.append(f"--{key.replace('_', '-')}={val}")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(argv) == 4
        assert f"config key {key!r}" in err.getvalue()

    @pytest.mark.parametrize("key,val", [
        ("loss", "bogus"), ("student_init", "bogus"), ("seed", -5),
        ("hidden", -3), ("batch", 0), ("epochs", -2), ("dropout", 3.0),
        ("beta1", 5.0), ("beta2", 1.0), ("private_fraction", 7.0),
        ("test_fraction", 0.0)])
    @pytest.mark.parametrize("mode", ["prep", "fl", "ftml"])
    @pytest.mark.parametrize("via_file", [False, True])
    def test_bad_value_exit_4_naming_key(self, tmp_path, key, val, mode,
                                         via_file):
        """Each mode checks a file value as it checks the flag, also of a
        key it does not use: a choice outside its list and a number outside
        its range exit 4 before any work."""
        out = tmp_path / "out"
        argv = ["--mode", mode, "--out-dir", str(out)]
        if via_file:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: val}))
            argv += ["--config", str(cfg)]
        else:
            argv.append(f"--{key.replace('_', '-')}={val}")
        rc, err = _run_main(argv)
        assert rc == 4
        assert err.startswith(f"error: config key {key!r}")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_boundary_values_accepted(self, workdir):
        assert main(["--mode", "fl", "--out-dir", str(workdir),
                     "--rounds", "0", "--threads", "1", "--lr", "1e-9",
                     "--clients", "1", "--samples-per-client", "1",
                     "--hidden", "1", "--epochs", "0", "--batch", "1",
                     "--dropout", str(1.0 - 2.0 ** -16), "--beta1", "0",
                     "--beta2", "0", "--private-fraction", "1e-9"]) == 0


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.text(min_size=250, max_size=300),  # past a file name's length
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=12)


def _typed_value(key):
    """JSON values of the type the config key takes."""
    default = DEFAULTS[key]
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers()
    if isinstance(default, float):
        return st.floats() | st.integers()
    return st.none() | st.text() | st.text(min_size=250, max_size=300)


# documents of known keys, each with a value of its type, which get past
# the type check to the checks behind it
TYPED_CONFIGS = st.lists(
    st.sampled_from(sorted(DEFAULTS)).flatmap(
        lambda key: st.tuples(st.just(key), _typed_value(key))),
    max_size=8).map(dict)


class TestConfigProperties:
    @settings(max_examples=300, deadline=None)
    @given(doc=JSON_VALUES | TYPED_CONFIGS
           | st.dictionaries(st.sampled_from(sorted(DEFAULTS)) | st.text(),
                             JSON_VALUES, max_size=8))
    def test_random_json_config_exits_with_one_error_line(
            self, tmp_path_factory, doc):
        base = tmp_path_factory.mktemp("config")
        cfg = base / "cfg.json"
        cfg.write_text(json.dumps(doc))  # NaN/Infinity are JSON here
        cwd = base / "cwd"
        cwd.mkdir()
        old_cwd, data_root = os.getcwd(), os.environ.pop(DATA_ROOT_ENV, None)
        os.chdir(cwd)
        try:
            rc, err = _run_main(["--mode", "prep", "--config", str(cfg)])
        finally:
            os.chdir(old_cwd)
            if data_root is not None:
                os.environ[DATA_ROOT_ENV] = data_root
        assert rc in (2, 4, 5)
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(cwd.iterdir()) == []
        assert sorted(p.name for p in base.iterdir()) == ["cfg.json", "cwd"]


class TestEval:
    def test_eval_after_training(self, workdir):
        assert main(["--mode", "fl", "--out-dir", str(workdir)]
                    + TRAIN_FLAGS) == 0
        assert main(["--mode", "eval", "--out-dir", str(workdir),
                     "--history-file", str(workdir / "history.csv")]) == 0
        assert (workdir / "eval_report.csv").exists()
        series = (workdir / "accuracy_series.csv").read_text().splitlines()
        assert series[0] == "round,test_accuracy"
        assert len(series) == 3  # header + 2 rounds
        # standalone evaluation agrees with the training-time report
        train_rep = json.loads((workdir / "report.json").read_text())
        eval_rep = json.loads((workdir / "eval_report.json").read_text())
        assert eval_rep["overall_accuracy"] == pytest.approx(
            train_rep["overall_accuracy"], abs=0.05)

    def test_eval_of_central_history_writes_series(self, workdir):
        assert main(["--mode", "central", "--out-dir", str(workdir)]
                    + TRAIN_FLAGS) == 0
        assert main(["--mode", "eval", "--out-dir", str(workdir),
                     "--history-file", str(workdir / "history.csv")]) == 0
        series = (workdir / "accuracy_series.csv").read_text().splitlines()
        assert series[0] == "round,test_accuracy"
        assert len(series) == 2 and series[1].startswith("0,")

    @pytest.mark.parametrize("text,line", [
        ("", 1),
        ("round,test_accuracy,local_fits\n0,50.0000,3\n1,60.0000\n", 3),
    ])
    def test_malformed_history_exit_5(self, workdir, tmp_path, capsys, text,
                                      line):
        assert main(["--mode", "central", "--out-dir", str(workdir)]
                    + TRAIN_FLAGS) == 0
        hist = tmp_path / "history.csv"
        hist.write_text(text)
        capsys.readouterr()
        assert main(["--mode", "eval", "--out-dir", str(workdir),
                     "--history-file", str(hist)]) == 5
        err = capsys.readouterr().err.strip()
        assert f"{hist} line {line}" in err and "\n" not in err
        assert not (workdir / "eval_report.json").exists()

    def test_corrupt_model_exit_5(self, workdir):
        (workdir / "model.fmim").write_bytes(b"JUNK!" + b"\x00" * 32)
        assert main(["--mode", "eval", "--out-dir", str(workdir)]) == 5

    def test_missing_model_exit_2(self, workdir):
        assert main(["--mode", "eval", "--out-dir", str(workdir),
                     "--model-file", str(workdir / "ghost.fmim")]) == 2

    @pytest.mark.parametrize("case,message", [
        ("header_cut_in_counts", "truncated header"),
        ("header_cut_in_layers", "truncated header"),
        ("zero_layers", "no layers"),
        ("payload_cut", "payload"),
        ("unknown_activation", "activation id 9"),
        ("unchained_dims", "does not match"),
    ])
    def test_malformed_model_exit_5(self, workdir, tmp_path, capsys, case,
                                    message):
        from fedmimic.nn import init_model
        good = tmp_path / "good.fmim"
        write_model(init_model(4, 3, 5, seed=0), good)
        data = bytearray(good.read_bytes())
        # header: magic (5), layer count + loss id (5), then 9 bytes a layer
        if case == "header_cut_in_counts":
            data = data[:7]
        elif case == "header_cut_in_layers":
            data = data[:5 + 5 + 9 + 4]
        elif case == "zero_layers":
            data = data[:5] + bytes([0, 0, 0, 0, 0])
        elif case == "payload_cut":
            data = data[:-3]
        elif case == "unknown_activation":
            data[5 + 5 + 8] = 9
        else:  # layer 1 claims 4 inputs where layer 0 has 3 outputs
            data[5 + 5 + 9] = 4
        bad = tmp_path / f"{case}.fmim"
        bad.write_bytes(bytes(data))
        assert main(["--mode", "eval", "--out-dir", str(workdir),
                     "--model-file", str(bad)]) == 5
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("case,message", [
        ("seven_classes", "output layer has 7 classes"),
        ("nan_weight", "non-finite parameters"),
    ])
    def test_unusable_model_exit_5(self, workdir, tmp_path, capsys, case,
                                   message):
        from fedmimic.nn import init_model
        width = load_prep(workdir)[1].X.shape[1]
        model = init_model(width, 3, 7 if case == "seven_classes" else 5,
                           seed=0)
        if case == "nan_weight":
            model.weights[1][0, 2] = np.nan
        bad = tmp_path / f"{case}.fmim"
        write_model(model, bad)
        capsys.readouterr()
        assert main(["--mode", "eval", "--out-dir", str(workdir),
                     "--model-file", str(bad)]) == 5
        err = capsys.readouterr().err.strip()
        assert message in err and "\n" not in err
        assert not (workdir / "eval_report.json").exists()

    @pytest.mark.parametrize("mode", ["central", "fl", "ftml", "fsml"])
    def test_eval_reproduces_training_report_exactly(self, workdir, mode):
        # the saved model is the trained model, so eval predicts the same
        # classes on every test row
        assert main(["--mode", mode, "--out-dir", str(workdir)]
                    + TRAIN_FLAGS) == 0
        assert main(["--mode", "eval", "--out-dir", str(workdir)]) == 0
        for ext in ("txt", "csv", "json"):
            assert ((workdir / f"eval_report.{ext}").read_bytes()
                    == (workdir / f"report.{ext}").read_bytes())

    def test_dimension_mismatch_exit_5(self, workdir, tmp_path):
        from fedmimic.nn import init_model
        bad = tmp_path / "bad_dim.fmim"
        write_model(init_model(3, 4, 5, seed=0), bad)
        assert main(["--mode", "eval", "--out-dir", str(workdir),
                     "--model-file", str(bad)]) == 5


FMIM_HEADER_BYTES = 37  # a 3-layer model: magic 5 + head 5 + 3 layers x 9
FMIM_LOSS_ID_BYTE = 9   # after the magic and the uint32 layer count


@pytest.fixture(scope="module")
def fmim_case(prepped, tmp_path_factory):
    """(out dir, bytes of a valid model for its test split): a copy of the
    prepped dir and a width-6-6-5 model."""
    from fedmimic.nn import init_model
    out = tmp_path_factory.mktemp("fmim") / "out"
    shutil.copytree(prepped / "out", out)
    width = load_prep(out, ("test",))[2].X.shape[1]
    model = init_model(width, 6, 5, seed=0)
    write_model(model, out / "model.fmim")
    data = (out / "model.fmim").read_bytes()
    assert len(data) == FMIM_HEADER_BYTES + 4 * model.buf.size
    return out, data


def _eval_model_bytes(out: Path, data: bytes) -> tuple[int, str]:
    """(exit code, stderr) of --mode eval on a model file holding ``data``."""
    (out / "bad.fmim").write_bytes(data)
    return _run_main(["--mode", "eval", "--out-dir", str(out),
                      "--model-file", str(out / "bad.fmim")])


class TestModelFileProperties:
    """Damaged .fmim files end in exit 5 and one error line, never in a
    traceback (main would raise)."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_truncation_exits_5(self, fmim_case, data):
        out, good = fmim_case
        cut = data.draw(st.integers(0, len(good) - 1), label="cut")
        rc, err = _eval_model_bytes(out, good[:cut])
        assert rc == 5
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_header_bit_flip_exits_5_or_loads_chained_dims(self, fmim_case):
        # every single-bit flip of the header, each on its own
        out, good = fmim_case
        loaded = []
        for byte in range(FMIM_HEADER_BYTES):
            for bit in range(8):
                flipped = bytearray(good)
                flipped[byte] ^= 1 << bit
                rc, err = _eval_model_bytes(out, bytes(flipped))
                if rc == 0:
                    assert err == ""
                    loaded.append((byte, bit))
                else:
                    assert rc == 5, (byte, bit)
                    assert err.startswith("error: ") and err.count("\n") == 1
        # only the loss id's low bit (mae -> xent, which eval does not use)
        # leaves a valid model: the activation ids are fixed by position
        assert loaded == [(FMIM_LOSS_ID_BYTE, 0)]
        flipped = bytearray(good)
        flipped[FMIM_LOSS_ID_BYTE] ^= 1
        (out / "bad.fmim").write_bytes(bytes(flipped))
        model, loss_kind = load_model(out / "bad.fmim")
        assert loss_kind == "xent"
        assert all(a[1] == b[0] for a, b in zip(model.dims, model.dims[1:]))
        assert [w.shape for w in model.weights] == [
            (o, i) for i, o in model.dims]
        assert model.dims[-1][1] == 5

    @pytest.mark.parametrize("layer, act", [(0, 1), (1, 1), (2, 0), (2, 2)])
    def test_activation_id_off_its_position_exits_5(self, fmim_case, layer,
                                                    act):
        out, good = fmim_case
        damaged = bytearray(good)
        damaged[FMIM_LOSS_ID_BYTE + 1 + 9 * layer + 8] = act
        rc, err = _eval_model_bytes(out, bytes(damaged))
        assert rc == 5
        assert err == (f"error: layer {layer} of {out / 'bad.fmim'} has "
                       f"activation id {act}, expected "
                       f"{1 if layer == 2 else 0}\n")


class TestPathKinds:
    @pytest.mark.parametrize("mode,flag,what", [
        ("fl", "--config", "config file"),
        ("prep", "--train-file", "training file"),
        ("prep", "--test-file", "test file"),
        ("prep", "--attack-map", "attack map"),
        ("eval", "--model-file", "model file"),
        ("eval", "--history-file", "history file"),
    ])
    def test_directory_input_exit_2(self, workdir, prepped, tmp_path, capsys,
                                    mode, flag, what):
        from fedmimic.nn import init_model
        folder = tmp_path / "folder"
        folder.mkdir()
        out = tmp_path / "prep" if mode == "prep" else workdir
        argv = ["--mode", mode, "--out-dir", str(out), flag, str(folder)]
        if mode == "prep" and flag != "--train-file":
            argv += ["--train-file", str(prepped / "train.txt")]
        if flag == "--history-file":
            width = load_prep(workdir)[1].X.shape[1]
            write_model(init_model(width, 3, 5, seed=0), workdir / "model.fmim")
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err.strip()
        assert err == f"error: {what} is a directory: {folder}"
        assert not (workdir / "eval_report.json").exists()

    @pytest.mark.parametrize("mode, flag, code, what", [
        ("prep", "--train-file", 2, "error: training file not found: "),
        ("prep", "--out-dir", 4, "error: --out-dir "),
        ("select", "--out-dir", 3, "error: prep artifacts missing from "),
        ("fl", "--out-dir", 3, "error: prep artifacts missing from "),
    ])
    def test_name_too_long_for_the_system(self, prepped, tmp_path, capsys,
                                          mode, flag, code, what):
        long_name = tmp_path / ("a" * 300)  # NAME_MAX is 255 on Linux
        argv = {"--out-dir": str(tmp_path / "o")}
        if mode == "prep":
            argv["--train-file"] = str(prepped / "train.txt")
        argv[flag] = str(long_name)
        capsys.readouterr()
        assert main(["--mode", mode] + [a for kv in argv.items()
                                        for a in kv]) == code
        err = capsys.readouterr().err
        assert err.startswith(what) and err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    def test_prep_out_dir_naming_a_file_exit_4(self, prepped, tmp_path,
                                               capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        capsys.readouterr()
        assert main(["--mode", "prep", "--train-file",
                     str(prepped / "train.txt"), "--out-dir",
                     str(taken)]) == 4
        err = capsys.readouterr().err.strip()
        assert err == f"error: --out-dir {taken} is not a directory"
        assert taken.read_text() == ""

    def test_prep_out_dir_beneath_a_file_exit_4(self, prepped, tmp_path,
                                                capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        capsys.readouterr()
        assert main(["--mode", "prep", "--train-file",
                     str(prepped / "train.txt"), "--out-dir",
                     str(taken / "o")]) == 4
        err = capsys.readouterr().err.strip()
        assert err == f"error: --out-dir {taken / 'o'} is not a directory"


def _snapshot(out: Path) -> dict:
    """Every entry under ``out``, hidden ones included: its bytes, None for
    a directory."""
    return {str(p.relative_to(out)): None if p.is_dir() else p.read_bytes()
            for p in sorted(out.rglob("*"))}


def _fail_write(monkeypatch, name: str, exc: BaseException):
    """Makes the write of artifact ``name`` put half its bytes into its
    temporary file and then raise ``exc``."""
    real = cli._HashingFile.write

    def write(self, data):
        if Path(self.f.name).name == f".{name}.tmp":
            real(self, data[:len(data) // 2])
            raise exc
        return real(self, data)
    monkeypatch.setattr(cli._HashingFile, "write", write)


class TestArtifactWriter:
    """A stage's files land together after its last write, runmeta.json
    last; a stage that fails leaves its out dir as it found it."""

    def test_unwritable_artifact_exit_4_leaves_earlier_files(self, workdir):
        assert main(["--mode", "fl", "--out-dir", str(workdir)]
                    + TRAIN_FLAGS) == 0
        (workdir / "report.txt").unlink()
        (workdir / "report.txt").mkdir()
        before = _snapshot(workdir)
        rc, err = _run_main(["--mode", "fl", "--out-dir", str(workdir)]
                            + TRAIN_FLAGS + ["--seed", "2"])
        assert rc == 4
        assert err == (f"error: cannot write {workdir / 'report.txt'}: "
                       f"{os.strerror(errno.EISDIR)}\n")
        assert _snapshot(workdir) == before
        for name in ("model.fmim", "history.csv", "runmeta.json"):
            assert before[name]
        assert not list(workdir.glob(".*"))

    @pytest.mark.parametrize("mode, name", [("select", "pipeline.json"),
                                            ("fl", "runmeta.json")])
    def test_failed_write_exit_4_leaves_out_dir(self, workdir, monkeypatch,
                                                mode, name):
        before = _snapshot(workdir)
        _fail_write(monkeypatch, name,
                    OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)))
        rc, err = _run_main(["--mode", mode, "--out-dir", str(workdir),
                             "--k-features", "3", "--rfe-step", "25"]
                            + (TRAIN_FLAGS if mode == "fl" else []))
        assert rc == 4
        assert err == (f"error: cannot write {workdir / name}: "
                       f"{os.strerror(errno.ENOSPC)}\n")
        assert _snapshot(workdir) == before

    def test_interrupted_prep_leaves_out_dir(self, prepped, workdir,
                                             monkeypatch):
        before = _snapshot(workdir)
        _fail_write(monkeypatch, "train_X.npy", KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            main(["--mode", "prep", "--train-file", str(prepped / "train.txt"),
                  "--out-dir", str(workdir), "--seed", "2"])
        assert _snapshot(workdir) == before

    def test_digests_and_modes_describe_the_files(self, prepped, tmp_path):
        """Each stage's runmeta.json digests are those of the files on disk,
        whose modes are what a plain open gives."""
        probe = tmp_path / "probe"
        with open(probe, "wb"):
            pass
        mode = stat.S_IMODE(probe.stat().st_mode)
        out = tmp_path / "out"
        stages = [["--mode", "prep", "--train-file",
                   str(prepped / "train.txt"), "--test-fraction", "0.2"],
                  ["--mode", "select", "--k-features", "3", "--rfe-step", "25"],
                  *(["--mode", m] + TRAIN_FLAGS
                    for m in ("central", "fl", "ftml", "fsml")),
                  ["--mode", "eval", "--history-file",
                   str(tmp_path / "history.csv")]]
        for argv in stages:
            if argv[1] == "eval":
                shutil.copy(out / "history.csv", tmp_path / "history.csv")
            assert main(argv + ["--out-dir", str(out)]) == 0
            digests = json.loads((out / "runmeta.json").read_text())[
                "artifacts"]
            assert digests and "runmeta.json" not in digests
            for name, digest in digests.items():
                assert hashlib.sha256((out / name).read_bytes()).hexdigest() \
                    == digest, (argv[1], name)
            for path in out.iterdir():
                assert stat.S_IMODE(path.stat().st_mode) == mode, path
            assert not list(out.glob(".*"))
