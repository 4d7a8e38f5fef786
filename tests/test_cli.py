import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmimic.cli import (MINIMUM, blas_build, build_parser, load_prep, main,
                          resolve_config, train_config, usable_cpus)
from fedmimic.fedsim import ClientShard, openblas_threads, run_fl
from fedmimic.modelio import save_model

from conftest import make_kdd_lines


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


class TestSelect:
    def test_mask_written(self, prepped):
        pipe = json.loads((prepped / "out" / "pipeline.json").read_text())
        mask = pipe["feature_mask"]
        assert 3 <= len(mask) <= 15
        assert mask == sorted(set(mask))
        assert len(pipe["per_class_features"]) == 5

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
        assert len(err.splitlines()) == 1 and "dropout_rate" in err

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
        save_model(model, tmp_path / "direct.fmim", cfg["loss"])
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

    def test_blas_build_without_show_config_dicts(self, monkeypatch):
        def old_show_config():  # numpy < 1.25 takes no mode
            raise AssertionError("printed instead of returning")
        monkeypatch.setattr(np, "show_config", old_show_config)
        assert set(blas_build()) == {"name", "version"}

    def test_threads_default_is_the_usable_cpus(self):
        cfg = resolve_config(build_parser().parse_args(["--mode", "fl"]))
        want = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count())
        assert cfg["threads"] == usable_cpus() == want


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

    def test_unknown_key_rejected(self, workdir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"verbosity": 3}))
        assert main(["--mode", "central", "--out-dir", str(workdir),
                     "--config", str(cfg)]) == 4


def _out_of_range():
    """(key, value) pairs outside the range check_ranges allows."""
    counts = st.sampled_from(sorted(MINIMUM)).flatmap(
        lambda key: st.tuples(st.just(key),
                              st.integers(max_value=MINIMUM[key] - 1)))
    lrs = st.tuples(st.just("lr"),
                    st.floats(max_value=0.0) | st.sampled_from(
                        [math.nan, math.inf, -math.inf]))
    return counts | lrs


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

    def test_boundary_values_accepted(self, workdir):
        assert main(["--mode", "fl", "--out-dir", str(workdir),
                     "--rounds", "0", "--threads", "1", "--lr", "1e-9",
                     "--clients", "1", "--samples-per-client", "1",
                     "--hidden", "4", "--epochs", "1"]) == 0


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
        from fedmimic.modelio import save_model
        from fedmimic.nn import init_model
        good = tmp_path / "good.fmim"
        save_model(init_model(4, 3, 5, seed=0), good)
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
        save_model(model, bad)
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
        from fedmimic.modelio import save_model
        from fedmimic.nn import init_model
        bad = tmp_path / "bad_dim.fmim"
        save_model(init_model(3, 4, 5, seed=0), bad)
        assert main(["--mode", "eval", "--out-dir", str(workdir),
                     "--model-file", str(bad)]) == 5


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
            save_model(init_model(width, 3, 5, seed=0), workdir / "model.fmim")
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err.strip()
        assert err == f"error: {what} is a directory: {folder}"
        assert not (workdir / "eval_report.json").exists()

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
