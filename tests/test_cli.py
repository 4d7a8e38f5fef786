import json
import shutil

import numpy as np
import pytest

from fedmimic.cli import main

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

    def test_runmeta_records_resolved_config_and_digests(self, workdir):
        assert main(["--mode", "central", "--out-dir", str(workdir)]
                    + TRAIN_FLAGS) == 0
        meta = json.loads((workdir / "runmeta.json").read_text())
        assert meta["config"]["mode"] == "central"
        assert meta["config"]["epochs"] == 2
        assert len(meta["artifacts"]["model.fmim"]) == 64


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

    def test_unknown_key_rejected(self, workdir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"verbosity": 3}))
        assert main(["--mode", "central", "--out-dir", str(workdir),
                     "--config", str(cfg)]) == 4


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

    def test_dimension_mismatch_exit_5(self, workdir, tmp_path):
        from fedmimic.modelio import save_model
        from fedmimic.nn import init_model
        bad = tmp_path / "bad_dim.fmim"
        save_model(init_model(3, 4, 5, seed=0), bad)
        assert main(["--mode", "eval", "--out-dir", str(workdir),
                     "--model-file", str(bad)]) == 5
