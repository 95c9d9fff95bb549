"""CLI subcommands: files produced, exit codes, determinism, composition."""

import json
import struct

import numpy as np
import pytest

from sclmetric import model
from sclmetric.cli import main
from sclmetric.dataset import load_embeddings

SMALL_SYNTH = {
    "n_subjects": 8,
    "dim": 6,
    "n_non_injured": 3,
    "n_injured": 3,
    "subject_radius": 8.0,
    "sigma_n": 0.1,
    "sigma_i": 0.1,
    "injury_shift": 1.0,
    "n_injury_modes": 1,
}

FAST_TRAIN = {
    "learning_rate": 0.001,
    "epochs": 2,
    "batch_size": 8,
    "per_subject": 2,
    "hidden_dims": [8, 4],
}


def write_config(tmp_path, **sections):
    cfg = {"synth": dict(SMALL_SYNTH), "train": dict(FAST_TRAIN), "eval": {"verification_pairs": 5, "ranks": [1]}}
    for key, value in sections.items():
        cfg.setdefault(key, {}).update(value)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


@pytest.fixture
def dataset_csv(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "synth"
    assert main(["synth", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
    return cfg, str(out / "dataset.csv")


class TestSynth:
    def test_row_count_and_determinism(self, tmp_path, dataset_csv):
        cfg, path = dataset_csv
        lines = open(path, encoding="utf-8").read().splitlines()
        assert len(lines) == 1 + 8 * (3 + 3)
        out2 = tmp_path / "synth2"
        assert main(["synth", "--config", cfg, "--seed", "3", "--out", str(out2)]) == 0
        assert open(path, "rb").read() == open(out2 / "dataset.csv", "rb").read()

    def test_invalid_config_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"synth": {"n_subjects": 0}}), encoding="utf-8")
        assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_key_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"synth": {"wat": 1}}), encoding="utf-8")
        assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_env_var_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SCLMETRIC_SEED", "3")
        cfg = write_config(tmp_path)
        out_env = tmp_path / "env"
        assert main(["synth", "--config", cfg, "--out", str(out_env)]) == 0
        out_flag = tmp_path / "flag"
        monkeypatch.delenv("SCLMETRIC_SEED")
        assert main(["synth", "--config", cfg, "--seed", "3", "--out", str(out_flag)]) == 0
        assert (out_env / "dataset.csv").read_bytes() == (out_flag / "dataset.csv").read_bytes()

    def test_flag_beats_config_seed(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 1, "synth": SMALL_SYNTH}), encoding="utf-8")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["synth", "--config", str(cfg_path), "--seed", "2", "--out", str(out_a)]) == 0
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({"synth": SMALL_SYNTH}), encoding="utf-8")
        assert main(["synth", "--config", str(bare), "--seed", "2", "--out", str(out_b)]) == 0
        assert (out_a / "dataset.csv").read_bytes() == (out_b / "dataset.csv").read_bytes()


class TestTrain:
    def test_scl_run_writes_checkpoint_and_log(self, tmp_path, dataset_csv):
        cfg, data = dataset_csv
        out = tmp_path / "train"
        rc = main([
            "train", data, "--config", cfg, "--seed", "3", "--out", str(out),
            "--loss", "scl", "--alpha1", "2", "--alpha2", "3.1",
        ])
        assert rc == 0
        ckpt = model.load_checkpoint(out / "checkpoint.ckpt")
        assert ckpt.metadata["loss"] == "scl"
        log_lines = (out / "train_log.csv").read_text(encoding="utf-8").splitlines()
        assert log_lines[0] == "epoch,sum_loss,mean_genuine,mean_imposter,seconds"
        assert len(log_lines) == 1 + 2

    def test_cl_margin_flag(self, tmp_path, dataset_csv):
        cfg, data = dataset_csv
        out = tmp_path / "cl"
        rc = main(["train", data, "--config", cfg, "--out", str(out), "--loss", "cl", "--margin", "2"])
        assert rc == 0
        assert model.load_checkpoint(out / "checkpoint.ckpt").metadata["loss"] == "cl"

    def test_margin_with_scl_is_config_error(self, tmp_path, dataset_csv):
        cfg, data = dataset_csv
        rc = main(["train", data, "--config", cfg, "--out", str(tmp_path / "x"), "--loss", "scl", "--margin", "2"])
        assert rc == 2

    def test_zero_lr_checkpoint_equals_initialization(self, tmp_path, dataset_csv):
        cfg, data = dataset_csv
        out = tmp_path / "zero"
        rc = main(["train", data, "--config", cfg, "--seed", "3", "--out", str(out), "--lr", "0"])
        assert rc == 0
        ckpt = model.load_checkpoint(out / "checkpoint.ckpt")
        ds = load_embeddings(data)
        init = model.init_model([ds.dimension, 8, 4], ckpt.metadata["seed"])
        assert ckpt.params == init

    def test_non_finite_loss_exit_4(self, tmp_path, dataset_csv, capsys):
        cfg, data = dataset_csv
        with np.errstate(all="ignore"):
            rc = main(["train", data, "--config", cfg, "--seed", "3", "--out", str(tmp_path / "x"), "--lr", "1e300"])
        assert rc == 4
        assert capsys.readouterr().err.startswith("numeric error: non-finite loss")

    def test_missing_dataset_exit_3(self, tmp_path):
        assert main(["train", str(tmp_path / "none.csv"), "--out", str(tmp_path / "o")]) == 3


class TestEval:
    @pytest.fixture
    def trained(self, tmp_path, dataset_csv):
        cfg, data = dataset_csv
        out = tmp_path / "train"
        assert main(["train", data, "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
        return cfg, data, str(out / "checkpoint.ckpt")

    def test_report_files_and_rank_count(self, tmp_path, trained):
        cfg, data, ckpt = trained
        out = tmp_path / "eval"
        rc = main(["eval", ckpt, data, "--config", cfg, "--seed", "3", "--out", str(out), "--svg"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["ranks"] == [1]
        assert (out / "cmc.csv").exists()
        assert (out / "far_gar.csv").exists()
        assert (out / "cmc.svg").exists()
        assert (out / "scores.svg").exists()

    def test_rerun_byte_identical(self, tmp_path, trained):
        cfg, data, ckpt = trained
        out = tmp_path / "eval"
        args = ["eval", ckpt, data, "--config", cfg, "--seed", "3", "--out", str(out)]
        assert main(args) == 0
        first = (out / "report.json").read_bytes()
        assert main(args) == 0
        assert (out / "report.json").read_bytes() == first

    def test_extended_gallery_flagged(self, tmp_path, trained):
        cfg, data, ckpt = trained
        distract_out = tmp_path / "distract"
        dcfg = tmp_path / "dcfg.json"
        dcfg.write_text(
            json.dumps({"synth": {**SMALL_SYNTH, "n_subjects": 5, "seed": 77}}), encoding="utf-8"
        )
        assert main(["synth", "--config", str(dcfg), "--out", str(distract_out)]) == 0
        # distractor ids 0..4 collide with the dataset: remap by rewriting ids
        lines = (distract_out / "dataset.csv").read_text(encoding="utf-8").splitlines()
        remapped = [lines[0]]
        for line in lines[1:]:
            sid, rest = line.split(",", 1)
            remapped.append(f"{int(sid) + 1000},{rest}")
        (distract_out / "dataset.csv").write_text("\n".join(remapped) + "\n", encoding="utf-8")

        out = tmp_path / "eval_eg"
        rc = main([
            "eval", ckpt, data, "--config", cfg, "--seed", "3", "--out", str(out),
            "--extended-gallery", str(distract_out / "dataset.csv"),
        ])
        assert rc == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["flags"]["extended_gallery"] is True
        assert report["gallery_size"] == 2 + 5  # 30% test split of 8 subjects + distractors

    def test_requested_ranks_all_reported_on_large_gallery(self, tmp_path):
        # 34 subjects -> 70/30 split leaves a 10-subject test gallery, so the
        # default rank set {1, 5, 10} fits exactly
        big_cfg = tmp_path / "big.json"
        big_cfg.write_text(
            json.dumps(
                {
                    "synth": {**SMALL_SYNTH, "n_subjects": 34},
                    "eval": {"ranks": [1, 5, 10], "verification_pairs": 5},
                }
            ),
            encoding="utf-8",
        )
        out = tmp_path / "big"
        assert main(["synth", "--config", str(big_cfg), "--seed", "1", "--out", str(out)]) == 0
        from sclmetric.dataset import load_embeddings as _load

        ds = _load(out / "dataset.csv")
        ckpt_path = out / "init.ckpt"
        model.save_checkpoint(model.init_model([ds.dimension, 4], seed=0), {}, ckpt_path)
        rc = main([
            "eval", str(ckpt_path), str(out / "dataset.csv"), "--config", str(big_cfg),
            "--seed", "1", "--repetition", "0", "--out", str(out / "eval"),
        ])
        assert rc == 0
        report = json.loads((out / "eval" / "report.json").read_text(encoding="utf-8"))
        assert report["ranks"] == [1, 5, 10]
        assert len(report["rank_mean"]) == 3
        assert report["rank_mean"]["10"] == 1.0  # gallery size == 10

    def test_dimension_mismatch_exit_3(self, tmp_path, trained):
        cfg, data, ckpt = trained
        other_cfg = tmp_path / "other.json"
        other_cfg.write_text(json.dumps({"synth": {**SMALL_SYNTH, "dim": 4}}), encoding="utf-8")
        other_out = tmp_path / "other"
        assert main(["synth", "--config", str(other_cfg), "--out", str(other_out)]) == 0
        rc = main(["eval", ckpt, str(other_out / "dataset.csv"), "--config", cfg, "--out", str(tmp_path / "x")])
        assert rc == 3

    def test_overflowing_checkpoint_header_exit_3(self, tmp_path, trained, capsys):
        cfg, data, ckpt = trained
        mangled = bytearray(open(ckpt, "rb").read())
        mangled[16:24] = struct.pack("<II", 2**32 - 1, 2**32 - 1)  # first layer's out, in
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(mangled))
        rc = main(["eval", str(bad), data, "--config", cfg, "--out", str(tmp_path / "x")])
        assert rc == 3
        assert "corrupt checkpoint" in capsys.readouterr().err


class TestCompare:
    def test_table_shape_and_determinism(self, tmp_path, dataset_csv):
        cfg, data = dataset_csv
        out = tmp_path / "cmp"
        args = [
            "compare", data, "--config", cfg, "--seed", "3",
            "--repetitions", "2", "--epochs", "2", "--out", str(out),
        ]
        assert main(args) == 0
        first = (out / "compare_report.json").read_bytes()
        report = json.loads(first.decode("utf-8"))
        assert set(report["losses"]) == {"cl", "tl", "scl"}
        for loss in ("cl", "tl", "scl"):
            assert "1" in report["losses"][loss]["rank_mean"]
        assert main(args) == 0
        assert (out / "compare_report.json").read_bytes() == first

    def test_cells_match_composed_train_plus_eval(self, tmp_path, dataset_csv):
        cfg, data = dataset_csv
        out = tmp_path / "cmp"
        assert main([
            "compare", data, "--config", cfg, "--seed", "3",
            "--repetitions", "2", "--out", str(out),
        ]) == 0
        compare = json.loads((out / "compare_report.json").read_text(encoding="utf-8"))

        for loss in ("cl", "scl"):
            for rep in range(2):
                t_out = tmp_path / f"t_{loss}_{rep}"
                assert main([
                    "train", data, "--config", cfg, "--seed", "3", "--loss", loss,
                    "--repetition", str(rep), "--repetitions", "2", "--out", str(t_out),
                ]) == 0
                e_out = tmp_path / f"e_{loss}_{rep}"
                assert main([
                    "eval", str(t_out / "checkpoint.ckpt"), data, "--config", cfg, "--seed", "3",
                    "--repetition", str(rep), "--repetitions", "2", "--out", str(e_out),
                ]) == 0
                single = json.loads((e_out / "report.json").read_text(encoding="utf-8"))
                composed = single["repetitions"][0]["rank_accuracies"]["1"]
                monolith = compare["losses"][loss]["repetitions"][rep]["rank_accuracies"]["1"]
                assert composed == monolith


DEFAULT_CONFIG_SEED_3 = {
    "seed": 3,
    "synth": {
        "n_subjects": 10,
        "dim": 16,
        "n_non_injured": 4,
        "n_injured": 4,
        "subject_radius": 10.0,
        "sigma_n": 0.1,
        "sigma_i": 0.1,
        "injury_shift": 2.0,
        "n_injury_modes": 1,
        "seed": 3,
    },
    "split": {"train_fraction": 0.7, "repetitions": 5, "seed": 3},
    "train": {
        "loss": "scl",
        "learning_rate": 3e-6,
        "epochs": 30,
        "batch_size": 50,
        "alpha1": 2.0,
        "alpha2": 3.1,
        "cl_margin": 2.0,
        "tl_margin": 0.4,
        "per_subject": 4,
        "seed": 3,
        "freeze": 0,
        "hidden_dims": [32, 16],
    },
    "eval": {"ranks": [1, 5, 10], "target_fars": [0.01, 0.1], "normalize": True, "verification_pairs": 50},
}


class TestConfig:
    @pytest.fixture
    def checkpoint(self, tmp_path):
        path = tmp_path / "init.ckpt"
        model.save_checkpoint(model.init_model([SMALL_SYNTH["dim"], 4], seed=0), {}, path)
        return str(path)

    @pytest.mark.parametrize(
        "command, section, values",
        [
            ("train", "train", {"hidden_dims": ["a"]}),
            ("train", "train", {"hidden_dims": [1.5]}),
            ("train", "train", {"hidden_dims": [True]}),
            ("train", "train", {"optimizer": "sgd"}),
            ("train", "train", {"batch_reduction": "mean"}),
            ("eval", "eval", {"ranks": ["a"]}),
            ("eval", "eval", {"target_fars": ["x"]}),
            ("eval", "eval", {"ranks": [0]}),
            ("eval", "eval", {"ranks": []}),
            ("eval", "eval", {"target_fars": [2.0]}),
            ("eval", "eval", {"target_fars": [0]}),
            ("eval", "eval", {"verification_pairs": 0}),
        ],
    )
    def test_malformed_or_out_of_range_value_exit_2(
        self, tmp_path, dataset_csv, checkpoint, capsys, command, section, values
    ):
        _, data = dataset_csv
        cfg = write_config(tmp_path, **{section: values})
        inputs = [data] if command == "train" else [checkpoint, data]
        capsys.readouterr()
        assert main([command, *inputs, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize(
        "repetition, flags",
        [(-1, []), (5, []), (3, ["--repetitions", "3"]), (-1, ["--repetitions", "3"])],
    )
    def test_repetition_outside_split_plan_exit_2(
        self, tmp_path, dataset_csv, checkpoint, capsys, command, repetition, flags
    ):
        # The split plan holds 5 repetitions by default, or --repetitions of them.
        cfg, data = dataset_csv
        inputs = [data] if command == "train" else [checkpoint, data]
        out = tmp_path / "o"
        capsys.readouterr()
        rc = main([command, *inputs, "--config", cfg, *flags, "--repetition", str(repetition), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: --repetition")
        assert not out.exists()

    def test_repetition_inside_a_larger_split_plan_runs(self, tmp_path, dataset_csv, checkpoint):
        _, data = dataset_csv
        cfg = write_config(tmp_path, train={"epochs": 1})
        for command, inputs in (("train", [data]), ("eval", [checkpoint, data])):
            out = tmp_path / command
            args = [command, *inputs, "--config", cfg, "--repetitions", "7", "--repetition", "6", "--out", str(out)]
            assert main(args) == 0

    def test_compare_rejects_bad_target_far_before_training(self, tmp_path, dataset_csv):
        _, data = dataset_csv
        cfg = write_config(tmp_path, eval={"target_fars": [2.0]})
        out = tmp_path / "cmp"
        assert main(["compare", data, "--config", cfg, "--repetitions", "2", "--out", str(out)]) == 2
        assert not (out / "compare_report.json").exists()

    def test_resolved_default_config(self, tmp_path):
        out = tmp_path / "synth"
        assert main(["synth", "--seed", "3", "--out", str(out)]) == 0
        ckpt = tmp_path / "init.ckpt"
        model.save_checkpoint(model.init_model([16, 4], seed=0), {}, ckpt)
        assert main(["eval", str(ckpt), str(out / "dataset.csv"), "--seed", "3", "--out", str(tmp_path / "e")]) == 0
        report = json.loads((tmp_path / "e" / "report.json").read_text(encoding="utf-8"))
        assert report["config"] == DEFAULT_CONFIG_SEED_3
