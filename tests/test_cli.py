"""CLI subcommands: files produced, exit codes, determinism, composition."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sclmetric import model, presets
from sclmetric.cli import main
from sclmetric.dataset import SplitSpec, generate_synthetic, load_embeddings, save_embeddings, subject_split
from sclmetric.errors import ConfigError, DataError, NumericError, SclMetricError

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


def run_cli(args, cwd, **env):
    """Run ``sclmetric`` in a fresh interpreter in ``cwd``, with extra environment variables."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "sclmetric.cli", *args],
        cwd=cwd, env={**os.environ, "PYTHONPATH": path, **env}, capture_output=True, text=True,
    )


@pytest.fixture
def dataset_csv(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "synth"
    assert main(["synth", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
    return cfg, str(out / "dataset.csv")


class TestSynth:
    def test_row_count_and_determinism(self, tmp_path, dataset_csv):
        cfg, path = dataset_csv
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 8 * (3 + 3)
        out2 = tmp_path / "synth2"
        assert main(["synth", "--config", cfg, "--seed", "3", "--out", str(out2)]) == 0
        assert Path(path).read_bytes() == (out2 / "dataset.csv").read_bytes()

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

    def test_tl_margin_flag_sets_only_the_triplet_margin(self, tmp_path, dataset_csv):
        cfg, data = dataset_csv
        out = tmp_path / "tl"
        assert main(["train", data, "--config", cfg, "--out", str(out), "--loss", "tl", "--margin", "0.7"]) == 0
        train_cfg = model.load_checkpoint(out / "checkpoint.ckpt").metadata["config"]["train"]
        assert (train_cfg["loss"], train_cfg["tl_margin"], train_cfg["cl_margin"]) == ("tl", 0.7, 2.0)

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

    @staticmethod
    def write_distractors(path, subclasses_by_subject):
        """A distractor CSV whose subjects 1000, 1001, ... hold the given subclasses."""
        lines = ["subject_id,subclass,sample_index," + ",".join(f"f{k}" for k in range(SMALL_SYNTH["dim"]))]
        for sid, subclasses in enumerate(subclasses_by_subject, start=1000):
            for k, subclass in enumerate(subclasses):
                lines.append(f"{sid},{subclass},{k}," + ",".join(str(0.5 * k + j) for j in range(SMALL_SYNTH["dim"])))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_distractor_subjects_without_intact_samples_are_skipped(self, tmp_path, trained):
        cfg, data, ckpt = trained
        distractors = self.write_distractors(tmp_path / "d.csv", ["NI", "I", "N"])
        out = tmp_path / "eval_eg"
        args = ["eval", ckpt, data, "--config", cfg, "--seed", "3", "--out", str(out), "--extended-gallery", distractors]
        with pytest.warns(UserWarning, match=r"distractor subjects without non-injured samples skipped: \[1001\]"):
            assert main(args) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["gallery_size"] == 2 + 2

    def test_no_usable_distractor_exit_3(self, tmp_path, trained, capsys):
        cfg, data, ckpt = trained
        distractors = self.write_distractors(tmp_path / "d.csv", ["I", "II"])
        out = tmp_path / "eval_eg"
        capsys.readouterr()
        with pytest.warns(UserWarning, match="skipped"):
            rc = main(["eval", ckpt, data, "--config", cfg, "--out", str(out), "--extended-gallery", distractors])
        assert rc == 3
        assert capsys.readouterr().err == f"data error: no usable distractor subjects in {distractors}\n"

    def test_no_test_subject_with_both_subclasses_exit_3(self, tmp_path, capsys):
        # Three subjects with injured samples only: the test side has no probe.
        lines = ["subject_id,subclass,sample_index,f0,f1,f2"]
        lines += [f"{sid},I,{k},{sid}.0,{k}.5,1.0" for sid in range(3) for k in range(2)]
        data = tmp_path / "data.csv"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        ckpt = tmp_path / "init.ckpt"
        model.save_checkpoint(model.init_model([3, 4], seed=0), {}, ckpt)
        capsys.readouterr()
        with pytest.warns(UserWarning, match="partition dropped subjects"):
            rc = main(["eval", str(ckpt), str(data), "--repetitions", "2", "--out", str(tmp_path / "x")])
        assert rc == 3
        assert capsys.readouterr().err == (
            "data error: no test subject has both intact and injured samples, so there is no probe\n"
        )

    def test_library_warning_prints_as_one_line(self, tmp_path):
        # Ten subjects with two intact and two injured samples each; one subject
        # on repetition 0's test side then loses its injured rows.
        lines = ["subject_id,subclass,sample_index,f0,f1,f2"]
        lines += [f"{sid},{sc},{k},{sid}.0,{k}.5,{i}.0" for sid in range(10) for i, sc in enumerate("NI") for k in (0, 1)]
        (tmp_path / "full.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        _, test_ds = subject_split(load_embeddings(tmp_path / "full.csv"), SplitSpec(3), 0)
        victim = test_ds.subject_ids[0]
        cut = [line for line in lines if not line.startswith(f"{victim},I,")]
        (tmp_path / "cut.csv").write_text("\n".join(cut) + "\n", encoding="utf-8")
        model.save_checkpoint(model.init_model([3, 4], seed=0), {}, tmp_path / "init.ckpt")
        done = run_cli(["eval", "init.ckpt", "cut.csv", "--seed", "3", "--repetition", "0", "--out", "e"], tmp_path)
        assert (done.returncode, done.stderr) == (
            0,
            f"warning: gallery/probe partition dropped subjects: [({victim}, 'no injured samples')]\n"
            f"warning: contrastive-pair mining skipped subjects: [({victim}, 'missing a subclass')]\n",
        )

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
        mangled = bytearray(Path(ckpt).read_bytes())
        mangled[16:24] = struct.pack("<II", 2**32 - 1, 2**32 - 1)  # first layer's out, in
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(mangled))
        rc = main(["eval", str(bad), data, "--config", cfg, "--out", str(tmp_path / "x")])
        assert rc == 3
        assert "corrupt checkpoint" in capsys.readouterr().err

    def test_relu_last_layer_checkpoint_exit_3(self, tmp_path, trained, capsys):
        cfg, data, ckpt = trained
        mangled = bytearray(Path(ckpt).read_bytes())
        mangled[16 + 9 + 8] = 1  # the second (last) layer's activation code: relu
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(mangled))
        capsys.readouterr()
        rc = main(["eval", str(bad), data, "--config", cfg, "--out", str(tmp_path / "x")])
        assert rc == 3
        assert capsys.readouterr().err == "data error: corrupt checkpoint: final layer activation must be identity\n"

    def test_nan_parameter_checkpoint_exit_3(self, tmp_path, trained, capsys):
        cfg, data, ckpt = trained
        mangled = bytearray(Path(ckpt).read_bytes())
        mangled[16 + 2 * 9 : 16 + 2 * 9 + 8] = struct.pack("<d", float("nan"))  # the first parameter
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(mangled))
        capsys.readouterr()
        rc = main(["eval", str(bad), data, "--config", cfg, "--out", str(tmp_path / "x")])
        assert rc == 3
        assert capsys.readouterr().err == "data error: corrupt checkpoint: non-finite parameter nan at index 0\n"
        assert not (tmp_path / "x" / "report.json").exists()

    def test_distractor_dimension_mismatch_names_the_file(self, tmp_path, trained, capsys):
        cfg, data, ckpt = trained
        lines = ["subject_id,subclass,sample_index," + ",".join(f"f{k}" for k in range(4)), "1000,N,0,1,2,3,4"]
        distractors = tmp_path / "d4.csv"
        distractors.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        rc = main([
            "eval", ckpt, data, "--config", cfg, "--out", str(tmp_path / "x"), "--extended-gallery", str(distractors),
        ])
        assert rc == 3
        assert capsys.readouterr().err == f"data error: distractor file {distractors} has dimension 4, dataset has 6\n"


    @pytest.mark.parametrize("role", ["dataset", "extended-gallery"])
    def test_non_utf8_csv_exit_3(self, tmp_path, trained, capsys, role):
        cfg, data, ckpt = trained
        bad = tmp_path / "bad.csv"
        bad.write_bytes(Path(data).read_bytes() + b"1000,N,0," + b",".join([b"1.0"] * 5) + b",\xff\xfe\n")
        dataset, extra = (str(bad), []) if role == "dataset" else (data, ["--extended-gallery", str(bad)])
        capsys.readouterr()
        assert main(["eval", ckpt, dataset, "--config", cfg, "--out", str(tmp_path / "x"), *extra]) == 3
        assert capsys.readouterr().err == f"data error: {bad}: not UTF-8 text (invalid start byte)\n"


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestDivergedModel:
    """A run whose parameters or distances go non-finite exits 4 and writes nothing."""

    @staticmethod
    def assert_numeric_error(rc, capsys, out, message):
        assert rc == 4
        assert capsys.readouterr().err == f"numeric error: {message}\n"
        assert list(out.iterdir()) == []

    @pytest.fixture
    def exploding(self, tmp_path):
        """6 subjects in 4-d, and a learning rate whose first Adam step overflows."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "synth": {"n_subjects": 6, "dim": 4, "n_non_injured": 2, "n_injured": 3},
            "train": {"epochs": 1, "batch_size": 1000, "hidden_dims": [4], "learning_rate": 1e308},
        }), encoding="utf-8")
        assert main(["synth", "--config", str(path), "--out", str(tmp_path / "synth")]) == 0
        return str(path), str(tmp_path / "synth" / "dataset.csv")

    def test_train_exit_4(self, tmp_path, exploding, capsys):
        cfg, data = exploding
        capsys.readouterr()
        rc = main(["train", data, "--config", cfg, "--out", str(tmp_path / "x")])
        message = "non-finite parameter -inf at index 0 after training (loss=scl)"
        self.assert_numeric_error(rc, capsys, tmp_path / "x", message)

    def test_compare_exit_4(self, tmp_path, exploding, capsys):
        cfg, data = exploding
        capsys.readouterr()
        rc = main(["compare", data, "--config", cfg, "--out", str(tmp_path / "x")])
        message = "non-finite parameter inf at index 0 after training (loss=cl)"  # cl trains first
        self.assert_numeric_error(rc, capsys, tmp_path / "x", message)

    def test_eval_of_overflowing_model_exit_4(self, tmp_path, capsys):
        data = tmp_path / "hard.csv"
        save_embeddings(generate_synthetic(presets.hard_synth_config(0)), data)
        m = model.init_model([16, 32, 16], 0)
        vector, last = m.vector.copy(), m.layers[-1]
        vector[-last.bias.size - last.weight.size : -last.bias.size] *= 1e155
        ckpt = tmp_path / "huge.ckpt"
        model.save_checkpoint(m.with_vector(vector), {}, ckpt)
        capsys.readouterr()
        rc = main(["eval", str(ckpt), str(data), "--repetitions", "1", "--out", str(tmp_path / "x")])
        message = "non-finite distance: an embedding is not finite or a squared distance overflows"
        self.assert_numeric_error(rc, capsys, tmp_path / "x", message)


class TestBlasThreads:
    def test_outputs_are_byte_identical_at_1_and_4_blas_threads(self, tmp_path):
        # 128-d inputs into a 256-wide layer, so that the layer products are
        # large enough for a threaded BLAS to split.
        cfg = write_config(
            tmp_path,
            synth={"n_subjects": 10, "dim": 128},
            train={"hidden_dims": [256, 32]},
            split={"repetitions": 2},
        )
        outputs = {}
        for threads in ("1", "4"):
            run = tmp_path / f"threads_{threads}"
            run.mkdir()
            (run / "config.json").write_bytes(Path(cfg).read_bytes())
            # The same relative paths in every run, since reports embed them.
            for args in (
                ["synth", "--out", "synth"],
                ["train", "synth/dataset.csv", "--repetition", "0", "--out", "train"],
                ["eval", "train/checkpoint.ckpt", "synth/dataset.csv", "--repetition", "0", "--out", "eval"],
                ["compare", "synth/dataset.csv", "--out", "compare"],
            ):
                done = run_cli([*args, "--config", "config.json", "--seed", "5"], run, OPENBLAS_NUM_THREADS=threads)
                assert done.returncode == 0, done.stderr
            files = {str(p.relative_to(run)): p.read_bytes() for p in run.rglob("*") if p.is_file()}
            # The train log's last column is wall-clock seconds.
            log = files.pop("train/train_log.csv").decode("utf-8").splitlines()
            outputs[threads] = files, [line.rsplit(",", 1)[0] for line in log]
        (files_1, log_1), (files_4, log_4) = outputs["1"], outputs["4"]
        assert files_1.keys() == files_4.keys() and log_1 == log_4
        assert [name for name in files_1 if files_1[name] != files_4[name]] == []


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

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"train": 3}', "config key 'train' must be an object"),
            (None, "cannot read config {path}: "),
            ("{", "config {path} is not valid JSON: "),
            ("[1]", "config {path} must hold a JSON object"),
            ('{"wat": 1}', "unknown config key 'wat'"),
        ],
        ids=["section-not-object", "unreadable", "invalid-json", "not-an-object", "unknown-top-level-key"],
    )
    def test_bad_config_document_exit_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        capsys.readouterr()
        # A missing dataset would exit 3, so exit 2 shows the config is checked first.
        assert main(["train", str(tmp_path / "missing.csv"), "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: " + message.format(path=path))
        assert not out.exists()

    def test_non_integer_env_seed_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SCLMETRIC_SEED", "1.5")
        out = tmp_path / "o"
        capsys.readouterr()
        assert main(["train", str(tmp_path / "missing.csv"), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: SCLMETRIC_SEED must be an integer, got '1.5'\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"learning_rate": -0.5}, "learning_rate must be >= 0"),
            ({"freeze": -1}, "freeze must be >= 0"),
            ({"seed": -1}, "seed must be non-negative"),
            ({"hidden_dims": []}, "hidden_dims must be positive, got []"),
            ({"hidden_dims": [4, 0]}, "hidden_dims must be positive, got [4, 0]"),
        ],
    )
    def test_train_section_out_of_range_exit_2(self, tmp_path, capsys, values, message):
        cfg = write_config(tmp_path, train=values)
        out = tmp_path / "o"
        capsys.readouterr()
        # A missing dataset would exit 3, so exit 2 shows the config is checked first.
        assert main(["train", str(tmp_path / "missing.csv"), "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("freeze, dataset", [(3, "data"), (5, "missing")])
    def test_freeze_past_model_depth_exit_2(self, tmp_path, dataset_csv, capsys, freeze, dataset):
        _, data = dataset_csv
        path = data if dataset == "data" else str(tmp_path / "missing.csv")
        out = tmp_path / "o"
        capsys.readouterr()
        assert main(["train", path, "--freeze", str(freeze), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: freeze={freeze} exceeds the model's 2 layers\n"
        assert not out.exists()

    def test_resolved_default_config(self, tmp_path):
        out = tmp_path / "synth"
        assert main(["synth", "--seed", "3", "--out", str(out)]) == 0
        ckpt = tmp_path / "init.ckpt"
        model.save_checkpoint(model.init_model([16, 4], seed=0), {}, ckpt)
        assert main(["eval", str(ckpt), str(out / "dataset.csv"), "--seed", "3", "--out", str(tmp_path / "e")]) == 0
        report = json.loads((tmp_path / "e" / "report.json").read_text(encoding="utf-8"))
        assert report["config"] == DEFAULT_CONFIG_SEED_3

    @pytest.mark.parametrize(
        "command, config, flags, key",
        [
            ("train", '{"train": {"alpha1": NaN}}', [], "train.alpha1"),
            ("train", '{"train": {"loss": "cl", "cl_margin": NaN}}', [], "train.cl_margin"),
            ("train", '{"train": {"learning_rate": Infinity}}', [], "train.learning_rate"),
            ("train", '{"train": {"tl_margin": 1e400}}', [], "train.tl_margin"),
            ("synth", '{"synth": {"sigma_n": NaN}}', [], "synth.sigma_n"),
            ("synth", '{"synth": {"injury_shift": -Infinity}}', [], "synth.injury_shift"),
            ("train", '{"split": {"train_fraction": NaN}}', [], "split.train_fraction"),
            ("train", '{"split": {"train_fraction": Infinity}}', [], "split.train_fraction"),
            ("train", '{"eval": {"target_fars": [0.1, NaN]}}', [], "eval.target_fars"),
            ("train", None, ["--lr", "nan"], "train.learning_rate"),
            ("train", None, ["--alpha1", "inf"], "train.alpha1"),
            ("train", None, ["--loss", "tl", "--margin", "inf"], "train.tl_margin"),
        ],
        ids=["train-nan", "cl-margin-nan", "train-infinity", "train-overflow", "synth-nan", "synth-minus-infinity",
             "split-nan", "split-infinity", "list-entry-nan", "lr-flag-nan", "alpha1-flag-inf", "margin-flag-inf"],
    )
    def test_non_finite_value_exit_2(self, tmp_path, dataset_csv, capsys, command, config, flags, key):
        _, data = dataset_csv
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(config, encoding="utf-8")
            flags = ["--config", str(path), *flags]
        inputs = [data] if command == "train" else []
        out = tmp_path / "o"
        capsys.readouterr()
        assert main([command, *inputs, *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: config key {key!r} must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, section, values, message",
        [
            ("train", "split", {"seed": -1}, "split seed must be non-negative"),
            ("train", "split", {"train_fraction": 1.5}, "train_fraction must be in (0, 1), got 1.5"),
            ("train", "split", {"repetitions": 0}, "repetitions must be >= 1"),
            ("synth", "synth", {"dim": 0}, "dim must be >= 1"),
            ("synth", "synth", {"n_injury_modes": 0}, "n_injury_modes must be >= 1"),
            ("synth", "synth", {"seed": -1}, "seed must be non-negative"),
        ],
    )
    def test_split_and_synth_out_of_range_exit_2(self, tmp_path, capsys, command, section, values, message):
        cfg = write_config(tmp_path, **{section: values})
        inputs = [str(tmp_path / "missing.csv")] if command == "train" else []
        out = tmp_path / "o"
        capsys.readouterr()
        assert main([command, *inputs, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"seed": 1\xff}')
        out = tmp_path / "o"
        capsys.readouterr()
        assert main(["train", str(tmp_path / "missing.csv"), "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: config {path} is not valid JSON: 'utf-8' codec can't decode byte 0xff"
        )
        assert not out.exists()


def test_every_library_error_has_an_exit_code():
    # main maps ConfigError to 2, DataError to 3 and NumericError to 4, and has
    # no handler for any other library error.
    pending, found = [SclMetricError], []
    while pending:
        subclasses = pending.pop().__subclasses__()
        pending += subclasses
        found += subclasses
    assert found
    for cls in found:
        assert issubclass(cls, (ConfigError, DataError, NumericError)), cls
