"""The benchmark's workloads: seeded inputs, the CLI call, and output checks.

Every input is made through the public CLI (``synth``, and ``train`` at
learning rate 0 for the untrained checkpoint) plus plain text edits of the
documented CSV format, so the workloads keep working when library
internals are refactored.  The checks read outputs with the benchmark's own
parsers (:mod:`oracle`), never with the library.

Why each workload exists:

* ``train-hard`` - the paper's loss (``scl``) on the hard preset at the
  scale the criterion-5 acceptance test trains; mining, losses, model and
  optimizer take the whole run, evaluation none.
* ``eval-gallery`` - the scaled gallery (510 gallery subjects including 300
  distractors, 2100 probes) of an untrained 128->64->32 network; CSV reading
  and evaluation take the whole run, training none.  Evaluation cost does
  not depend on the weights.
* ``compare-hard`` - ``compare`` over cl/tl/scl x 5 repetitions on the hard
  preset: the contrastive and triplet paths, 15 small ``evaluate_model``
  calls where per-call overhead dominates, and the JSON report writer.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import oracle

HARD_SYNTH = {
    "n_subjects": 30,
    "dim": 16,
    "n_non_injured": 4,
    "n_injured": 6,
    "subject_radius": 6.0,
    "sigma_n": 0.6,
    "sigma_i": 1.8,
    "injury_shift": 3.0,
    "n_injury_modes": 3,
}
# The synthetic training regime: lr 1e-3, nothing frozen.
SYNTHETIC_REGIME = {"learning_rate": 1e-3, "freeze": 0}
PER_SUBJECT = 4  # the TrainConfig default, which the configs leave unset
TRAIN_FRACTION = 0.7  # the split default, likewise
DISTRACTOR_ID_BASE = 1_000_000
COMPARE_LOSSES = ("cl", "tl", "scl")


def units_per_epoch(loss: str, n_subjects: int) -> int:
    """Training units mined per epoch when every subject has both subclasses."""
    per_subject = PER_SUBJECT if loss == "tl" else 2 * PER_SUBJECT
    return per_subject * n_subjects


def n_train_subjects(n_subjects: int) -> int:
    return min(max(round(TRAIN_FRACTION * n_subjects), 1), n_subjects - 1)


@dataclass
class Prepared:
    """One workload's inputs on disk, and what its checks need to know."""

    argv: list
    out_dir: Path
    units: int  # work units one iteration consumes (train units or probes)
    sizes: dict
    stable_files: tuple  # outputs that must be byte-identical across iterations
    csv_rows: dict  # rows of each CSV the CLI loads, keyed by the path in argv
    expect: dict = field(default_factory=dict)


def _write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1), encoding="utf-8")
    return path


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _run_cli(main, argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"setup command {' '.join(argv)} exited {code}")


def _synth(main, work: Path, name: str, synth: dict, seed: int) -> Path:
    cfg = _write_json(work / f"{name}.synth.json", {"seed": seed, "synth": synth})
    out = work / name
    _run_cli(main, ["synth", "--config", str(cfg), "--out", str(out)])
    return out / "dataset.csv"


def _rows(synth: dict) -> int:
    return synth["n_subjects"] * (synth["n_non_injured"] + synth["n_injured"])


def _csv_sizes(path: Path, synth: dict) -> dict:
    size = path.stat().st_size
    return {"subjects": synth["n_subjects"], "rows": _rows(synth), "dim": synth["dim"], "csv_bytes": size}


class TrainHard:
    name = "train-hard"

    def prepare(self, main, work: Path, seed: int, smoke: bool) -> Prepared:
        synth = dict(HARD_SYNTH, n_subjects=6) if smoke else HARD_SYNTH
        epochs = 3 if smoke else 120
        csv = _synth(main, work, "data", synth, seed)
        cfg = _write_json(
            work / "train.json",
            {"seed": seed, "train": {"loss": "scl", "epochs": epochs, **SYNTHETIC_REGIME}},
        )
        out = work / "out"
        per_epoch = units_per_epoch("scl", synth["n_subjects"])
        return Prepared(
            argv=["train", str(csv), "--config", str(cfg), "--out", str(out)],
            out_dir=out,
            units=per_epoch * epochs,
            sizes={**_csv_sizes(csv, synth), "epochs": epochs, "units_per_epoch": per_epoch},
            stable_files=("checkpoint.ckpt",),
            csv_rows={str(csv): _rows(synth)},
            expect={"epochs": epochs, "dims": [synth["dim"], 32, 16], "floors": not smoke},
        )

    def check(self, p: Prepared) -> tuple[list, dict]:
        problems = []
        log = oracle.read_train_log(p.out_dir / "train_log.csv", problems)
        dims = oracle.checkpoint_dims(p.out_dir / "checkpoint.ckpt", problems)
        if dims is not None and dims != p.expect["dims"]:
            problems.append(f"checkpoint dims {dims}, expected {p.expect['dims']}")
        quality = {}
        if log is not None:
            if len(log) != p.expect["epochs"]:
                problems.append(f"train_log.csv has {len(log)} epochs, expected {p.expect['epochs']}")
            elif log[0]["mean_genuine"] > 0.0:
                ratio = log[-1]["mean_genuine"] / log[0]["mean_genuine"]
                quality["genuine_loss_ratio"] = ratio
                # Training must at least halve the genuine loss (about 0.03 of
                # it is left at full size); a broken trainer cannot pass.
                if p.expect["floors"] and not ratio < 0.5:
                    problems.append(f"genuine loss ratio {ratio} did not fall below 0.5")
            else:
                problems.append("first epoch mean_genuine is not positive")
        return problems, quality


class EvalGallery:
    name = "eval-gallery"

    def prepare(self, main, work: Path, seed: int, smoke: bool) -> Prepared:
        if smoke:
            n_subjects, dim, n_inj, n_distract, hidden, pairs = 40, 16, 3, 10, [8, 4], 50
        else:
            n_subjects, dim, n_inj, n_distract, hidden, pairs = 700, 128, 10, 300, [64, 32], 2000
        shape = {
            "dim": dim,
            "subject_radius": 6.0,
            "sigma_n": 0.25,
            "sigma_i": 0.5,
            "injury_shift": 2.0,
            "n_injury_modes": 3,
        }
        synth = {**shape, "n_subjects": n_subjects, "n_non_injured": 2, "n_injured": n_inj}
        csv = _synth(main, work, "data", synth, seed)
        raw = _synth(
            main, work, "distractors", {**shape, "n_subjects": n_distract, "n_non_injured": 1, "n_injured": 1},
            seed + 1,
        )
        distractors = oracle.distractor_csv(raw, work / "distractors.csv", DISTRACTOR_ID_BASE)
        # An untrained, seeded network: one epoch at learning rate 0 leaves the
        # initial weights untouched, and evaluation cost ignores the weights.
        tiny = _synth(main, work, "tiny", {**shape, "n_subjects": 4, "n_non_injured": 1, "n_injured": 2}, seed)
        init_cfg = _write_json(
            work / "init.json",
            {"seed": seed, "train": {"learning_rate": 0.0, "epochs": 1, "hidden_dims": hidden}},
        )
        init_out = work / "init"
        _run_cli(main, ["train", str(tiny), "--config", str(init_cfg), "--out", str(init_out)])
        ckpt = init_out / "checkpoint.ckpt"

        cfg = _write_json(
            work / "eval.json",
            {"seed": seed, "split": {"seed": seed}, "eval": {"verification_pairs": pairs}},
        )
        out = work / "out"
        test_ids = oracle.split_test_side(n_subjects, TRAIN_FRACTION, seed, repetition=0)
        probes = len(test_ids) * n_inj
        gallery = len(test_ids) + n_distract
        return Prepared(
            argv=[
                "eval", str(ckpt), str(csv), "--config", str(cfg), "--out", str(out),
                "--repetition", "0", "--extended-gallery", str(distractors),
            ],
            out_dir=out,
            units=probes,
            sizes={
                **_csv_sizes(csv, synth),
                "distractor_subjects": n_distract,
                "distractor_csv_bytes": distractors.stat().st_size,
                "gallery_size": gallery,
                "probes": probes,
                "verification_pairs_per_label": pairs,
                "network": [dim, *hidden],
            },
            stable_files=("report.json", "cmc.csv", "far_gar.csv"),
            csv_rows={str(csv): _rows(synth), str(distractors): n_distract},
            expect={
                "csv": csv, "distractors": distractors, "checkpoint": ckpt, "test_ids": test_ids,
                "gallery_size": gallery, "probes": probes,
            },
        )

    def check(self, p: Prepared) -> tuple[list, dict]:
        problems = []
        report = oracle.read_json(p.out_dir / "report.json", problems)
        if report is None:
            return problems, {}
        if report.get("gallery_size") != p.expect["gallery_size"]:
            problems.append(f"gallery_size {report.get('gallery_size')}, expected {p.expect['gallery_size']}")
        rep = report["repetitions"][0]
        if rep["n_probes"] != p.expect["probes"] or rep["n_unenrolled"] != 0:
            problems.append(
                f"{rep['n_probes']} probes / {rep['n_unenrolled']} unenrolled, expected {p.expect['probes']} / 0"
            )
        cmc = oracle.brute_force_cmc(
            p.expect["checkpoint"], p.expect["csv"], p.expect["distractors"], p.expect["test_ids"]
        )
        if rep["cmc"] != cmc or report["mean_cmc"] != cmc:
            problems.append("CMC differs from the brute-force oracle")
        for k, value in report["rank_mean"].items():
            if value != cmc[int(k) - 1]:
                problems.append(f"rank-{k} {value} differs from the oracle's {cmc[int(k) - 1]}")
        if (p.out_dir / "cmc.csv").read_bytes() != oracle.cmc_csv_bytes(cmc):
            problems.append("cmc.csv differs from the oracle CMC")
        genuine = rep["verification"]["genuine_scores"]
        imposter = rep["verification"]["imposter_scores"]
        if (p.out_dir / "far_gar.csv").read_bytes() != oracle.far_gar_csv_bytes(genuine, imposter):
            problems.append("far_gar.csv differs from the sorted-count recomputation")
        for entry in rep["verification"]["gar_at_far"]:
            expected = oracle.gar_at_far(genuine, imposter, entry["target_far"])
            if expected != entry:
                problems.append(f"GAR@FAR {entry} differs from the recomputation {expected}")
        return problems, {"rank1": cmc[0]}


class CompareHard:
    name = "compare-hard"

    def prepare(self, main, work: Path, seed: int, smoke: bool) -> Prepared:
        synth = dict(HARD_SYNTH, n_subjects=10) if smoke else HARD_SYNTH
        reps, epochs = (2, 2) if smoke else (5, 40)
        csv = _synth(main, work, "data", synth, seed)
        cfg = _write_json(
            work / "compare.json",
            {
                "seed": seed,
                "split": {"repetitions": reps},
                "train": {"loss": "scl", "epochs": epochs, **SYNTHETIC_REGIME},
            },
        )
        out = work / "out"
        n_train = n_train_subjects(synth["n_subjects"])
        per_epoch = sum(units_per_epoch(loss, n_train) for loss in COMPARE_LOSSES)
        return Prepared(
            argv=["compare", str(csv), "--config", str(cfg), "--out", str(out)],
            out_dir=out,
            units=per_epoch * epochs * reps,
            sizes={
                **_csv_sizes(csv, synth),
                "repetitions": reps,
                "epochs": epochs,
                "train_subjects": n_train,
                "gallery_size": synth["n_subjects"] - n_train,
                "units_per_epoch_all_losses": per_epoch,
            },
            stable_files=("compare_report.json",),
            csv_rows={str(csv): _rows(synth)},
            expect={"repetitions": reps, "gallery_size": synth["n_subjects"] - n_train, "floors": not smoke},
        )

    def check(self, p: Prepared) -> tuple[list, dict]:
        problems = []
        report = oracle.read_json(p.out_dir / "compare_report.json", problems)
        if report is None:
            return problems, {}
        quality = {}
        # Twice chance level; the three losses reach 0.35-0.6 on the hard preset.
        floor = 2.0 / p.expect["gallery_size"]
        for loss in COMPARE_LOSSES:
            table = report["losses"].get(loss)
            if table is None or len(table["repetitions"]) != p.expect["repetitions"]:
                problems.append(f"compare_report.json lacks {p.expect['repetitions']} repetitions of {loss}")
                continue
            rank1 = table["rank_mean"]["1"]
            quality[f"rank1_{loss}"] = rank1
            if not (math.isfinite(rank1) and 0.0 <= rank1 <= 1.0) or p.expect["floors"] and not rank1 > floor:
                problems.append(f"rank-1 of {loss} is {rank1}, not within ({floor}, 1]")
        return problems, quality


WORKLOADS = {w.name: w for w in (TrainHard(), EvalGallery(), CompareHard())}
