"""Command-line front end: ``sclmetric {synth,train,eval,compare}``.

Behavior is driven by a JSON config file plus flag overrides (flags win).
Every command is deterministic given (config, inputs), and every report
embeds the fully resolved config and seed.  Exit codes: 0 ok, 2 config
error, 3 data error, 4 numeric failure.  Library warnings go to stderr as
one ``warning: <message>`` line each.

The config sections ``synth``, ``split``, ``train`` and ``eval`` are
exactly the fields of :class:`~sclmetric.dataset.SynthConfig`,
:class:`~sclmetric.dataset.SplitSpec`, :class:`~sclmetric.training.TrainConfig`
and :class:`~sclmetric.evaluation.EvalConfig`: the accepted keys, their JSON
types and their defaults (the easy synthetic preset for ``synth``) all come
from those dataclasses, and each section is built by its dataclass, which
range-checks it.  Unknown keys, values of the wrong JSON type (list entries
included), non-finite numbers, out-of-range values and a file that is not
UTF-8 JSON are config errors.  :func:`main` resolves the config and creates
``--out`` once, before any input is read, and hands each ``cmd_*`` function
``(args, cfg, conf, out)``: the flags, the resolved document, the built
sections and the output directory.  Resolved values are embedded exactly as
given.

Seed resolution order: ``--seed`` flag, then the config file, then the
``SCLMETRIC_SEED`` environment variable, then 0.  Section-level seeds
(``synth.seed`` etc.) override the global seed for that section only.

Outputs per command (under ``--out``, default ``./out``):

* ``synth``   -> ``dataset.csv``
* ``train``   -> ``checkpoint.ckpt``, ``train_log.csv``
* ``eval``    -> ``report.json``, ``cmc.csv``, ``far_gar.csv``
  (+ ``cmc.svg``, ``scores.svg`` with ``--svg``); the curve CSVs pool
  verification scores across repetitions, the JSON keeps them per
  repetition
* ``compare`` -> ``compare_report.json`` and a table on stdout

``train --repetition R`` trains on the train side of split repetition R
with the same derived seed the ``compare`` protocol uses, and
``eval --repetition R`` evaluates on that repetition's test side, so a
composed train+eval run reproduces the corresponding ``compare`` cell
exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import typing
import warnings
from dataclasses import asdict, fields, replace
from functools import partial
from pathlib import Path

from . import evaluation, model, presets, reporting, training
from .dataset import Dataset, SplitSpec, SynthConfig, generate_synthetic, load_embeddings, save_embeddings, subject_split
from .errors import ConfigError, DataError, NumericError, SclMetricError
from .evaluation import EvalConfig
from .training import TrainConfig

# Each config section is exactly the fields of its dataclass, with the
# defaults of the instance the second entry makes.  Sections with a seed
# field take the global seed unless they set their own.
_SECTIONS = {
    "synth": (SynthConfig, presets.easy_synth_config),
    "split": (SplitSpec, partial(SplitSpec, 0)),
    "train": (TrainConfig, TrainConfig),
    "eval": (EvalConfig, EvalConfig),
}


def _accepts(hint, value) -> bool:
    """Whether a JSON value fits a field type: ``float`` takes ints too,
    only ``bool`` takes booleans, and ``tuple[T, ...]`` is a list of T."""
    if typing.get_origin(hint) is tuple:
        return isinstance(value, list) and all(_accepts(typing.get_args(hint)[0], v) for v in value)
    if isinstance(value, bool) != (hint is bool):
        return False
    return isinstance(value, (int, float) if hint is float else hint)


def _type_name(hint) -> str:
    if typing.get_origin(hint) is tuple:
        return f"a list of {_type_name(typing.get_args(hint)[0])}"
    return hint.__name__


def _check_value(key: str, value, hint) -> None:
    if not _accepts(hint, value):
        raise ConfigError(f"config key {key!r} must be {_type_name(hint)}")


def _check_section(name: str, values) -> None:
    if not isinstance(values, dict):
        raise ConfigError(f"config key {name!r} must be an object")
    cls = _SECTIONS[name][0]
    hints = typing.get_type_hints(cls)
    names = {f.name for f in fields(cls)}
    for key, value in values.items():
        path = f"{name}.{key}"
        if key not in names:
            raise ConfigError(f"unknown config key {path!r}")
        _check_value(path, value, hints[key])


def _load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    for key, value in data.items():
        if key == "seed":
            _check_value(key, value, int)
        elif key in _SECTIONS:
            _check_section(key, value)
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return data


def _env_seed() -> int | None:
    raw = os.environ.get("SCLMETRIC_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"SCLMETRIC_SEED must be an integer, got {raw!r}") from None


def _resolve_config(args) -> tuple[dict, dict]:
    """The resolved config document, as reports embed it, and the
    dataclass each section builds."""
    user = _load_config(args.config) if args.config else {}
    seed = args.seed if args.seed is not None else user.get("seed")
    if seed is None:
        seed = _env_seed()
    cfg = {"seed": 0 if seed is None else seed}
    for name, (cls, make_default) in _SECTIONS.items():
        default = make_default()
        cfg[name] = {f.name: getattr(default, f.name) for f in fields(cls) if f.name != "seed"}
        cfg[name].update(user.get(name, {}))

    # Override flags are stored under their "section.key" config path.
    for path, value in vars(args).items():
        if "." in path and value is not None:
            section, key = path.split(".")
            cfg[section][key] = value

    margin = getattr(args, "margin", None)
    if margin is not None:
        loss = cfg["train"]["loss"]
        if loss == "cl":
            cfg["train"]["cl_margin"] = margin
        elif loss == "tl":
            cfg["train"]["tl_margin"] = margin
        else:
            raise ConfigError("--margin applies to --loss cl or tl; use --alpha1/--alpha2 for scl")

    built = {}
    for name, (cls, _) in _SECTIONS.items():
        for key, value in cfg[name].items():
            values = value if isinstance(value, (list, tuple)) else [value]
            if any(isinstance(v, float) and not math.isfinite(v) for v in values):
                raise ConfigError(f"config key {name + '.' + key!r} must be finite")
        if any(f.name == "seed" for f in fields(cls)):
            cfg[name].setdefault("seed", cfg["seed"])
        built[name] = cls(**cfg[name])
    rep, reps = getattr(args, "repetition", None), built["split"].repetitions
    if rep is not None and not 0 <= rep < reps:
        raise ConfigError(f"--repetition {rep} outside 0..{reps - 1}")
    return cfg, built


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_dataset(path) -> Dataset:
    if not Path(path).exists():
        raise DataError(f"dataset file not found: {path}")
    return load_embeddings(path)


def _load_distractors(path, dimension: int):
    """One intact image per subject from a second embedding file of the dataset's dimension."""
    ds = _load_dataset(path)
    if ds.dimension != dimension:
        raise DataError(f"distractor file {path} has dimension {ds.dimension}, dataset has {dimension}")
    distractors = []
    skipped = []
    for record in ds.subjects:
        if record.non_injured:
            sample = record.non_injured[0]
            distractors.append((sample.subject_id, sample.embedding))
        else:
            skipped.append(record.subject_id)
    if skipped:
        warnings.warn(f"distractor subjects without non-injured samples skipped: {skipped}")
    if not distractors:
        raise DataError(f"no usable distractor subjects in {path}")
    return distractors


def cmd_synth(args, cfg: dict, conf: dict, out: Path) -> int:
    ds = generate_synthetic(conf["synth"])
    path = out / "dataset.csv"
    save_embeddings(ds, path)
    print(f"wrote {path} ({ds.n_subjects} subjects, dim {ds.dimension})")
    return 0


def _training_dataset(ds: Dataset, conf: dict, repetition: int | None):
    """Full dataset, or the train side of one split repetition (with the
    repetition-derived seed the compare protocol uses)."""
    if repetition is None:
        return ds, conf["train"]
    train_ds, _ = subject_split(ds, conf["split"], repetition)
    return train_ds, training.config_for_repetition(conf["train"], repetition)


def cmd_train(args, cfg: dict, conf: dict, out: Path) -> int:
    ds = _load_dataset(args.dataset)
    train_ds, train_cfg = _training_dataset(ds, conf, args.repetition)
    params, log = training.train(train_ds, train_cfg)
    meta = {
        "loss": train_cfg.loss,
        "seed": train_cfg.seed,
        "epochs": train_cfg.epochs,
        "repetition": args.repetition,
        "loss_history": [e.sum_loss for e in log.entries],
        "config": cfg,
    }
    ckpt_path = out / "checkpoint.ckpt"
    model.save_checkpoint(params, meta, ckpt_path)
    log_path = out / "train_log.csv"
    log.write_csv(log_path)
    final = log.entries[-1].sum_loss if log.entries else 0.0
    print(f"wrote {ckpt_path} and {log_path} (final epoch sum loss {final:.6g})")
    return 0


def cmd_eval(args, cfg: dict, conf: dict, out: Path) -> int:
    ckpt = model.load_checkpoint(args.checkpoint)
    ds = _load_dataset(args.dataset)
    if ckpt.params.input_dim != ds.dimension:
        raise DataError(
            f"checkpoint expects dimension {ckpt.params.input_dim}, dataset has {ds.dimension}"
        )
    distractors = _load_distractors(args.extended_gallery, ds.dimension) if args.extended_gallery else None
    spec = conf["split"]
    reps = [args.repetition] if args.repetition is not None else range(spec.repetitions)
    report = evaluation.evaluate_repetitions(
        ds, spec, reps, lambda rep, train_ds: ckpt.params, conf["eval"], distractors=distractors
    )

    payload = {
        "config": cfg,
        "checkpoint": str(args.checkpoint),
        "dataset": str(args.dataset),
        "gallery_size": report.repetitions[0].gallery_size,
        **reporting.eval_report_payload(report),
    }
    reporting.write_json_report(payload, out / "report.json")
    reporting.write_cmc_csv(report.mean_cmc, out / "cmc.csv")
    pooled = evaluation.VerificationReport(
        tuple(s for r in report.repetitions for s in r.verification.genuine_scores),
        tuple(s for r in report.repetitions for s in r.verification.imposter_scores),
    )
    reporting.write_far_gar_csv(pooled, out / "far_gar.csv")
    if args.svg:
        reporting.write_cmc_svg(evaluation.CmcCurve(report.mean_cmc), out / "cmc.svg")
        reporting.write_score_histogram_svg(pooled, out / "scores.svg")
    ranks = ", ".join(f"rank-{k} {report.rank_mean[k]:.4f}" for k in report.ranks)
    print(f"wrote {out / 'report.json'} ({ranks})")
    return 0


COMPARE_ORDER = ("cl", "tl", "scl")


def cmd_compare(args, cfg: dict, conf: dict, out: Path) -> int:
    ds = _load_dataset(args.dataset)

    reports = {
        loss: evaluation.repeated_evaluation(ds, conf["split"], replace(conf["train"], loss=loss), **asdict(conf["eval"]))
        for loss in COMPARE_ORDER
    }
    table = {loss: reporting.eval_report_payload(report) for loss, report in reports.items()}
    payload = {"config": cfg, "dataset": str(args.dataset), "losses": table}
    report_path = out / "compare_report.json"
    reporting.write_json_report(payload, report_path)

    ranks = reports[COMPARE_ORDER[0]].ranks
    header = "loss | " + " | ".join(f"rank-{k} mean+-std" for k in ranks)
    print(header, "-" * len(header), sep="\n")
    for loss, report in reports.items():
        print(f"{loss.upper():4} | " + " | ".join(f"{report.rank_mean[k]:.4f}+-{report.rank_std[k]:.4f}" for k in ranks))
    print(f"wrote {report_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sclmetric",
        description="Subclass-aware metric learning: synthesize data, train, evaluate, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_train_flags=True):
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="global seed")
        p.add_argument("--out", type=str, default="out", help="output directory")
        if with_train_flags:
            p.add_argument("--loss", dest="train.loss", choices=training.LOSS_KINDS, default=None)
            p.add_argument("--alpha1", dest="train.alpha1", type=float, default=None)
            p.add_argument("--alpha2", dest="train.alpha2", type=float, default=None)
            p.add_argument("--margin", type=float, default=None, help="margin of the selected cl/tl loss")
            p.add_argument("--lr", dest="train.learning_rate", type=float, default=None)
            p.add_argument("--epochs", dest="train.epochs", type=int, default=None)
            p.add_argument("--batch", dest="train.batch_size", type=int, default=None)
            p.add_argument("--freeze", dest="train.freeze", type=int, default=None)

    p_synth = sub.add_parser("synth", help="generate a synthetic embedding CSV")
    common(p_synth, with_train_flags=False)
    p_synth.set_defaults(func=cmd_synth)

    p_train = sub.add_parser("train", help="train an embedding network on a dataset CSV")
    p_train.add_argument("dataset", type=str)
    common(p_train)
    p_train.add_argument("--repetitions", dest="split.repetitions", type=int, default=None, help="split plan size")
    p_train.add_argument(
        "--repetition", type=int, default=None,
        help="train on the train side of this split repetition (compare-compatible seeding)",
    )
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset CSV")
    p_eval.add_argument("checkpoint", type=str)
    p_eval.add_argument("dataset", type=str)
    common(p_eval, with_train_flags=False)
    p_eval.add_argument("--repetitions", dest="split.repetitions", type=int, default=None, help="split plan size")
    p_eval.add_argument("--repetition", type=int, default=None, help="evaluate only this repetition's test side")
    p_eval.add_argument("--extended-gallery", type=str, default=None, help="distractor embedding CSV")
    p_eval.add_argument("--normalize", dest="eval.normalize", action=argparse.BooleanOptionalAction, default=None,
                        help="unit-normalize embeddings for the inter-class statistic")
    p_eval.add_argument("--svg", action="store_true", help="also render CMC and score-histogram SVGs")
    p_eval.set_defaults(func=cmd_eval)

    p_cmp = sub.add_parser("compare", help="train and evaluate CL, TL and the subclass loss side by side")
    p_cmp.add_argument("dataset", type=str)
    common(p_cmp)
    p_cmp.add_argument("--repetitions", dest="split.repetitions", type=int, default=None, help="split plan size")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def _one_line_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Library warnings print as one line each while the command runs.  Only the
    # format changes, so warnings.catch_warnings(record=True) still records them.
    default_format, warnings.formatwarning = warnings.formatwarning, _one_line_warning
    try:
        cfg, conf = _resolve_config(args)
        return args.func(args, cfg, conf, _out_dir(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except SclMetricError as exc:  # anything else from the library
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = default_format


if __name__ == "__main__":
    sys.exit(main())
