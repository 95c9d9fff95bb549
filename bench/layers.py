"""Which library functions the traced run wraps, and the per-layer metrics.

Layers are the package's modules.  Each entry names the attribute the caller
looks up: ``cli`` imported ``load_embeddings``, ``save_embeddings`` and
``subject_split`` by name, ``evaluation`` imported ``euclidean_distance``,
``gallery_probe_partition`` and ``subject_split``, and ``reporting``
imported ``far_gar_sweep``; everything else is called through its module.
"""

from __future__ import annotations

import os

from sclmetric import cli, evaluation, losses, mining, model, reporting, training

from tracer import Tracer

BUILDERS = ("build_genuine_sets", "build_imposter_sets", "build_cl_pairs", "build_triplets")
LOSSES = ("scl_set_loss", "contrastive_loss", "triplet_loss")
WRITERS = (
    "reporting.write_json_report",
    "reporting.write_cmc_csv",
    "reporting.write_far_gar_csv",
    "reporting.write_train_log",
)
EVALUATION_PARTS = (
    "identify", "mean_inter_class_distance", "verification_scores", "gar_at_far", "cmc_curve", "extend_gallery",
)


def _count_bytes(tracer: Tracer, key: str, path_index: int):
    def after(result, args, kwargs):
        tracer.count(key, os.path.getsize(args[path_index]))
    return after


def install(tracer: Tracer, csv_rows: dict) -> None:
    """Wrap every traced function.  ``csv_rows`` maps each CSV path the CLI
    will load to its row count, for the load rate."""
    wrap = tracer.wrap
    wrap(cli, "main", "cli.main", span=True)
    wrap(cli, "load_embeddings", "dataset.load_embeddings", span=True,
         after=lambda result, args, kwargs: tracer.count("dataset.rows", csv_rows.get(str(args[0]), 0)))
    wrap(cli, "save_embeddings", "dataset.save_embeddings", span=True)
    for owner in (cli, evaluation):
        wrap(owner, "subject_split", "dataset.subject_split")
    wrap(evaluation, "gallery_probe_partition", "dataset.gallery_probe_partition")

    for name in BUILDERS:
        wrap(mining, name, f"mining.{name}",
             after=lambda result, args, kwargs: tracer.count("mining.build.units", len(result)))
    wrap(mining, "make_batches", "mining.make_batches")

    for name in LOSSES:
        wrap(losses, name, f"losses.{name}",
             after=lambda result, args, kwargs: tracer.count("losses.slots", len(result.gradients)))

    for name in ("forward", "backward", "add_gradients"):
        wrap(model, name, f"model.{name}")
    wrap(model, "save_checkpoint", "model.save_checkpoint", span=True,
         after=_count_bytes(tracer, "model.checkpoint.bytes", 2))
    wrap(model, "load_checkpoint", "model.load_checkpoint", span=True,
         after=_count_bytes(tracer, "model.checkpoint.bytes", 0))

    wrap(training, "train", "training.train", span=True)
    wrap(training, "adam_step", "training.adam_step")

    wrap(evaluation, "repeated_evaluation", "evaluation.repeated_evaluation", span=True)
    wrap(evaluation, "evaluate_model", "evaluation.evaluate_model", span=True)
    wrap(evaluation, "euclidean_distance", "evaluation.distance")
    for name in EVALUATION_PARTS:
        wrap(evaluation, name, f"evaluation.{name}")
    wrap(reporting, "far_gar_sweep", "evaluation.far_gar_sweep")

    for key in WRITERS[:3]:
        wrap(reporting, key.split(".")[1], key, span=True, after=_count_bytes(tracer, "reporting.bytes", 1))
    wrap(training.TrainLog, "write_csv", WRITERS[3], span=True, after=_count_bytes(tracer, "reporting.bytes", 1))


def metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced iteration, ``.s`` inclusive seconds,
    ``.self_s`` inclusive minus the wrapped calls directly inside."""
    s, calls, self_s = tracer.seconds, tracer.calls, tracer.self_seconds
    count = tracer.counts.get
    load_s = s("dataset.load_embeddings")
    slots = count("losses.slots", 0)
    out = {
        "dataset.load_embeddings.s": load_s,
        "dataset.load_embeddings.rows_per_s": count("dataset.rows", 0) / load_s if load_s else 0.0,
        "dataset.subject_split.s": s("dataset.subject_split"),
        "dataset.gallery_probe_partition.s": s("dataset.gallery_probe_partition"),
        "mining.build.s": s(*(f"mining.{n}" for n in BUILDERS)),
        "mining.build.units": count("mining.build.units", 0),
        "mining.make_batches.s": s("mining.make_batches"),
        "losses.calls": calls(*(f"losses.{n}" for n in LOSSES)),
        "losses.s": s(*(f"losses.{n}" for n in LOSSES)),
        # Slots with a nonzero loss gradient (one backward each) per slot forwarded.
        "losses.active_slot_frac": calls("model.backward") / slots if slots else 0.0,
        "model.checkpoint.bytes": count("model.checkpoint.bytes", 0),
        "training.train.self_s": self_s("training.train"),
        "evaluation.evaluate_model.self_s": self_s("evaluation.evaluate_model"),
        "reporting.write.s": s(*WRITERS),
        "reporting.write_far_gar_csv.s": s("reporting.write_far_gar_csv"),
        "reporting.bytes": count("reporting.bytes", 0),
        "cli.main.s": s("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
    }
    for name in ("model.forward", "model.backward", "training.adam_step", "evaluation.identify", "evaluation.distance"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = s(name)
    for name in (
        "model.add_gradients", "model.save_checkpoint", "model.load_checkpoint", "training.train",
        "evaluation.evaluate_model", "evaluation.mean_inter_class_distance", "evaluation.verification_scores",
        "evaluation.gar_at_far", "evaluation.cmc_curve", "evaluation.far_gar_sweep", "evaluation.extend_gallery",
    ):
        out[f"{name}.s"] = s(name)
    return out
