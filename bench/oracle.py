"""Independent readers and reference computations for the output checks.

Nothing here imports sclmetric.  The CSV and checkpoint readers follow the
formats documented in ``sclmetric.dataset`` and ``sclmetric.model``; the
CMC oracle follows the README determinism contract: plain Euclidean
distance accumulated left to right over features, subjects ranked by
``(distance, subject_id)``, rates as ``count / n``.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TRAIN_LOG_HEADER = "epoch,sum_loss,mean_genuine,mean_imposter,seconds"


@dataclass(frozen=True)
class EmbeddingTable:
    subject_ids: np.ndarray
    subclasses: np.ndarray  # "N" or "I"
    sample_indices: np.ndarray
    features: np.ndarray  # (rows, dim) float64


def read_embeddings(path: Path) -> EmbeddingTable:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = fh.readline().rstrip("\n").split(",")
        dim = len(header) - 3
        if header[:3] != ["subject_id", "subclass", "sample_index"] or dim < 1:
            raise ValueError(f"{path}: unexpected header")
        ids, classes, indices, rows = [], [], [], []
        for line in fh:
            parts = line.rstrip("\n").split(",")
            if len(parts) != 3 + dim:
                raise ValueError(f"{path}: row with {len(parts)} fields, expected {3 + dim}")
            ids.append(int(parts[0]))
            classes.append(parts[1])
            indices.append(int(parts[2]))
            rows.append([float(x) for x in parts[3:]])
    return EmbeddingTable(
        np.array(ids), np.array(classes), np.array(indices), np.array(rows, dtype=np.float64).reshape(-1, dim)
    )


def distractor_csv(source: Path, dest: Path, id_base: int) -> Path:
    """Keep the intact rows of ``source``, with subject ids moved past
    ``id_base`` so that they cannot collide with a dataset's ids."""
    lines = source.read_text(encoding="utf-8").splitlines(keepends=True)
    out = [lines[0]]
    for line in lines[1:]:
        sid, subclass, rest = line.split(",", 2)
        if subclass == "N":
            out.append(f"{id_base + int(sid)},{subclass},{rest}")
    dest.write_text("".join(out), encoding="utf-8", newline="")
    return dest


def split_test_side(n_subjects: int, train_fraction: float, seed: int, repetition: int) -> list:
    """Test-side subject ids of one split repetition, for ids 0..n-1: a
    permutation seeded by (seed, repetition) whose first
    ``round(train_fraction * n)`` entries are the train side."""
    order = np.random.default_rng([seed, repetition]).permutation(n_subjects)
    n_train = min(max(round(train_fraction * n_subjects), 1), n_subjects - 1)
    train = set(order[:n_train].tolist())
    return [sid for sid in range(n_subjects) if sid not in train]


def read_checkpoint(path: Path) -> list:
    """Layers as (weight, bias, relu) from the versioned binary format."""
    data = Path(path).read_bytes()
    if data[:8] != b"SCLCKPT\x00":
        raise ValueError(f"{path}: bad magic")
    version, n_layers = struct.unpack_from("<II", data, 8)
    if version != 1:
        raise ValueError(f"{path}: checkpoint version {version}")
    offset = 16
    shapes = []
    for _ in range(n_layers):
        shapes.append(struct.unpack_from("<IIB", data, offset))
        offset += 9
    layers = []
    for out_dim, in_dim, act in shapes:
        weight = np.frombuffer(data, "<f8", out_dim * in_dim, offset).reshape(out_dim, in_dim)
        offset += 8 * out_dim * in_dim
        bias = np.frombuffer(data, "<f8", out_dim, offset)
        offset += 8 * out_dim
        layers.append((weight, bias, act == 1))
    return layers


def checkpoint_dims(path: Path, problems: list):
    try:
        layers = read_checkpoint(path)
    except (OSError, ValueError, struct.error) as exc:
        problems.append(f"unreadable checkpoint: {exc}")
        return None
    return [layers[0][0].shape[1]] + [w.shape[0] for w, _, _ in layers]


def _embed(layers, rows: np.ndarray) -> np.ndarray:
    """The network applied one row at a time, as ``W @ x + b`` per layer."""
    out = []
    for row in rows:
        a = np.array(row)
        for weight, bias, relu in layers:
            z = weight @ a + bias
            a = np.maximum(z, 0.0) if relu else z
        out.append(a)
    return np.array(out)


def _distances(probes: np.ndarray, gallery: np.ndarray) -> np.ndarray:
    """(P, G) Euclidean distances, squared differences summed left to right."""
    total = np.zeros((len(probes), len(gallery)))
    for k in range(probes.shape[1]):
        diff = probes[:, k, None] - gallery[None, :, k]
        total += diff * diff
    return np.sqrt(total)


def brute_force_cmc(checkpoint: Path, csv: Path, distractors: Path, test_ids: list) -> list:
    """CMC of a single-image gallery (lowest intact sample index per test
    subject, plus one image per distractor subject) against all injured
    samples of the test subjects."""
    layers = read_checkpoint(checkpoint)
    data = read_embeddings(csv)
    extra = read_embeddings(distractors)
    test = np.isin(data.subject_ids, test_ids)

    gallery_ids, gallery_rows = [], []
    for table, subjects in ((data, test_ids), (extra, sorted(set(extra.subject_ids.tolist())))):
        for sid in subjects:
            intact = np.flatnonzero((table.subject_ids == sid) & (table.subclasses == "N"))
            first = intact[np.argmin(table.sample_indices[intact])]
            gallery_ids.append(sid)
            gallery_rows.append(table.features[first])
    gallery_ids = np.array(gallery_ids)
    probe_rows = np.flatnonzero(test & (data.subclasses == "I"))
    probe_ids = data.subject_ids[probe_rows]

    dist = _distances(_embed(layers, data.features[probe_rows]), _embed(layers, np.array(gallery_rows)))
    column = {sid: j for j, sid in enumerate(gallery_ids.tolist())}
    true_dist = dist[np.arange(len(probe_ids)), [column[s] for s in probe_ids.tolist()]][:, None]
    ahead = (dist < true_dist) | ((dist == true_dist) & (gallery_ids[None, :] < probe_ids[:, None]))
    hits = np.bincount(ahead.sum(axis=1), minlength=len(gallery_ids))
    n = len(probe_ids)
    return [int(c) / n for c in np.cumsum(hits)]


def cmc_csv_bytes(cmc: list) -> bytes:
    lines = ["rank,cmc\n"] + [f"{k},{v!r}\n" for k, v in enumerate(cmc, start=1)]
    return "".join(lines).encode("utf-8")


def _rate(sorted_scores: np.ndarray, threshold: float) -> float:
    """Share of scores accepted (``score <= threshold``)."""
    return int(np.searchsorted(sorted_scores, threshold, side="right")) / len(sorted_scores)


def far_gar_csv_bytes(genuine: list, imposter: list) -> bytes:
    """far_gar.csv recomputed from sorted score counts."""
    gen, imp = np.sort(genuine), np.sort(imposter)
    lines = ["threshold,far,gar\n"]
    for t in sorted(set(genuine) | set(imposter)):
        lines.append(f"{t!r},{_rate(imp, t)!r},{_rate(gen, t)!r}\n")
    return "".join(lines).encode("utf-8")


def gar_at_far(genuine: list, imposter: list, target: float) -> dict:
    """The conservative operating point: the largest observed score whose
    FAR stays within the target, or nothing accepted if none does."""
    gen, imp = np.sort(genuine), np.sort(imposter)
    grid = sorted(set(genuine) | set(imposter))
    within = [t for t in grid if _rate(imp, t) <= target]
    if not within:
        return {"target_far": target, "achieved_far": 0.0, "gar": 0.0,
                "threshold": math.nextafter(grid[0], -math.inf)}
    t = within[-1]
    return {"target_far": target, "achieved_far": _rate(imp, t), "gar": _rate(gen, t), "threshold": t}


def read_json(path: Path, problems: list):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        problems.append(f"unreadable {Path(path).name}: {exc}")
        return None


def read_train_log(path: Path, problems: list):
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        problems.append(f"unreadable train_log.csv: {exc}")
        return None
    if not lines or lines[0] != TRAIN_LOG_HEADER:
        problems.append("train_log.csv header differs from " + TRAIN_LOG_HEADER)
        return None
    names = TRAIN_LOG_HEADER.split(",")
    rows = [dict(zip(names, map(float, line.split(",")))) for line in lines[1:]]
    if any(row["epoch"] != k or not all(map(math.isfinite, row.values())) for k, row in enumerate(rows)):
        problems.append("train_log.csv has a misnumbered epoch or a non-finite value")
    return rows
