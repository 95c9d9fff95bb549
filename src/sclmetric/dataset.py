"""Subclass-structured embedding datasets.

Data model
----------
Every sample is a fixed-dimension real feature vector tagged with
``(subject_id, subclass, sample_index)``.  A subject's samples fall into two
subclasses: intact reference images (code ``N``, the gallery side) and
injured/altered images (code ``I``, the probe side).  Datasets are immutable
after construction and canonically ordered (subjects by id, samples by
index), so equal content always compares equal and every downstream
operation is deterministic.

This module provides three ways to obtain a dataset and the protocol
plumbing around it:

* :func:`generate_synthetic` - a parameterized Gaussian-cluster generator.
  Each subject gets a mean on a sphere of radius ``subject_radius``; intact
  samples scatter around the mean with spread ``sigma_n``; injured samples
  are additionally displaced by ``injury_shift`` along one of
  ``n_injury_modes`` per-subject unit directions (cycled by sample index)
  and scatter with spread ``sigma_i``.
* :func:`load_embeddings` / :func:`save_embeddings` - CSV interchange for
  externally computed feature vectors (see `CSV format`_ below).
* :func:`subject_split` - subject-disjoint train/test partitioning with
  repeated random sub-sampling.
* :func:`gallery_probe_partition` - splits a dataset into an intact-only
  gallery and an injured-only probe set.

CSV format
----------
Header ``subject_id,subclass,sample_index,f0,f1,...,f{d-1}``; one sample per
row; ``subclass`` is ``N`` or ``I``.  Ids and indices accept exactly what
Python's ``int()`` accepts and must be non-negative; features accept exactly
what ``float()`` accepts and must be finite.  :func:`save_embeddings` writes
``repr`` of each float64 value, so a save/load round trip is bit-exact.
UTF-8 text with LF or CRLF line endings; blank lines are skipped, but still
counted in the line numbers of errors.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, ParseError, ProtocolError, check_integer_fields


class Subclass(enum.Enum):
    """Which side of the matching protocol a sample belongs to."""

    NON_INJURED = "N"
    INJURED = "I"


def _freeze_vector(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DataError(f"embedding must be a 1-d vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DataError("embedding contains non-finite entries")
    return np.frombuffer(arr.tobytes())


@dataclass(frozen=True, eq=False)
class Sample:
    """One feature vector of one subject, tagged with its subclass; a bytes-backed read-only copy."""

    subject_id: int
    subclass: Subclass
    sample_index: int
    embedding: np.ndarray

    def __post_init__(self):
        if self.subject_id < 0 or self.sample_index < 0:
            raise DataError("subject_id and sample_index must be non-negative")
        object.__setattr__(self, "embedding", _freeze_vector(self.embedding))

    @property
    def key(self) -> tuple[int, str, int]:
        return (self.subject_id, self.subclass.value, self.sample_index)

    def __eq__(self, other):
        if not isinstance(other, Sample):
            return NotImplemented
        return self.key == other.key and np.array_equal(self.embedding, other.embedding)

    def __repr__(self):
        return f"Sample(subject={self.subject_id}, {self.subclass.value}{self.sample_index}, d={len(self.embedding)})"


@dataclass(frozen=True, eq=False)
class SubjectRecord:
    """All samples of one subject, split by subclass and sorted by index."""

    subject_id: int
    non_injured: tuple[Sample, ...]
    injured: tuple[Sample, ...]

    def __post_init__(self):
        non = tuple(sorted(self.non_injured, key=lambda s: s.sample_index))
        inj = tuple(sorted(self.injured, key=lambda s: s.sample_index))
        object.__setattr__(self, "non_injured", non)
        object.__setattr__(self, "injured", inj)
        for group, subclass in ((non, Subclass.NON_INJURED), (inj, Subclass.INJURED)):
            for s in group:
                if s.subject_id != self.subject_id or s.subclass is not subclass:
                    raise DataError(f"sample {s.key} does not belong in the {subclass.value} list of subject {self.subject_id}")
            for s, after in zip(group, group[1:]):
                if s.sample_index == after.sample_index:
                    raise DataError(f"duplicate sample key {s.key}")

    @property
    def samples(self) -> tuple[Sample, ...]:
        return self.non_injured + self.injured

    def __eq__(self, other):
        if not isinstance(other, SubjectRecord):
            return NotImplemented
        return (
            self.subject_id == other.subject_id
            and self.non_injured == other.non_injured
            and self.injured == other.injured
        )


@dataclass(frozen=True, eq=False)
class Dataset:
    """An immutable collection of subjects with a single embedding dimension.
    ``counts`` is a bytes-backed read-only int64 array of each subject's intact
    and injured sample counts, one row per subject."""

    dimension: int
    subjects: tuple[SubjectRecord, ...]
    counts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "subjects", tuple(sorted(self.subjects, key=lambda r: r.subject_id)))
        seen = set()
        counts = []
        for record in self.subjects:
            if record.subject_id in seen:
                raise DataError(f"duplicate subject id {record.subject_id}")
            seen.add(record.subject_id)
            counts.append((len(record.non_injured), len(record.injured)))
            for s in record.samples:
                if len(s.embedding) != self.dimension:
                    raise DataError(
                        f"sample {s.key} has dimension {len(s.embedding)}, dataset declares {self.dimension}"
                    )
        counts = np.array(counts, dtype=np.int64).tobytes()
        object.__setattr__(self, "counts", np.frombuffer(counts, dtype=np.int64).reshape(-1, 2))

    @classmethod
    def from_samples(cls, dimension: int, samples) -> "Dataset":
        """Group loose samples into a canonical Dataset; :class:`SubjectRecord` rejects duplicates."""
        by_subject: dict[int, tuple[list[Sample], list[Sample]]] = {}
        for s in samples:
            by_subject.setdefault(s.subject_id, ([], []))[s.subclass is Subclass.INJURED].append(s)
        records = [SubjectRecord(sid, tuple(non), tuple(inj)) for sid, (non, inj) in by_subject.items()]
        return cls(dimension, tuple(records))

    @property
    def n_subjects(self) -> int:
        return len(self.subjects)

    @property
    def subject_ids(self) -> tuple[int, ...]:
        return tuple(r.subject_id for r in self.subjects)

    def subject(self, subject_id: int) -> SubjectRecord:
        for record in self.subjects:
            if record.subject_id == subject_id:
                return record
        raise DataError(f"no subject {subject_id} in dataset")

    def all_samples(self) -> tuple[Sample, ...]:
        out: list[Sample] = []
        for record in self.subjects:
            out.extend(record.samples)
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.dimension == other.dimension and self.subjects == other.subjects


@dataclass(frozen=True)
class SplitSpec:
    """Repeated random sub-sampling plan: disjoint subject-level splits."""

    seed: int = 0
    train_fraction: float = 0.7
    repetitions: int = 5

    def __post_init__(self):
        check_integer_fields(self)
        if self.seed < 0:
            raise ConfigError("split seed must be non-negative")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")


@dataclass(frozen=True)
class GalleryProbePartition:
    """Intact-only gallery vs injured-only probe set; dropped subjects listed."""

    gallery: tuple[Sample, ...]
    probe: tuple[Sample, ...]
    single_image_gallery: bool
    excluded_subjects: tuple[tuple[int, str], ...] = field(default=())

    def __post_init__(self):
        for s in self.gallery:
            if s.subclass is not Subclass.NON_INJURED:
                raise DataError(f"gallery sample {s.key} is not non-injured")
        for s in self.probe:
            if s.subclass is not Subclass.INJURED:
                raise DataError(f"probe sample {s.key} is not injured")
        if self.single_image_gallery:
            ids = [s.subject_id for s in self.gallery]
            if len(ids) != len(set(ids)):
                raise DataError("single-image gallery contains a repeated subject")


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of the synthetic subclass-cluster generator.  The defaults are
    the easy preset: 10 well separated subjects with a single small injury shift."""

    n_subjects: int = 10
    dim: int = 16
    n_non_injured: int = 4
    n_injured: int = 4
    subject_radius: float = 10.0
    sigma_n: float = 0.1
    sigma_i: float = 0.1
    injury_shift: float = 2.0
    n_injury_modes: int = 1
    seed: int = 0

    def __post_init__(self):
        check_integer_fields(self)
        if self.n_subjects < 1:
            raise ConfigError("n_subjects must be >= 1")
        if self.dim < 1:
            raise ConfigError("dim must be >= 1")
        if self.n_non_injured < 1 or self.n_injured < 1:
            raise ConfigError("per-subject sample counts must be >= 1")
        if self.n_injury_modes < 1:
            raise ConfigError("n_injury_modes must be >= 1")
        for name in ("subject_radius", "sigma_n", "sigma_i", "injury_shift"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


def _random_unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    while True:
        v = rng.standard_normal(dim)
        norm = math.sqrt(float(v @ v))
        if norm > 1e-12:
            return v / norm


def generate_synthetic(cfg: SynthConfig) -> Dataset:
    """Draw a deterministic synthetic dataset per the generator model above.

    For a fixed seed the result is bit-identical across calls.  Injured
    samples cycle through the subject's injury-mode directions by sample
    index, so every mode is exercised whenever ``n_injured >= n_injury_modes``.
    Each subclass's noise is one ``(n, dim)`` draw, which numpy fills row by
    row with the values of ``n`` successive ``dim``-sized draws.
    """
    rng = np.random.default_rng(cfg.seed)
    mode_of = np.arange(cfg.n_injured) % cfg.n_injury_modes
    records = []
    for sid in range(cfg.n_subjects):
        mean = _random_unit_vector(rng, cfg.dim) * cfg.subject_radius
        modes = np.array([_random_unit_vector(rng, cfg.dim) for _ in range(cfg.n_injury_modes)])
        non = mean + rng.normal(0.0, cfg.sigma_n, (cfg.n_non_injured, cfg.dim))
        inj = (mean + modes[mode_of] * cfg.injury_shift) + rng.normal(0.0, cfg.sigma_i, (cfg.n_injured, cfg.dim))
        records.append(SubjectRecord(
            sid,
            tuple(Sample(sid, Subclass.NON_INJURED, k, row) for k, row in enumerate(non)),
            tuple(Sample(sid, Subclass.INJURED, k, row) for k, row in enumerate(inj)),
        ))
    return Dataset(cfg.dim, tuple(records))


CSV_FIXED_COLUMNS = ("subject_id", "subclass", "sample_index")


def save_embeddings(ds: Dataset, path) -> None:
    """Write the dataset in the CSV interchange format (bit-exact floats)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        feature_names = ",".join(f"f{k}" for k in range(ds.dimension))
        fh.write(",".join(CSV_FIXED_COLUMNS) + "," + feature_names + "\n")
        for record in ds.subjects:
            for s in record.samples:
                values = ",".join(repr(x) for x in s.embedding.tolist())
                fh.write(f"{s.subject_id},{s.subclass.value},{s.sample_index},{values}\n")


def _utf8_lines(fh, path):
    """The lines of a text file opened as UTF-8; a byte that does not decode is a ParseError."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _nul_free(lines):
    """The lines unchanged; a NUL is a ValueError, since numpy drops a string
    field's trailing NULs and would read ``N\\0`` as ``N``."""
    for line in lines:
        if "\0" in line:
            raise ValueError("NUL character in the body")
        yield line


def _read_header(lines, path) -> int:
    """Check the header line and return the feature dimension it declares."""
    header = next(lines, "")
    if not header:
        raise ParseError(f"{path}: line 1: empty file, expected header")
    fields = header.rstrip("\n").rstrip("\r").split(",")
    if tuple(fields[:3]) != CSV_FIXED_COLUMNS:
        raise ParseError(f"{path}: line 1: header must start with {','.join(CSV_FIXED_COLUMNS)}")
    dim = len(fields) - 3
    if dim < 1:
        raise ParseError(f"{path}: line 1: header declares no feature columns")
    for k, name in enumerate(fields[3:]):
        if name != f"f{k}":
            raise ParseError(f"{path}: line 1: feature column {k} must be named f{k}, got {name!r}")
    return dim


def _bulk_columns(lines, dim: int):
    """The body's columns from one ``np.loadtxt`` pass, checked as a whole.

    Any row the row parser would reject, or that only ``int()``/``float()``
    read, raises ValueError.  numpy reads a subset of what they accept, to the
    same values and float bits; ``subclass`` is read as two characters so that
    ``NI`` fails the N/I check instead of being cut to ``N``.
    """
    dtype = np.dtype([("sid", np.int64), ("sub", "U2"), ("idx", np.int64), ("x", np.float64, (dim,))])
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        # numpy 1.23 deprecated reading a float literal such as 1.0 into an
        # integer field; while it only warns, it truncates the value.
        warnings.simplefilter("error", DeprecationWarning)
        table = np.loadtxt(_nul_free(lines), dtype=dtype, delimiter=",", comments=None, ndmin=1)
    sid, sub, idx, x = (table[name] for name in dtype.names)
    injured = sub == "I"
    if not (injured | (sub == "N")).all() or (sid < 0).any() or (idx < 0).any() or not np.isfinite(x).all():
        raise ValueError("a row the row parser must judge")
    return sid, injured, idx, x


def _row_columns(lines, dim: int, path):
    """The body's columns parsed line by line with ``int()`` and ``float()``;
    the first bad row raises :class:`ParseError` naming its line."""
    sids: list[int] = []
    injured: list[bool] = []
    idxs: list[int] = []
    rows: list[list[float]] = []
    seen: set[tuple[int, str, int]] = set()
    for lineno, line in enumerate(lines, start=2):
        line = line.rstrip("\n").rstrip("\r")
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3 + dim:
            raise ParseError(
                f"{path}: line {lineno}: expected {3 + dim} fields for dimension {dim}, got {len(parts)}"
            )
        try:
            sid = int(parts[0])
            idx = int(parts[2])
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: bad integer field ({exc})") from None
        if parts[1] not in ("N", "I"):
            raise ParseError(f"{path}: line {lineno}: subclass must be N or I, got {parts[1]!r}")
        if sid < 0 or idx < 0:
            raise ParseError(f"{path}: line {lineno}: ids and indices must be non-negative")
        key = (sid, parts[1], idx)
        if key in seen:
            raise ParseError(f"{path}: line {lineno}: duplicate sample {key}")
        seen.add(key)
        try:
            values = [float(x) for x in parts[3:]]
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: bad float field ({exc})") from None
        if not all(map(math.isfinite, values)):
            raise ParseError(f"{path}: line {lineno}: non-finite feature value")
        sids.append(sid)
        injured.append(parts[1] == "I")
        idxs.append(idx)
        rows.append(values)
    # object ids: int() reads ids past the int64 range
    return (np.array(sids, dtype=object), np.array(injured, dtype=bool), np.array(idxs, dtype=object),
            np.array(rows, dtype=np.float64).reshape(-1, dim))


def _row_view(subject_id: int, subclass: Subclass, sample_index: int, row: np.ndarray) -> Sample:
    """A Sample holding ``row`` itself: a read-only view the caller checked."""
    sample = object.__new__(Sample)
    sample.__dict__.update(subject_id=subject_id, subclass=subclass, sample_index=sample_index, embedding=row)
    return sample


def _dataset_from_columns(dim: int, sid, injured, idx, features) -> Dataset:
    """The canonical Dataset of checked CSV columns; :class:`SubjectRecord`
    rejects a repeated key with a DataError.

    The features are sorted into canonical order once and frozen as one
    bytes-backed read-only ``(n, d)`` matrix; every Sample holds a row of it.
    """
    order = np.lexsort((idx, injured, sid))
    matrix = np.frombuffer(features[order].tobytes()).reshape(-1, dim)
    subclass = (Subclass.NON_INJURED, Subclass.INJURED)
    samples = [
        _row_view(s, subclass[i], k, row)
        for s, i, k, row in zip(sid[order].tolist(), injured[order].tolist(), idx[order].tolist(), matrix)
    ]
    return Dataset.from_samples(dim, samples)


def _parse(path, bulk: bool) -> Dataset:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = _utf8_lines(fh, path)
        dim = _read_header(lines, path)
        columns = _bulk_columns(lines, dim) if bulk else _row_columns(lines, dim, path)
        return _dataset_from_columns(dim, *columns)


def load_embeddings(path) -> Dataset:
    """Parse an embedding CSV into a Dataset.

    The dimension is inferred from the header and enforced on every row.
    Malformed rows, inconsistent dimensions, and duplicate
    (subject, subclass, index) keys raise :class:`ParseError` naming the
    1-based line number; bytes that are not UTF-8 raise one naming the file.
    The body is parsed in one numpy pass; on any doubt the file is read again
    row by row, which gives the exact error or the values only ``int()`` and
    ``float()`` accept.
    """
    try:
        return _parse(path, bulk=True)
    except (ValueError, DataError):
        pass
    return _parse(path, bulk=False)


def subject_split(ds: Dataset, spec: SplitSpec, repetition: int) -> tuple[Dataset, Dataset]:
    """One subject-disjoint train/test split of the repeated-sampling plan.

    Train size is ``round(train_fraction * n_subjects)`` clamped so both
    sides stay nonempty; the remainder goes to test.  Deterministic per
    (seed, repetition).
    """
    if ds.n_subjects < 2:
        raise ProtocolError("subject_split needs at least 2 subjects")
    if not 0 <= repetition < spec.repetitions:
        raise ProtocolError(f"repetition {repetition} outside 0..{spec.repetitions - 1}")
    rng = np.random.default_rng([spec.seed, repetition])
    order = rng.permutation(ds.n_subjects)
    n_train = round(spec.train_fraction * ds.n_subjects)
    n_train = min(max(n_train, 1), ds.n_subjects - 1)
    train_ids = {ds.subjects[i].subject_id for i in order[:n_train]}
    train = Dataset(ds.dimension, tuple(r for r in ds.subjects if r.subject_id in train_ids))
    test = Dataset(ds.dimension, tuple(r for r in ds.subjects if r.subject_id not in train_ids))
    return train, test


def gallery_probe_partition(ds: Dataset, single_image_gallery: bool) -> GalleryProbePartition:
    """Split a dataset into an intact gallery and an injured probe set.

    Subjects missing either subclass are dropped and reported in
    ``excluded_subjects`` (plus a warning) instead of failing the run.
    With ``single_image_gallery`` the lowest sample_index per subject is
    enrolled.
    """
    gallery: list[Sample] = []
    probe: list[Sample] = []
    excluded: list[tuple[int, str]] = []
    for record in ds.subjects:
        if not record.non_injured:
            excluded.append((record.subject_id, "no non-injured samples"))
            continue
        if not record.injured:
            excluded.append((record.subject_id, "no injured samples"))
            continue
        if single_image_gallery:
            gallery.append(record.non_injured[0])
        else:
            gallery.extend(record.non_injured)
        probe.extend(record.injured)
    if excluded:
        warnings.warn(f"gallery/probe partition dropped subjects: {excluded}", stacklevel=2)
    return GalleryProbePartition(tuple(gallery), tuple(probe), single_image_gallery, tuple(excluded))
