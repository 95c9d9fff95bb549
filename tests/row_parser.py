"""The row-by-row embedding CSV parser that the bulk loader of
:func:`sclmetric.dataset.load_embeddings` replaced, kept as a test oracle.

It reads one line at a time with ``int()`` and ``float()`` and builds one
copied :class:`~sclmetric.dataset.Sample` per row.  The differential tests
require the bulk loader to return the same dataset, bit for bit, or to raise
the same :class:`~sclmetric.errors.ParseError` text.
"""

from __future__ import annotations

from sclmetric.dataset import Dataset, Sample, Subclass
from sclmetric.errors import DataError, ParseError

CSV_FIXED_COLUMNS = ("subject_id", "subclass", "sample_index")


def _utf8_lines(fh, path):
    """The lines of a text file opened as UTF-8; a byte that does not decode is a ParseError."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_embeddings(path) -> Dataset:
    """Parse an embedding CSV into a Dataset.

    The dimension is inferred from the header and enforced on every row.
    Malformed rows, inconsistent dimensions, and duplicate
    (subject, subclass, index) keys raise :class:`ParseError` naming the
    1-based line number; bytes that are not UTF-8 raise one naming the file.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = _utf8_lines(fh, path)
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

        samples: list[Sample] = []
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
            try:
                samples.append(Sample(sid, Subclass(parts[1]), idx, values))
            except DataError:  # the fields were checked above: only non-finiteness is left to fail
                raise ParseError(f"{path}: line {lineno}: non-finite feature value") from None
    return Dataset.from_samples(dim, samples)
