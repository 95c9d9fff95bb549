"""The bulk CSV loader against the row parser it replaced.

:mod:`row_parser` keeps the line-by-line parser.  For every file below,
valid or mangled, :func:`sclmetric.dataset.load_embeddings` must return the
dataset the row parser returns, bit for bit, or raise a ParseError with the
same text.  The mangles cover what numpy's parser and ``int()``/``float()``
read differently: the subclass field (numpy cuts a string field to its width
and drops trailing NULs), literals only Python reads, line endings, blank and
whitespace-only lines, non-finite values, duplicate keys and bytes that are
not UTF-8.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sclmetric.dataset import load_embeddings
from sclmetric.errors import ParseError

import row_parser

HEADER = "subject_id,subclass,sample_index,f0,f1"
ROWS = (  # out of canonical order, with a subnormal and a negative zero
    "3,I,1,0.5,-2.25",
    "0,N,0,1.0,2.0",
    "3,N,0,1e-300,-0.0",
    "0,I,2,5e-324,3.0",
    "0,I,0,0.1,0.2",
)
SUBCLASS_TOKENS = ("NI", "IN", " N", "N ", "N\0", "n", "", "X")
ID_TOKENS = ("+1", " 1", "1 ", "00", "99999999999999999999", "-1", "1.0", "1_0", "١", "", "0x1")
FEATURE_TOKENS = ("1_0", "١", " 1", "+.5", "nan", "inf", "-inf", "1e400", "1e-400", "-0.0", "0x1", "")
EXTRA_LINES = ("# comment", " ", "\t", "", "\r", ",")


def outcome(load, path):
    """The bits of the dataset ``load`` reads from ``path``, or its ParseError text."""
    try:
        ds = load(path)
    except ParseError as exc:
        return str(exc)
    samples = [
        (type(s.subject_id), type(s.sample_index), s.key, s.embedding.dtype, s.embedding.tobytes())
        for s in ds.all_samples()
    ]
    return ds.dimension, ds.counts.tobytes(), samples


def assert_same_outcome(path, data: bytes):
    path.write_bytes(data)
    assert outcome(load_embeddings, path) == outcome(row_parser.load_embeddings, path)


def csv_bytes(rows, eol="\n", final_eol=True, header=HEADER) -> bytes:
    text = eol.join((header, *rows)) + (eol if final_eol else "")
    return text.encode("utf-8")


def with_field(row_index: int, column: int, token: str):
    rows = [row.split(",") for row in ROWS]
    rows[row_index][column] = token
    return [",".join(row) for row in rows]


CASES = {
    "valid": csv_bytes(ROWS),
    "header-only": csv_bytes(()),
    "header-and-blank-lines": csv_bytes(("", "", "")),
    "no-final-eol": csv_bytes(ROWS, final_eol=False),
    "crlf": csv_bytes(ROWS, eol="\r\n"),
    "lone-cr": csv_bytes(ROWS, eol="\r"),
    "mixed-eol": csv_bytes(ROWS[:2]) + "\r".join(ROWS[2:]).encode("utf-8") + b"\r",
    "blank-lines": csv_bytes((ROWS[0], "", "", *ROWS[1:], "")),
    "whitespace-only-line": csv_bytes((*ROWS[:2], " ", *ROWS[2:])),
    "tab-only-line": csv_bytes((*ROWS[:2], "\t", *ROWS[2:])),
    "comment-line": csv_bytes((*ROWS[:2], "# comment", *ROWS[2:])),
    "trailing-comma": csv_bytes((*ROWS[:3], ROWS[3] + ",", *ROWS[4:])),
    "missing-field": csv_bytes((*ROWS[:3], ROWS[3].rsplit(",", 1)[0], *ROWS[4:])),
    "duplicate-key": csv_bytes((*ROWS, "3,I,1,9.0,9.0")),
    "duplicate-key-spelled-apart": csv_bytes((*ROWS, "03,I,+1,9.0,9.0")),
    "non-utf8": csv_bytes(ROWS[:2]) + b"4,N,0,1.\xff,2.0\n",
    "nul-after-value": csv_bytes(ROWS) + b"4,N,0,1.0,2.0\0\n",
    **{f"subclass-{token!r}": csv_bytes(with_field(2, 1, token)) for token in SUBCLASS_TOKENS},
    **{f"subject-id-{token!r}": csv_bytes(with_field(1, 0, token)) for token in ID_TOKENS},
    **{f"sample-index-{token!r}": csv_bytes(with_field(4, 2, token)) for token in ID_TOKENS},
    **{f"feature-{token!r}": csv_bytes(with_field(3, 4, token)) for token in FEATURE_TOKENS},
}


@pytest.mark.parametrize("data", CASES.values(), ids=CASES.keys())
def test_each_mangle_gives_the_row_parsers_outcome(tmp_path, data):
    assert_same_outcome(tmp_path / "mangled.csv", data)


FEATURE = st.floats(allow_nan=False, allow_infinity=False).map(repr)


@st.composite
def mangled_csv(draw) -> bytes:
    """A valid file of 0-6 rows (ids drawn from a small range, so keys can
    repeat), then 0-3 mangles, a line ending and maybe one stray byte."""
    dim = draw(st.integers(1, 3))
    rows = [
        [str(draw(st.integers(0, 3))), draw(st.sampled_from("NI")), str(draw(st.integers(0, 3)))]
        + [draw(FEATURE) for _ in range(dim)]
        for _ in range(draw(st.integers(0, 6)))
    ]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("field", "append", "drop", "insert")))
        if kind == "insert" or not rows:
            rows.insert(draw(st.integers(0, len(rows))), [draw(st.sampled_from(EXTRA_LINES))])
            continue
        row = draw(st.sampled_from(rows))
        if kind == "append":
            row.append(draw(FEATURE | st.just("")))
        elif not row:
            continue
        elif kind == "drop":
            row.pop()
        else:
            column = draw(st.integers(0, len(row) - 1))
            tokens = ID_TOKENS if column in (0, 2) else SUBCLASS_TOKENS if column == 1 else FEATURE_TOKENS
            row[column] = draw(st.sampled_from(tokens))
    header = ",".join(("subject_id", "subclass", "sample_index", *(f"f{k}" for k in range(dim))))
    data = csv_bytes(
        [",".join(row) for row in rows],
        eol=draw(st.sampled_from(("\n", "\r\n", "\r"))),
        final_eol=draw(st.booleans()),
        header=header,
    )
    if draw(st.booleans()):
        at = draw(st.integers(len(header), len(data)))
        data = data[:at] + draw(st.sampled_from((b"\xff", b"\xc3", b"\0"))) + data[at:]
    return data


@pytest.fixture(scope="module")
def scratch_csv(tmp_path_factory):
    return tmp_path_factory.mktemp("mangled") / "mangled.csv"


@given(mangled_csv())
@settings(max_examples=300, deadline=None)
def test_mangled_files_give_the_row_parsers_outcome(scratch_csv, data):
    assert_same_outcome(scratch_csv, data)
