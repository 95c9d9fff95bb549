"""Dataset model, synthetic generator, CSV round trip, and split protocol."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sclmetric import dataset as dd
from sclmetric.dataset import (
    Dataset,
    GalleryProbePartition,
    Sample,
    SplitSpec,
    Subclass,
    SubjectRecord,
    SynthConfig,
    gallery_probe_partition,
    generate_synthetic,
    load_embeddings,
    save_embeddings,
    subject_split,
)
from sclmetric.errors import ConfigError, DataError, ParseError, ProtocolError


def small_config(**overrides) -> SynthConfig:
    base = dict(
        n_subjects=10,
        dim=4,
        n_non_injured=3,
        n_injured=4,
        subject_radius=5.0,
        sigma_n=0.2,
        sigma_i=0.3,
        injury_shift=1.0,
        n_injury_modes=2,
        seed=7,
    )
    base.update(overrides)
    return SynthConfig(**base)


class TestSynthConfig:
    def test_rejects_zero_subjects(self):
        with pytest.raises(ConfigError):
            small_config(n_subjects=0)

    def test_rejects_negative_scale(self):
        with pytest.raises(ConfigError):
            small_config(sigma_n=-0.1)

    @pytest.mark.parametrize("name", ["subject_radius", "sigma_n", "sigma_i", "injury_shift"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_scale(self, name, value):
        with pytest.raises(ConfigError, match=rf"^{name} must be finite$"):
            small_config(**{name: value})

    def test_rejects_zero_counts(self):
        with pytest.raises(ConfigError):
            small_config(n_injured=0)


class TestGenerateSynthetic:
    def test_counts(self):
        ds = generate_synthetic(small_config(n_subjects=10, n_non_injured=3, n_injured=4))
        assert ds.n_subjects == 10
        assert sum(len(r.non_injured) for r in ds.subjects) == 30
        assert sum(len(r.injured) for r in ds.subjects) == 40

    def test_deterministic(self):
        cfg = small_config(seed=7)
        assert generate_synthetic(cfg) == generate_synthetic(cfg)

    def test_different_seed_differs(self):
        assert generate_synthetic(small_config(seed=1)) != generate_synthetic(small_config(seed=2))

    def test_injury_shift_moves_the_injured_mean(self):
        # with a single mode and tiny noise, |mean(I) - mean(N)| ~ injury_shift
        cfg = small_config(
            n_subjects=3, dim=8, n_non_injured=200, n_injured=200,
            sigma_n=0.05, sigma_i=0.05, injury_shift=2.0, n_injury_modes=1,
        )
        ds = generate_synthetic(cfg)
        for record in ds.subjects:
            mean_n = np.mean([s.embedding for s in record.non_injured], axis=0)
            mean_i = np.mean([s.embedding for s in record.injured], axis=0)
            offset = np.linalg.norm(mean_i - mean_n)
            assert abs(offset - 2.0) < 3 * 0.05 / np.sqrt(200) * np.sqrt(8) + 0.01

    def test_zero_shift_same_sigma_gives_overlapping_subclasses(self):
        cfg = small_config(
            n_subjects=2, dim=6, n_non_injured=400, n_injured=400,
            sigma_n=0.5, sigma_i=0.5, injury_shift=0.0,
        )
        ds = generate_synthetic(cfg)
        for record in ds.subjects:
            mean_n = np.mean([s.embedding for s in record.non_injured], axis=0)
            mean_i = np.mean([s.embedding for s in record.injured], axis=0)
            # both subclasses estimate the same subject mean
            assert np.linalg.norm(mean_i - mean_n) < 5 * 0.5 / np.sqrt(400) * np.sqrt(6)

    def test_embeddings_are_read_only(self):
        ds = generate_synthetic(small_config())
        sample = ds.subjects[0].non_injured[0]
        with pytest.raises(ValueError):
            sample.embedding[0] = 99.0

    def test_arrays_cannot_be_made_writable_again(self):
        ds = generate_synthetic(small_config())
        source = np.array([1.0, 2.0])
        sample = Sample(0, Subclass.INJURED, 0, source)
        source[0] = 1e300  # the sample holds its own copy
        for arr in (ds.subjects[0].non_injured[0].embedding, ds.counts, sample.embedding):
            with pytest.raises(ValueError, match="cannot set WRITEABLE flag"):
                arr.setflags(write=True)
        assert sample.embedding.tolist() == [1.0, 2.0]


class TestCsvRoundTrip:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = generate_synthetic(small_config())
        path = tmp_path / "ds.csv"
        save_embeddings(ds, path)
        assert load_embeddings(path) == ds

    def test_save_is_byte_deterministic(self, tmp_path):
        ds = generate_synthetic(small_config())
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_embeddings(ds, p1)
        save_embeddings(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert b"\r" not in p1.read_bytes()

    def test_minimal_two_row_file(self, tmp_path):
        path = tmp_path / "mini.csv"
        path.write_text(
            "subject_id,subclass,sample_index,f0,f1,f2\n"
            "0,N,0,1.0,2.0,3.0\n"
            "1,I,0,4.0,5.0,6.0\n",
            encoding="utf-8",
        )
        ds = load_embeddings(path)
        assert ds.n_subjects == 2
        assert ds.dimension == 3
        assert len(ds.subject(0).non_injured) == 1
        assert len(ds.subject(1).injured) == 1

    def test_mixed_dimension_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "subject_id,subclass,sample_index,f0,f1,f2\n"
            "0,N,0,1.0,2.0,3.0\n"
            "1,I,0,4.0,5.0,6.0,7.0\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match="line 3"):
            load_embeddings(path)

    def test_duplicate_key_names_line(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "subject_id,subclass,sample_index,f0\n0,N,0,1.0\n0,N,0,2.0\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match="line 3"):
            load_embeddings(path)

    def test_bad_subclass_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("subject_id,subclass,sample_index,f0\n0,X,0,1.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="subclass"):
            load_embeddings(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,subclass,sample_index,f0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 1"):
            load_embeddings(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("subject_id,subclass,sample_index,f0\n0,N,0,nan\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            load_embeddings(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "line 1: empty file, expected header"),
            ("subject_id,subclass,sample_index\n", "line 1: header declares no feature columns"),
            ("subject_id,subclass,sample_index,f0,g1\n", "line 1: feature column 1 must be named f1, got 'g1'"),
            (
                "subject_id,subclass,sample_index,f0\n0,N,x,1.0\n",
                "line 2: bad integer field (invalid literal for int() with base 10: 'x')",
            ),
            ("subject_id,subclass,sample_index,f0\n-1,N,0,1.0\n", "line 2: ids and indices must be non-negative"),
            ("subject_id,subclass,sample_index,f0\n0,N,-2,1.0\n", "line 2: ids and indices must be non-negative"),
            (
                "subject_id,subclass,sample_index,f0\n0,N,0,abc\n",
                "line 2: bad float field (could not convert string to float: 'abc')",
            ),
            (
                "subject_id,subclass,sample_index,f0\n0,N,0,1.0\n\n\n1,N,0,zz\n",
                "line 5: bad float field (could not convert string to float: 'zz')",
            ),
            (
                "subject_id,subclass,sample_index,f0,f1\n0,N,0,1.0,2.0\n0,I,0,1.0,nan\n",
                "line 3: non-finite feature value",
            ),
            ("subject_id,subclass,sample_index,f0,f1\n0,N,0,-inf,2.0\n", "line 2: non-finite feature value"),
            (
                "subject_id,subclass,sample_index,f0,f1\n0,N,0,1.0,2.0\n\n1,I,4,1e400,0\n",
                "line 4: non-finite feature value",
            ),
        ],
        ids=["empty", "no-features", "misnamed-feature", "bad-int", "negative-id", "negative-index", "bad-float",
             "blank-lines-counted", "nan", "minus-inf", "overflow"],
    )
    def test_parse_error_text_and_line(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(ParseError) as exc:
            load_embeddings(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_crlf_loads_the_same_bits_as_lf(self, tmp_path):
        ds = generate_synthetic(small_config())
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        save_embeddings(ds, lf)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        a, b = load_embeddings(lf), load_embeddings(crlf)
        assert a == b
        for ra, rb in zip(a.subjects, b.subjects):
            assert [s.embedding.tobytes() for s in ra.samples] == [s.embedding.tobytes() for s in rb.samples]

    @pytest.mark.parametrize("body", ["", "\n\n", "\r\n\r\n"], ids=["header-only", "blank-lines", "blank-crlf-lines"])
    def test_empty_body_loads_without_a_warning(self, tmp_path, body):
        path = tmp_path / "empty.csv"
        path.write_bytes(("subject_id,subclass,sample_index,f0,f1\n" + body).encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = load_embeddings(path)
        assert ds == Dataset(2, ())
        assert ds.counts.shape == (0, 2)

    def test_loaded_embeddings_are_read_only_rows_of_one_buffer(self, tmp_path):
        path = tmp_path / "ds.csv"
        save_embeddings(generate_synthetic(small_config()), path)
        embeddings = [s.embedding for s in load_embeddings(path).all_samples()]

        def root(arr):
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            return arr.base

        buffer = root(embeddings[0])
        assert type(buffer) is bytes and all(root(e) is buffer for e in embeddings)
        assert buffer == b"".join(e.tobytes() for e in embeddings)  # one matrix in canonical order
        backing = embeddings[0].base  # the array the row views were cut from
        for arr in (embeddings[0], embeddings[-1], backing):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 99.0
            with pytest.raises(ValueError, match="cannot set WRITEABLE flag"):
                arr.setflags(write=True)
        copied = Sample(0, Subclass.NON_INJURED, 0, embeddings[0])  # the public constructor copies
        assert not np.shares_memory(copied.embedding, embeddings[0])
        assert copied.embedding.tobytes() == embeddings[0].tobytes()


    @pytest.mark.parametrize("rows_before", [0, 5000], ids=["first-chunk", "past-the-first-read"])
    def test_non_utf8_bytes_are_a_parse_error(self, tmp_path, rows_before):
        path = tmp_path / "bad.csv"
        rows = b"".join(b"%d,N,0,1.0\n" % k for k in range(rows_before))
        path.write_bytes(b"subject_id,subclass,sample_index,f0\n" + rows + b"9999,N,0,1.\xff\xfe\n")
        with pytest.raises(ParseError) as exc:
            load_embeddings(path)
        assert str(exc.value) == f"{path}: not UTF-8 text (invalid start byte)"


class TestSubjectSplit:
    def test_70_30_sizes(self):
        ds = generate_synthetic(small_config(n_subjects=10))
        train, test = subject_split(ds, SplitSpec(seed=0), repetition=0)
        assert train.n_subjects == 7
        assert test.n_subjects == 3

    def test_deterministic_per_seed_and_repetition(self):
        ds = generate_synthetic(small_config())
        spec = SplitSpec(seed=5)
        a = subject_split(ds, spec, 2)
        b = subject_split(ds, spec, 2)
        assert a[0] == b[0] and a[1] == b[1]

    def test_repetitions_differ(self):
        ds = generate_synthetic(small_config(n_subjects=20))
        spec = SplitSpec(seed=5)
        ids = {rep: subject_split(ds, spec, rep)[0].subject_ids for rep in range(5)}
        assert len({ids[r] for r in ids}) > 1

    @given(st.integers(2, 40), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_partition_property(self, n_subjects, seed):
        cfg = small_config(n_subjects=n_subjects, n_non_injured=1, n_injured=1, seed=0)
        ds = generate_synthetic(cfg)
        train, test = subject_split(ds, SplitSpec(seed=seed), 0)
        train_ids, test_ids = set(train.subject_ids), set(test.subject_ids)
        assert train_ids.isdisjoint(test_ids)
        assert train_ids | test_ids == set(ds.subject_ids)
        assert train_ids and test_ids

    def test_too_few_subjects(self):
        ds = generate_synthetic(small_config(n_subjects=1))
        with pytest.raises(ProtocolError):
            subject_split(ds, SplitSpec(seed=0), 0)

    def test_repetition_out_of_range(self):
        ds = generate_synthetic(small_config())
        with pytest.raises(ProtocolError):
            subject_split(ds, SplitSpec(seed=0, repetitions=5), 5)


def _sample(sid, subclass, idx, values):
    return Sample(sid, subclass, idx, values)


class TestGalleryProbePartition:
    def _dataset(self):
        records = [
            SubjectRecord(
                0,
                tuple(_sample(0, Subclass.NON_INJURED, k, [float(k), 0.0]) for k in range(3)),
                tuple(_sample(0, Subclass.INJURED, k, [float(k), 1.0]) for k in range(2)),
            ),
            SubjectRecord(
                1,
                (_sample(1, Subclass.NON_INJURED, 0, [9.0, 9.0]),),
                (_sample(1, Subclass.INJURED, 0, [9.0, 8.0]),),
            ),
        ]
        return Dataset(2, tuple(records))

    def test_single_image_gallery_takes_lowest_index(self):
        part = gallery_probe_partition(self._dataset(), single_image_gallery=True)
        subj0 = [s for s in part.gallery if s.subject_id == 0]
        assert len(subj0) == 1
        assert subj0[0].sample_index == 0
        assert len(part.probe) == 3

    def test_full_gallery(self):
        part = gallery_probe_partition(self._dataset(), single_image_gallery=False)
        assert len([s for s in part.gallery if s.subject_id == 0]) == 3

    def test_subject_without_injured_is_dropped_and_reported(self):
        records = list(self._dataset().subjects)
        records.append(SubjectRecord(2, (_sample(2, Subclass.NON_INJURED, 0, [0.0, 5.0]),), ()))
        ds = Dataset(2, tuple(records))
        with pytest.warns(UserWarning, match="dropped"):
            part = gallery_probe_partition(ds, single_image_gallery=True)
        assert 2 not in {s.subject_id for s in part.gallery}
        assert 2 not in {s.subject_id for s in part.probe}
        assert part.excluded_subjects == ((2, "no injured samples"),)


    def test_subject_without_non_injured_is_dropped_and_reported(self):
        records = list(self._dataset().subjects)
        records.append(SubjectRecord(3, (), (_sample(3, Subclass.INJURED, 0, [0.0, 5.0]),)))
        ds = Dataset(2, tuple(records))
        with pytest.warns(UserWarning) as caught:
            part = gallery_probe_partition(ds, single_image_gallery=True)
        assert [str(w.message) for w in caught] == [
            "gallery/probe partition dropped subjects: [(3, 'no non-injured samples')]"
        ]
        assert part.excluded_subjects == ((3, "no non-injured samples"),)
        assert 3 not in {s.subject_id for s in part.gallery} | {s.subject_id for s in part.probe}


class TestDatasetInvariants:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: _sample(-1, Subclass.INJURED, 0, [1.0]), "subject_id and sample_index must be non-negative"),
            (lambda: _sample(0, Subclass.INJURED, 0, [[1.0, 2.0]]), "embedding must be a 1-d vector, got shape (1, 2)"),
            (lambda: Dataset(1, ()).subject(7), "no subject 7 in dataset"),
            (
                lambda: GalleryProbePartition(
                    (_sample(0, Subclass.NON_INJURED, 0, [1.0]), _sample(0, Subclass.NON_INJURED, 1, [2.0])), (), True
                ),
                "single-image gallery contains a repeated subject",
            ),
            (
                lambda: GalleryProbePartition((_sample(0, Subclass.INJURED, 0, [1.0]),), (), False),
                "gallery sample (0, 'I', 0) is not non-injured",
            ),
            (
                lambda: GalleryProbePartition((), (_sample(0, Subclass.NON_INJURED, 0, [1.0]),), False),
                "probe sample (0, 'N', 0) is not injured",
            ),
        ],
        ids=["negative-id", "2d-embedding", "missing-subject", "repeated-subject", "injured-gallery", "intact-probe"],
    )
    def test_documented_errors(self, build, message):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            build()

    def test_repr_and_comparison_with_foreign_objects(self):
        s = Sample(3, Subclass.INJURED, 2, [0.0, 1.0])
        assert repr(s) == "Sample(subject=3, I2, d=2)"
        record = SubjectRecord(3, (), (s,))
        for value in (s, record, Dataset(2, (record,))):
            assert value.__eq__(object()) is NotImplemented
            assert value != "x"

    def test_duplicate_subject_rejected(self):
        r = SubjectRecord(0, (), (_sample(0, Subclass.INJURED, 0, [1.0]),))
        with pytest.raises(DataError):
            Dataset(1, (r, r))

    def test_dimension_enforced(self):
        r = SubjectRecord(0, (), (_sample(0, Subclass.INJURED, 0, [1.0, 2.0]),))
        with pytest.raises(DataError):
            Dataset(3, (r,))

    def test_from_samples_rejects_duplicates(self):
        s = _sample(0, Subclass.INJURED, 0, [1.0])
        with pytest.raises(DataError):
            Dataset.from_samples(1, [s, s])

    def test_record_rejects_a_repeated_sample_index(self):
        intact = _sample(0, Subclass.NON_INJURED, 0, [1.0])
        injured = (_sample(0, Subclass.INJURED, 0, [2.0]), _sample(0, Subclass.INJURED, 0, [3.0]))
        with pytest.raises(DataError, match=r"^duplicate sample key \(0, 'I', 0\)$"):
            SubjectRecord(0, (intact,), injured)

    def test_subclass_consistency_enforced(self):
        bad = _sample(0, Subclass.INJURED, 0, [1.0])
        with pytest.raises(DataError):
            SubjectRecord(0, (bad,), ())

    def test_canonical_ordering(self):
        samples = [
            _sample(1, Subclass.INJURED, 1, [1.0]),
            _sample(0, Subclass.NON_INJURED, 0, [2.0]),
            _sample(1, Subclass.INJURED, 0, [3.0]),
        ]
        ds = Dataset.from_samples(1, samples)
        assert ds.subject_ids == (0, 1)
        assert [s.sample_index for s in ds.subject(1).injured] == [0, 1]
