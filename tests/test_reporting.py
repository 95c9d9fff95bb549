"""Deterministic report/curve/SVG emission."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sclmetric import evaluation, model, presets, reporting
from sclmetric.dataset import SplitSpec, generate_synthetic
from sclmetric.evaluation import CmcCurve, VerificationReport, gar_at_far, repeated_evaluation
from sclmetric.training import EpochStats, TrainConfig, TrainLog


def small_report():
    ds = generate_synthetic(presets.easy_synth_config())
    cfg = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=10, per_subject=2, seed=0)
    return repeated_evaluation(ds, SplitSpec(seed=0, repetitions=2), cfg, verification_pairs=5)


class TestJsonReport:
    def test_payload_round_trips_and_is_deterministic(self, tmp_path):
        report = small_report()
        payload = reporting.eval_report_payload(report)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        reporting.write_json_report(payload, p1)
        reporting.write_json_report(payload, p2)
        assert p1.read_bytes() == p2.read_bytes()
        loaded = json.loads(p1.read_text(encoding="utf-8"))
        assert loaded["flags"]["extended_gallery"] is False
        assert len(loaded["repetitions"]) == 2

    def test_payload_contains_per_repetition_scores(self):
        payload = reporting.eval_report_payload(small_report())
        rep = payload["repetitions"][0]
        assert rep["verification"]["genuine_scores"]
        assert rep["verification"]["gar_at_far"][0]["target_far"] == 0.01


class TestCurveCsv:
    def test_cmc_csv(self, tmp_path):
        path = tmp_path / "cmc.csv"
        reporting.write_cmc_csv((0.5, 0.75, 1.0), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == ["rank,cmc", "1,0.5", "2,0.75", "3,1.0"]

    def test_far_gar_csv(self, tmp_path):
        report = VerificationReport((0.1, 0.9), (0.5, 1.0))
        path = tmp_path / "fg.csv"
        reporting.write_far_gar_csv(report, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "threshold,far,gar"
        assert len(lines) == 5  # four distinct scores


class TestSvg:
    def test_cmc_svg_valid_and_deterministic(self, tmp_path):
        curve = CmcCurve((0.4, 0.8, 1.0))
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        reporting.write_cmc_svg(curve, p1)
        reporting.write_cmc_svg(curve, p2)
        body = p1.read_text(encoding="utf-8")
        assert body.startswith("<svg")
        assert "<polyline" in body
        assert p1.read_bytes() == p2.read_bytes()

    def test_histogram_svg_of_equal_scores(self, tmp_path):
        # The range widens to one unit, so every score falls in the first bin.
        path = tmp_path / "hist.svg"
        reporting.write_score_histogram_svg(VerificationReport((0.5, 0.5), (0.5,)), path)
        bars = [line for line in path.read_text(encoding="utf-8").splitlines() if line.startswith("<rect x=")]
        assert bars == [
            '<rect x="60" y="40" width="14" height="390" fill="#1f77b4" fill-opacity="0.6"/>',
            '<rect x="74" y="40" width="14" height="390" fill="#d62728" fill-opacity="0.6"/>',
        ]

    def test_histogram_svg(self, tmp_path):
        report = gar_at_far(
            VerificationReport((0.1, 0.2, 0.3), (0.8, 0.9, 1.4)), [0.1]
        )
        path = tmp_path / "hist.svg"
        reporting.write_score_histogram_svg(report, path)
        body = path.read_text(encoding="utf-8")
        assert "<rect" in body and "genuine" in body and "imposter" in body


class TestOutputBytes:
    """Every writer's exact bytes on small fixed inputs, the final LF included."""

    def test_cmc_csv(self, tmp_path):
        reporting.write_cmc_csv((0.5, 0.75, 1.0), tmp_path / "cmc.csv")
        assert (tmp_path / "cmc.csv").read_bytes() == b"rank,cmc\n1,0.5\n2,0.75\n3,1.0\n"

    def test_far_gar_csv(self, tmp_path):
        reporting.write_far_gar_csv(VerificationReport((0.1, 0.9), (0.5, 1.0)), tmp_path / "fg.csv")
        assert (tmp_path / "fg.csv").read_bytes() == (
            b"threshold,far,gar\n0.1,0.0,0.5\n0.5,0.5,0.5\n0.9,0.5,1.0\n1.0,1.0,1.0\n"
        )

    def test_train_log_csv(self, tmp_path):
        log = TrainLog((EpochStats(0, 1.5, 0.25, 0.125, 0.5), EpochStats(1, 0.1 + 0.2, 1e-17, 2.0, 3.0)))
        log.write_csv(tmp_path / "log.csv")
        assert (tmp_path / "log.csv").read_bytes() == (
            b"epoch,sum_loss,mean_genuine,mean_imposter,seconds\n"
            b"0,1.5,0.25,0.125,0.5\n1,0.30000000000000004,1e-17,2.0,3.0\n"
        )

    SVG_FRAME = (
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="480" viewBox="0 0 640 480">\n'
        '<rect width="640" height="480" fill="white"/>\n'
        '<text x="320.0" y="24" text-anchor="middle" font-size="16">{}</text>\n'
        '<text x="320.0" y="468" text-anchor="middle" font-size="12">{}</text>\n'
        '<text x="16" y="240.0" text-anchor="middle" font-size="12" transform="rotate(-90 16 240.0)">{}</text>\n'
        '<line x1="60" y1="430" x2="620" y2="430" stroke="black"/>\n'
        '<line x1="60" y1="40" x2="60" y2="430" stroke="black"/>\n'
    )

    def test_cmc_svg(self, tmp_path):
        reporting.write_cmc_svg(CmcCurve((0.4, 0.8, 1.0)), tmp_path / "cmc.svg")
        assert (tmp_path / "cmc.svg").read_bytes() == (
            self.SVG_FRAME.format("Cumulative match characteristic", "rank", "match rate")
            + '<polyline fill="none" stroke="#1f77b4" stroke-width="2" points="60,274 340,118 620,40"/>\n'
            '<text x="616" y="56" text-anchor="end" font-size="12" fill="#1f77b4">cmc</text>\n'
            '<text x="60" y="446" text-anchor="middle" font-size="10">1</text>\n'
            '<text x="54" y="430" text-anchor="end" font-size="10">0</text>\n'
            '<text x="340" y="446" text-anchor="middle" font-size="10">2</text>\n'
            '<text x="54" y="235" text-anchor="end" font-size="10">0.5</text>\n'
            '<text x="620" y="446" text-anchor="middle" font-size="10">3</text>\n'
            '<text x="54" y="40" text-anchor="end" font-size="10">1</text>\n'
            "</svg>\n"
        ).encode()

    def test_score_histogram_svg(self, tmp_path):
        report = VerificationReport((0.1, 0.1, 0.3), (0.8, 1.4, 1.4, 1.4))
        reporting.write_score_histogram_svg(report, tmp_path / "scores.svg")
        assert (tmp_path / "scores.svg").read_bytes() == (
            self.SVG_FRAME.format("Genuine vs imposter score distribution", "distance", "fraction of pairs")
            + '<rect x="60" y="83.3333" width="14" height="346.667" fill="#1f77b4" fill-opacity="0.6"/>\n'
            '<rect x="144" y="256.667" width="14" height="173.333" fill="#1f77b4" fill-opacity="0.6"/>\n'
            '<rect x="354" y="300" width="14" height="130" fill="#d62728" fill-opacity="0.6"/>\n'
            '<rect x="606" y="40" width="14" height="390" fill="#d62728" fill-opacity="0.6"/>\n'
            '<text x="616" y="56" text-anchor="end" font-size="12" fill="#1f77b4">genuine</text>\n'
            '<text x="616" y="72" text-anchor="end" font-size="12" fill="#d62728">imposter</text>\n'
            "</svg>\n"
        ).encode()


def hand_payload(report):
    """The report payload with every field spelled out by hand: the oracle for
    the payload that :func:`reporting.eval_report_payload` builds from the dataclasses."""
    return {
        "flags": {
            "extended_gallery": report.extended_gallery,
            "normalized_inter_class_distance": report.normalized,
        },
        "ranks": list(report.ranks),
        "rank_mean": {str(k): report.rank_mean[k] for k in report.ranks},
        "rank_std": {str(k): report.rank_std[k] for k in report.ranks},
        "mean_cmc": list(report.mean_cmc),
        "gar_mean": {repr(t): g for t, g in report.gar_mean.items()},
        "inter_class_mean": report.inter_class_mean,
        "repetitions": [
            {
                "repetition": r.repetition,
                "gallery_size": r.gallery_size,
                "n_probes": r.n_probes,
                "rank_accuracies": {str(k): v for k, v in r.rank_accuracies.items()},
                "cmc": list(r.cmc.values),
                "n_unenrolled": r.cmc.n_unenrolled,
                "mean_inter_class_distance": r.mean_inter_class_distance,
                "verification": {
                    "genuine_scores": list(r.verification.genuine_scores),
                    "imposter_scores": list(r.verification.imposter_scores),
                    "gar_at_far": [
                        {
                            "target_far": e.target_far,
                            "achieved_far": e.achieved_far,
                            "gar": e.gar,
                            "threshold": e.threshold,
                        }
                        for e in r.verification.gar_at_far
                    ],
                },
            }
            for r in report.repetitions
        ],
    }


@pytest.mark.parametrize("repetitions", [1, 5])
@pytest.mark.parametrize("extended", [False, True])
@pytest.mark.parametrize("unenrolled", [0, 3])
def test_payload_matches_the_hand_written_oracle(repetitions, extended, unenrolled):
    ds = generate_synthetic(replace(presets.easy_synth_config(), n_subjects=40))  # 12 test subjects
    m = model.init_model([ds.dimension, 8], seed=0)
    distractors = [(1000 + k, np.random.default_rng(k).normal(size=ds.dimension)) for k in range(10)]
    report = evaluation.evaluate_repetitions(
        ds, SplitSpec(seed=0, repetitions=repetitions), range(repetitions), lambda rep, train_ds: m,
        evaluation.EvalConfig(ranks=(1, 5, 10), verification_pairs=5), distractors=distractors if extended else None,
    )
    if unenrolled:  # the protocol's partition enrolls every probe subject, so count some as unenrolled here
        report = replace(report, repetitions=tuple(
            replace(r, cmc=CmcCurve(r.cmc.values, unenrolled)) for r in report.repetitions
        ))
    assert report.ranks == (1, 5, 10) and len(report.repetitions) == repetitions
    got, expected = reporting.eval_report_payload(report), hand_payload(report)
    assert json.dumps(got, sort_keys=True, indent=2) == json.dumps(expected, sort_keys=True, indent=2)


def test_editing_the_payload_leaves_the_report_unchanged():
    ds = generate_synthetic(replace(presets.easy_synth_config(), n_subjects=20))
    m = model.init_model([ds.dimension, 8], seed=0)
    report = evaluation.evaluate_repetitions(
        ds, SplitSpec(seed=0, repetitions=2), range(2), lambda rep, train_ds: m,
        evaluation.EvalConfig(ranks=(1, 2), verification_pairs=5),
    )
    before = repr(report)
    payload = reporting.eval_report_payload(report)
    rep = payload["repetitions"][0]
    rep["verification"]["gar_at_far"][0]["gar"] = -1.0
    rep["verification"]["genuine_scores"] = ()
    rep["rank_accuracies"]["1"] = -1.0
    rep["repetition"] = -1
    payload["rank_mean"]["1"] = -1.0
    payload["mean_cmc"].append(-1.0)
    assert repr(report) == before


def loop_histogram_svg(report, path):
    """The score histogram writer as it was before numpy binned the scores,
    one ``int()`` per score: the oracle for :func:`reporting.write_score_histogram_svg`."""
    bins, fmt, W, H, ML, MR, MT, MB = (
        reporting._HISTOGRAM_BINS, reporting._fmt, reporting._W, reporting._H,
        reporting._ML, reporting._MR, reporting._MT, reporting._MB,
    )
    scores = list(report.genuine_scores) + list(report.imposter_scores)
    lo, hi = min(scores), max(scores)
    if hi == lo:
        hi = lo + 1.0
    width = (hi - lo) / bins

    def counts(values):
        c = [0] * bins
        for v in values:
            idx = min(int((v - lo) / width), bins - 1)
            c[idx] += 1
        return [x / len(values) for x in c]

    g_counts = counts(report.genuine_scores)
    i_counts = counts(report.imposter_scores)
    top = max(max(g_counts), max(i_counts), 1e-12)
    parts = reporting._svg_frame("Genuine vs imposter score distribution", "distance", "fraction of pairs")
    bar_w = (W - ML - MR) / bins
    for series, color, shift in ((g_counts, "#1f77b4", 0.0), (i_counts, "#d62728", bar_w / 2)):
        for k, frac in enumerate(series):
            if frac == 0:
                continue
            x = ML + k * bar_w + shift
            h = (frac / top) * (H - MT - MB)
            y = (H - MB) - h
            parts.append(
                f'<rect x="{fmt(x)}" y="{fmt(y)}" width="{fmt(bar_w / 2)}" height="{fmt(h)}" '
                f'fill="{color}" fill-opacity="0.6"/>'
            )
    parts.append(f'<text x="{W - MR - 4}" y="{MT + 16}" text-anchor="end" font-size="12" fill="#1f77b4">genuine</text>')
    parts.append(f'<text x="{W - MR - 4}" y="{MT + 32}" text-anchor="end" font-size="12" fill="#d62728">imposter</text>')
    parts.append("</svg>")
    reporting._write_lines(path, parts)


unit_scores = st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from((0.0, 0.5, 1.0))), min_size=1, max_size=40)


@pytest.fixture(scope="module")
def svg_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("hist")


@given(unit_scores, unit_scores, st.sampled_from((1e-300, 1e-8, 1.0, 3.7, 1e8, 1e300)))
@settings(max_examples=300, deadline=None)
def test_histogram_bins_match_the_per_score_loop(svg_dir, genuine, imposter, scale):
    report = VerificationReport(tuple(g * scale for g in genuine), tuple(i * scale for i in imposter))
    lo, hi = min(report.genuine_scores + report.imposter_scores), max(report.genuine_scores + report.imposter_scores)
    assume(((lo + 1.0 if hi == lo else hi) - lo) / reporting._HISTOGRAM_BINS > 0)  # the loop divides by the bin width
    reporting.write_score_histogram_svg(report, svg_dir / "new.svg")
    loop_histogram_svg(report, svg_dir / "loop.svg")
    assert (svg_dir / "new.svg").read_bytes() == (svg_dir / "loop.svg").read_bytes()
