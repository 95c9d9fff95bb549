"""Deterministic report/curve/SVG emission."""

import json

from sclmetric import presets, reporting
from sclmetric.dataset import SplitSpec, generate_synthetic
from sclmetric.evaluation import CmcCurve, VerificationReport, gar_at_far, repeated_evaluation
from sclmetric.training import TrainConfig


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
