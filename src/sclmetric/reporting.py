"""Report and plot emission: deterministic JSON, CSV curves, and small SVGs.

Everything written here is byte-reproducible for identical inputs: JSON is
sorted-key with repr-exact floats, CSVs use LF endings, and the SVG
renderers are plain polyline/rect generators with fixed formatting and no
timestamps.  Richer plotting is intentionally left to the exported CSVs.
"""

from __future__ import annotations

import json

import numpy as np

from .evaluation import CmcCurve, EvalReport, VerificationReport, far_gar_sweep


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(f"{line}\n" for line in lines)


def write_json_report(payload: dict, path) -> None:
    _write_lines(path, [json.dumps(payload, sort_keys=True, indent=2)])


def write_cmc_csv(values, path) -> None:
    _write_lines(path, ["rank,cmc", *(f"{k},{float(v)!r}" for k, v in enumerate(values, start=1))])


def write_far_gar_csv(report: VerificationReport, path) -> None:
    rows = (",".join(repr(float(x)) for x in row) for row in far_gar_sweep(report))
    _write_lines(path, ["threshold,far,gar", *rows])


def eval_report_payload(report: EvalReport) -> dict:
    """A JSON-ready view of an EvalReport (per-repetition plus aggregates)."""
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
        # Rank keys stay strings, which sort_keys orders "1", "10", "5"; int keys would go 1, 5, 10.
        "repetitions": [
            {
                **vars(r),
                "rank_accuracies": {str(k): v for k, v in r.rank_accuracies.items()},
                "cmc": list(r.cmc.values),
                "n_unenrolled": r.cmc.n_unenrolled,
                "verification": {**vars(r.verification), "gar_at_far": [dict(vars(e)) for e in r.verification.gar_at_far]},
            }
            for r in report.repetitions
        ],
    }


# --- dependency-light SVG rendering -----------------------------------------

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 60, 20, 40, 50  # plot margins


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _scale(value, lo, hi, out_lo, out_hi) -> float:
    span = hi - lo
    t = 0.0 if span == 0 else (value - lo) / span
    return out_lo + t * (out_hi - out_lo)


def _svg_frame(title: str, xlabel: str, ylabel: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<text x="{_W / 2}" y="{_H - 12}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="16" y="{_H / 2}" text-anchor="middle" font-size="12" transform="rotate(-90 16 {_H / 2})">{ylabel}</text>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
    ]


_CMC_COLOR = "#1f77b4"
_HISTOGRAM_BINS = 20


def write_cmc_svg(curve: CmcCurve, path) -> None:
    """Polyline plot of the CMC curve: match rate against rank."""
    ys = curve.values
    x_lo, x_hi = 1, len(ys)
    y_lo, y_hi = min(min(ys), 0.0), max(max(ys), 1e-12)
    parts = _svg_frame("Cumulative match characteristic", "rank", "match rate")
    coords = " ".join(
        f"{_fmt(_scale(x, x_lo, x_hi, _ML, _W - _MR))},{_fmt(_scale(y, y_lo, y_hi, _H - _MB, _MT))}"
        for x, y in enumerate(ys, start=1)
    )
    parts.append(f'<polyline fill="none" stroke="{_CMC_COLOR}" stroke-width="2" points="{coords}"/>')
    parts.append(f'<text x="{_W - _MR - 4}" y="{_MT + 16}" text-anchor="end" font-size="12" fill="{_CMC_COLOR}">cmc</text>')
    for frac in (0.0, 0.5, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<text x="{_fmt(_scale(xv, x_lo, x_hi, _ML, _W - _MR))}" y="{_H - _MB + 16}" text-anchor="middle" font-size="10">{_fmt(xv)}</text>'
        )
        parts.append(
            f'<text x="{_ML - 6}" y="{_fmt(_scale(yv, y_lo, y_hi, _H - _MB, _MT))}" text-anchor="end" font-size="10">{_fmt(yv)}</text>'
        )
    parts.append("</svg>")
    _write_lines(path, parts)


def write_score_histogram_svg(report: VerificationReport, path) -> None:
    """Overlaid genuine/imposter score histograms (normalized bar heights)."""
    scores = list(report.genuine_scores) + list(report.imposter_scores)
    lo, hi = min(scores), max(scores)
    width = (hi - lo) / _HISTOGRAM_BINS or 1.0

    def counts(values):
        bins = np.minimum(((np.asarray(values) - lo) / width).astype(np.int64), _HISTOGRAM_BINS - 1)
        return (np.bincount(bins, minlength=_HISTOGRAM_BINS) / len(values)).tolist()

    g_counts = counts(report.genuine_scores)
    i_counts = counts(report.imposter_scores)
    top = max(max(g_counts), max(i_counts), 1e-12)
    parts = _svg_frame("Genuine vs imposter score distribution", "distance", "fraction of pairs")
    bar_w = (_W - _ML - _MR) / _HISTOGRAM_BINS
    for series, color, shift in ((g_counts, "#1f77b4", 0.0), (i_counts, "#d62728", bar_w / 2)):
        for k, frac in enumerate(series):
            if frac == 0:
                continue
            x = _ML + k * bar_w + shift
            h = (frac / top) * (_H - _MT - _MB)
            y = (_H - _MB) - h
            parts.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(bar_w / 2)}" height="{_fmt(h)}" '
                f'fill="{color}" fill-opacity="0.6"/>'
            )
    parts.append(f'<text x="{_W - _MR - 4}" y="{_MT + 16}" text-anchor="end" font-size="12" fill="#1f77b4">genuine</text>')
    parts.append(f'<text x="{_W - _MR - 4}" y="{_MT + 32}" text-anchor="end" font-size="12" fill="#d62728">imposter</text>')
    parts.append("</svg>")
    _write_lines(path, parts)
