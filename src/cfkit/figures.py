"""Bundled demonstration datasets.

``export_figure_datasets`` writes six CSV files (fig2 .. fig8, skipping 6)
from fixed, documented default configurations around two bundled inputs:

* a reference CFN pair used by the distance and perturbation datasets, and
* a reference pain assessment (seven items summing to 29, face similarities
  0.4 and 0.7) used by the solver sweeps.

Given the same seed, the export is byte-identical between runs.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from . import backends
from .cfn import CognitiveFuzzyNumber
from .distance import DistanceParams, component_rows, order_code
from .errors import DegenerateDenominatorError
from .pain import legacy_comparison_sweep, sensitivity_sweep
from .perturbation import (
    DEFAULT_SEED,
    PerturbationConfig,
    StudyResult,
    lambda_trend,
    run_study,
)

DEMO_PAIR = (
    CognitiveFuzzyNumber(0.8, 0.4, 0.32),
    CognitiveFuzzyNumber(0.1, 0.9, 0.09),
)

DEMO_ITEMS = (4, 4, 4, 4, 4, 4, 5)  # sums to 29
DEMO_SIM_SCALE0 = 0.4
DEMO_SIM_SCALE10 = 0.7
DEMO_PATIENT_PAIN = sum(DEMO_ITEMS) / 70.0

FIGURE_FILES = ("fig2.csv", "fig3.csv", "fig4.csv", "fig5.csv", "fig7.csv", "fig8.csv")

STUDY_HEADER = (
    "trial", "epsilon", "p", "lambda",
    "d_m", "d_h", "d_c", "delta_d_m", "delta_d_h", "delta_d_c",
)

PAIN_SWEEP_HEADER = ("mode", "p", "lambda", "j_opt", "s_opt", "gap")


def study_rows(result: StudyResult) -> list[tuple]:
    """Flatten a perturbation study into (trial, p, lambda) CSV rows."""
    keys = [(p, lam) for p in result.config.p_values for lam in result.config.lambda_values]
    cells = np.stack([result.columns[key] for key in keys], axis=1).tolist()
    return [
        (i, e, *key, *cell)
        for i, (e, row) in enumerate(zip(result.epsilons.tolist(), cells))
        for key, cell in zip(keys, row)
    ]


def fig2_rows(seed: int = DEFAULT_SEED) -> list[tuple]:
    config = PerturbationConfig(
        base_pair=DEMO_PAIR, trials=100, seed=seed, p_values=(1, 2, 3), lambda_values=(0.5,)
    )
    return study_rows(run_study(config))


def trend_rows(pair, p_values, grid) -> list[tuple]:
    """``(p, lambda, d_m, d_h, d_c)`` of ``pair`` for each p over the lambda grid."""
    return [(p,) + tuple(trend) for p in p_values for trend in lambda_trend(pair, p, grid)]


def fig3_rows() -> list[tuple]:
    return trend_rows(DEMO_PAIR, (1, 2, 3), np.linspace(0.0, 1.0, 101))


def fig4_rows(seed: int = DEFAULT_SEED) -> list[tuple]:
    config = PerturbationConfig(
        base_pair=DEMO_PAIR,
        trials=100,
        seed=seed,
        p_values=(1, 2, 3),
        lambda_values=(0.0, 0.25, 0.5, 0.75, 1.0),
    )
    return study_rows(run_study(config))


def score_rows(fs) -> list[tuple]:
    """``(lambda, p, s(f) for f in fs)`` over lambda 0..1 (101 points) x p 1..10.

    One kernel call per p scores every (lambda, f) pair, with lambda as a
    per-row array; each value equals scalar ``score`` bit for bit.
    """
    fs = tuple(fs)
    lams = [DistanceParams(lam=float(lam)).lam for lam in np.linspace(0.0, 1.0, 101)]
    rows = np.tile(component_rows(fs), (len(lams), 1))
    lam_col = np.repeat(lams, len(fs))
    scores = {}
    for p in range(1, 11):
        d_worst, d_best = backends.anchor_distances(rows, order_code(p), lam_col)
        denom = d_worst + d_best
        degenerate = denom < 1e-12
        if degenerate.any():
            i = int(degenerate.argmax())
            raise DegenerateDenominatorError(
                f"score normalizer collapsed to {float(denom[i])!r} for {fs[i % len(fs)]}"
            )
        scores[p] = (d_worst / denom).reshape(len(lams), len(fs)).tolist()
    return [
        (lam, p) + tuple(scores[p][i]) for i, lam in enumerate(lams) for p in range(1, 11)
    ]


def fig5_rows() -> list[tuple]:
    return score_rows(DEMO_PAIR)


def pain_sweep_rows(u, v, pain) -> list[tuple]:
    """``PAIN_SWEEP_HEADER`` rows of the solver over p 1..10 x lambda 0..1 (21 points)."""
    rows = sensitivity_sweep(
        u, v, pain, p_list=range(1, 11), lambda_grid=np.linspace(0.0, 1.0, 21)
    )
    return [("cfc",) + tuple(row) for row in rows]


def legacy_sweep_rows(u, v, pain) -> list[tuple]:
    """``PAIN_SWEEP_HEADER`` rows of the hesitancy-blind solver over p 1..10."""
    rows = legacy_comparison_sweep(u, v, pain, p_list=range(1, 11))
    return [("legacy", row.p, None, row.j_opt, row.s_opt, row.gap) for row in rows]


def fig7_rows() -> list[tuple]:
    return pain_sweep_rows(DEMO_SIM_SCALE0, DEMO_SIM_SCALE10, DEMO_PATIENT_PAIN)


def fig8_rows() -> list[tuple]:
    return legacy_sweep_rows(DEMO_SIM_SCALE0, DEMO_SIM_SCALE10, DEMO_PATIENT_PAIN)


def write_csv(fh, header, rows) -> None:
    """Write a header and rows as CSV to the open text file ``fh``."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def export_figure_datasets(out_dir, seed: int = DEFAULT_SEED) -> list[Path]:
    """Write all six datasets into ``out_dir`` and return the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    datasets = {
        "fig2.csv": (STUDY_HEADER, fig2_rows(seed)),
        "fig3.csv": (("p", "lambda", "d_m", "d_h", "d_c"), fig3_rows()),
        "fig4.csv": (STUDY_HEADER, fig4_rows(seed)),
        "fig5.csv": (("lambda", "p", "s1", "s2"), fig5_rows()),
        "fig7.csv": (PAIN_SWEEP_HEADER, fig7_rows()),
        "fig8.csv": (PAIN_SWEEP_HEADER, fig8_rows()),
    }
    paths = []
    for name in FIGURE_FILES:
        header, rows = datasets[name]
        path = out / name
        with open(path, "w", newline="") as fh:
            write_csv(fh, header, rows)
        paths.append(path)
    return paths
