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

from .cfn import CognitiveFuzzyNumber
from .distance import check_lambdas, component_rows, order_code
from .pain import legacy_comparison_sweep, sensitivity_sweep
from .perturbation import (
    DEFAULT_SEED,
    PerturbationConfig,
    StudyResult,
    lambda_trend,
    run_study,
    write_study,
)
from .score import scores

DEMO_PAIR = (
    CognitiveFuzzyNumber(0.8, 0.4, 0.32),
    CognitiveFuzzyNumber(0.1, 0.9, 0.09),
)

DEMO_ITEMS = (4, 4, 4, 4, 4, 4, 5)  # sums to 29
DEMO_SIM_SCALE0 = 0.4
DEMO_SIM_SCALE10 = 0.7
DEMO_PATIENT_PAIN = sum(DEMO_ITEMS) / 70.0

FIGURE_FILES = ("fig2.csv", "fig3.csv", "fig4.csv", "fig5.csv", "fig7.csv", "fig8.csv")

PAIN_SWEEP_HEADER = ("mode", "p", "lambda", "j_opt", "s_opt", "gap")


def demo_study(seed: int, lambda_values) -> StudyResult:
    """The fig2/fig4 study: 100 trials of ``DEMO_PAIR`` at p 1, 2 and 3."""
    config = PerturbationConfig(
        base_pair=DEMO_PAIR, trials=100, seed=seed, p_values=(1, 2, 3),
        lambda_values=lambda_values,
    )
    return run_study(config)


def trend_rows(pair, p_values, grid) -> list[tuple]:
    """``(p, lambda, d_m, d_h, d_c)`` of ``pair`` for each p over the lambda grid."""
    return [(p,) + tuple(trend) for p in p_values for trend in lambda_trend(pair, p, grid)]


def fig3_rows() -> list[tuple]:
    return trend_rows(DEMO_PAIR, (1, 2, 3), np.linspace(0.0, 1.0, 101))


def score_rows(fs) -> list[tuple]:
    """``(lambda, p, s(f) for f in fs)`` over lambda 0..1 (101 points) x p 1..10.

    Per p, one ``scores`` call with lambda as a column scores every
    (lambda, f) pair by broadcasting; each value equals scalar ``score`` bit
    for bit.
    """
    lams = check_lambdas(np.linspace(0.0, 1.0, 101))
    rows = component_rows(fs)
    by_p = {p: scores(rows, order_code(p), lams[:, None])[0].tolist() for p in range(1, 11)}
    return [
        (lam, p) + tuple(by_p[p][i]) for i, lam in enumerate(lams.tolist()) for p in range(1, 11)
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
        "fig2.csv": demo_study(seed, (0.5,)),
        "fig3.csv": (("p", "lambda", "d_m", "d_h", "d_c"), fig3_rows()),
        "fig4.csv": demo_study(seed, (0.0, 0.25, 0.5, 0.75, 1.0)),
        "fig5.csv": (("lambda", "p", "s1", "s2"), fig5_rows()),
        "fig7.csv": (PAIN_SWEEP_HEADER, fig7_rows()),
        "fig8.csv": (PAIN_SWEEP_HEADER, fig8_rows()),
    }
    paths = []
    for name in FIGURE_FILES:
        data = datasets[name]
        path = out / name
        with open(path, "w", newline="") as fh:
            if isinstance(data, StudyResult):
                write_study(fh, data)
            else:
                write_csv(fh, *data)
        paths.append(path)
    return paths
