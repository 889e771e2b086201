import csv
import io

import numpy as np
import pytest

from cfkit import CFN, CHEBYSHEV, DistanceParams, PerturbationConfig, run_study, score
from cfkit.figures import score_rows
from cfkit.perturbation import _BLOCK_ROWS, STUDY_HEADER, write_study

P_VALUES = (1, 64, CHEBYSHEV)
LAMBDAS = (0.0, 0.3, 1.0)
BLOCK = _BLOCK_ROWS // (len(P_VALUES) * len(LAMBDAS))


class CountingIO(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def study(trials):
    config = PerturbationConfig(
        base_pair=(CFN(0.7, 0.5, 0.2), CFN(0.1, 0.9, 0.09)), trials=trials, seed=3,
        p_values=P_VALUES, lambda_values=LAMBDAS,
    )
    return run_study(config)


def csv_writer_text(result):
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(STUDY_HEADER)
    for record in result.records:
        for p in P_VALUES:
            for lam in LAMBDAS:
                writer.writerow((record.index, record.epsilon, p, lam, *record.cells[(p, lam)]))
    return expected.getvalue()


@pytest.mark.parametrize("trials", [BLOCK - 1, BLOCK, BLOCK + 1])
def test_write_study_matches_csv_writer(trials):
    result = study(trials)
    got = CountingIO()
    write_study(got, result)
    assert got.getvalue() == csv_writer_text(result)
    # the header, then one write per block of trials
    assert got.writes == 1 + -(-trials // BLOCK)


@pytest.mark.parametrize("name", ["d_c", "delta_d_c"])
@pytest.mark.parametrize("lam, trial", [(0.0, 0), (1.0, BLOCK + 3)])
def test_write_study_shares_text_only_within_one_array(name, lam, trial):
    """A combined column that is a copy of d_h or d_m one ulp off is written with its own bits."""
    result = study(BLOCK + 5)
    delta = "delta_" if name == "delta_d_c" else ""
    # d_h (delta_d_h) at lambda 0, d_m (delta_d_m) of the cell's p at lambda 1
    base = getattr(result, f"{delta}d_h") if lam == 0.0 else getattr(result, f"{delta}d_m")[64]
    column = getattr(result, name)[(64, lam)] = base.copy()
    column[trial] = np.nextafter(column[trial], np.inf)
    text = csv_writer_text(result)
    assert repr(column[trial].item()) in text
    assert column[trial].item() != base[trial].item()
    got = io.StringIO()
    write_study(got, result)
    assert got.getvalue() == text


def test_score_rows_matches_scalar_score():
    fs = (CFN(0.8, 0.4, 0.32), CFN(0.1, 0.9, 0.09), CFN(0.5, 0.5, 0.0))
    rows = score_rows(fs)
    assert len(rows) == 101 * 10
    for lam, p, *values in rows[::37]:
        assert values == [score(f, DistanceParams(p=p, lam=lam)).s for f in fs]
