import csv
import io

import pytest

from cfkit import CFN, CHEBYSHEV, PerturbationConfig, run_study
from cfkit.figures import _BLOCK_ROWS, STUDY_HEADER, write_study

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


@pytest.mark.parametrize("trials", [BLOCK - 1, BLOCK, BLOCK + 1])
def test_write_study_matches_csv_writer(trials):
    config = PerturbationConfig(
        base_pair=(CFN(0.7, 0.5, 0.2), CFN(0.1, 0.9, 0.09)), trials=trials, seed=3,
        p_values=P_VALUES, lambda_values=LAMBDAS,
    )
    result = run_study(config)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(STUDY_HEADER)
    for record in result.records:
        for p in P_VALUES:
            for lam in LAMBDAS:
                writer.writerow((record.index, record.epsilon, p, lam, *record.cells[(p, lam)]))

    got = CountingIO()
    write_study(got, result)
    assert got.getvalue() == expected.getvalue()
    # the header, then one write per block of trials
    assert got.writes == 1 + -(-trials // BLOCK)
