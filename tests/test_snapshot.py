"""Byte-level golden snapshot of the CLI's outputs.

Each case pins the sha256 of exact output bytes, so a refactor that moves
any digit of any output fails here even where the acceptance tolerances
would still pass.  A deliberate output change updates the digest and says
so in CHANGES.md.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from cfkit import (
    CHEBYSHEV,
    DistanceParams,
    joint_bounds,
    legacy_comparison_sweep,
    normalize_patient_score,
    pain,
    sensitivity_sweep,
    solve_programming1,
)
from cfkit.cli import main
from cfkit.figures import fig7_rows, fig8_rows

FIXTURES = Path(__file__).parent / "fixtures"
DEMO_PAIR = ("0.8,0.4,0.32", "0.1,0.9,0.09")
EDGE_PAIR = ("0.7,0.5,0.2", "0.3,0.6,0.3")

FIGURE_SHA256 = {
    "fig2.csv": "de6ddd39efbe9df7311ddcf517f78ee6c79e64cf78140a1864ad6c1fddb8f87a",
    "fig3.csv": "40644ffdbdb815883a1c6853e8cbaffa947f1afdcd6ee7341f366584a6e23ed1",
    "fig4.csv": "4fdd0a08ae6332f3686b880dda7ce32e1cf3c43870bf4a65523833eefc7a9945",
    "fig5.csv": "2d59afb2890b1cd07d6cc89fab1243c27e0b42a746fcfbfcb148ae4fc130940c",
    "fig7.csv": "5389d38433f515d2a83ad8830b91a4ef80f663a16036b1c409a1719394ec7a88",
    "fig8.csv": "e3ddd7e81ccb9e614144f31c17148b61bfac02fc6bd0e31e7343bd2e3e7762eb",
}

STDOUT_SHA256 = {
    "score": (
        ("score", "--json", "--p", "3", "--lambda", "0.3", "0.8,0.4,0.32"),
        "22b3a71bbbc6bb2a29319211ca30fb3a3a2a1cadaaf66f6e847b90403cf1e7ce",
    ),
    "pain-eval": (
        ("pain-eval", "--input", str(FIXTURES / "assessment.json")),
        "1f98166d0ebe72fb0b9f0812c1a54aaf1d24373e11c621a7db0eb709da7f7779",
    ),
    # A second assessment: Chebyshev order, optimum on the lower joint bound.
    "pain-eval-cheb": (
        ("pain-eval", "--input", str(FIXTURES / "assessment_cheb.json")),
        "18781671c63d8042b4b594e1dfe0fa1a9a95afb9a4b11231d3a3a4f3c729ed46",
    ),
    # p=64 next to the best anchor: every scored row's best-anchor power sum
    # underflows, so the solver scores through the max-scaled rescue.
    "pain-eval-anchor-p64": (
        ("pain-eval", "--input", str(FIXTURES / "assessment_anchor.json")),
        "98f0ac905ebf9c228404c9b290eacc16c9e7d36b022594172ab46c1141ca391e",
    ),
    # Optimum on the upper joint bound at p=3; in its sweep 56 of 210 cells
    # end on the bound and 154 inside, so cells finish refining in different
    # rounds.
    "pain-eval-mixed": (
        ("pain-eval", "--input", str(FIXTURES / "assessment_mixed.json")),
        "59d9033b945a59eb80d479fccafb11d4fb41ccdd2f251b50e6ffea8860bb734e",
    ),
    "pain-eval-mixed-sweep": (
        ("pain-eval", "--sweep", "--input", str(FIXTURES / "assessment_mixed.json")),
        "a3c41063953b4aba04dc328480202ae62fbe1e6c2720a5f92e39c8eabfb7296a",
    ),
    "pain-eval-cheb-sweep": (
        ("pain-eval", "--sweep", "--input", str(FIXTURES / "assessment_cheb.json")),
        "ab35f7dc1aeb0f1cd1d118e3a19ffd8cd2d92d4c427c92f6e919a629c741ba99",
    ),
    "pain-eval-cheb-legacy-sweep": (
        ("pain-eval", "--legacy-sweep", "--input", str(FIXTURES / "assessment_cheb.json")),
        "eb9f7344b1899b12b318c54faa2702a700bf771a7a71c546ab8fc7390eb6edb3",
    ),
    "distance-batch": (
        ("distance", "--measure", "c", "--p", "3", "--lambda", "0.5",
         "--batch", str(FIXTURES / "pairs.csv")),
        "c21ae25e16afcdbdc77214f756faed7ffd7dd1e5b4490e696ac3d960804e3231",
    ),
    "distance-batch-im-p64": (
        ("distance", "--measure", "im", "--p", "64",
         "--batch", str(FIXTURES / "pairs.csv")),
        "e4430b139da50ddfa5dc1306a9fb3fa18600453479b2b5605d633392b2a82ea7",
    ),
    "distance-batch-legacy-inf": (
        ("distance", "--measure", "legacy", "--p", "inf",
         "--batch", str(FIXTURES / "pairs.csv")),
        "242f07dcc8861acaa3d9a0628718fcd1a296aa260c0c032bc5d6d85bad6b66dc",
    ),
    "distance-batch-h": (
        ("distance", "--measure", "h", "--batch", str(FIXTURES / "pairs.csv")),
        "242f07dcc8861acaa3d9a0628718fcd1a296aa260c0c032bc5d6d85bad6b66dc",
    ),
    # Input that float() reads and a plain decimal parser does not: quoted
    # fields, spaces, underscores, CRLF, a lone CR, blank lines, +.5, -0.0,
    # subnormals and no final newline.
    "distance-batch-awkward": (
        ("distance", "--measure", "c", "--p", "3", "--lambda", "0.5",
         "--batch", str(FIXTURES / "pairs_awkward.csv")),
        "93ee1dca070679a235181d3e4b658d57a324fbc76d085659709b5a9d63f246ce",
    ),
    "simulate": (
        ("simulate", "--pair", *DEMO_PAIR, "--trials", "20", "--seed", "42"),
        "07bb7c192226262050e45c9cc43e96da0109e108dc3c837552cbb44ced72cd83",
    ),
    # An edge pair: the first CFN on its lower joint bound, the second on its upper.
    "simulate-edge-inf-p64": (
        ("simulate", "--pair", *EDGE_PAIR, "--trials", "20", "--seed", "42",
         "--p", "inf", "--p", "64"),
        "fc5426889cc030442a366c2fb92aedb4e16c3d1ed5e6e4b583cc459dd1185acf",
    ),
    # 2,500 trials span several study-writer blocks; this seed has two 32-bit words.
    "simulate-2500-two-word-seed": (
        ("simulate", "--pair", *DEMO_PAIR, "--trials", "2500", "--seed", "1099511627779",
         "--p", "1", "--p", "inf", "--lambda", "0", "--lambda", "0.3"),
        "b86d6709e8a6e6d775aa6542c9f01f23fe67f39d6003f45b76e30ac02c392867",
    ),
    "simulate-2500-seed0": (
        ("simulate", "--pair", *DEMO_PAIR, "--trials", "2500", "--seed", "0",
         "--p", "1", "--p", "inf", "--lambda", "0", "--lambda", "0.3"),
        "5867c2e40007a53bd783577b7eae793b7b2250fe5ccdcad85e4841b39712d2ec",
    ),
    "sweep-edge-p1-inf": (
        ("sweep", "--p", "1", "--p", "inf", *EDGE_PAIR),
        "215377e7c17eb822f1b8d458ca2f981f70f6b6e2e54bad420867473941fa07e0",
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_export_figures(tmp_path, capsys):
    assert main(["export-figures", str(tmp_path), "--seed", "42"]) == 0
    capsys.readouterr()
    digests = {name: _sha256((tmp_path / name).read_bytes()) for name in FIGURE_SHA256}
    assert digests == FIGURE_SHA256


@pytest.mark.parametrize("case", sorted(STDOUT_SHA256))
def test_stdout(case, capsysbinary):
    argv, expected = STDOUT_SHA256[case]
    assert main(list(argv)) == 0
    assert _sha256(capsysbinary.readouterr().out) == expected


# sha256 over repr of SOLVER_CASES seeded pain._solve results, then
# fig7_rows() and fig8_rows().
SOLVER_SHA256 = "460acabe849e8369d08680966c6e72e0c7c8f68e1db2982db9df9b3ef8e39586"
SOLVER_CASES = 300


def _solver_case(rng, i):
    """The ``i``-th seeded ``_solve`` argument tuple.

    The cases run through p codes 0..64 (Chebyshev and 1..64), 1, 2, 11 and
    21 lambdas and blind both ways, on free, zero-width, near-equal and
    near-anchor similarities.
    """
    kind = i % 5
    if kind == 0:  # zero width: one similarity at 0 or 1
        u, v = rng.random(2)
        u, v = [(0.0, v), (u, 1.0), (1.0, v), (u, 0.0)][i // 5 % 4]
    elif kind == 1:  # near-equal
        u = rng.random()
        v = min(1.0, u + float(rng.choice([0.0, 1e-12, 1e-6])))
    elif kind == 2:  # near an anchor
        eps = 10.0 ** -rng.integers(1, 9)
        u, v = (1.0 - eps * rng.random(), eps * rng.random())
        if i // 5 % 2:
            u, v = v, u
    else:
        u, v = rng.random(2)
    j_lo, j_hi = joint_bounds(u, v)
    target = 1.0 - rng.integers(0, 71) / 70.0
    lams = rng.permutation(np.linspace(0.0, 1.0, [1, 2, 11, 21][i % 4]))
    if len(lams) == 1:
        lams = rng.random(1)
    return u, v, j_lo, j_hi, target, i % 65, lams, bool(i // 65 % 2)


def test_solver_digest():
    rng = np.random.default_rng(20261019)
    h = hashlib.sha256()
    for i in range(SOLVER_CASES):
        h.update(repr(pain._solve(*_solver_case(rng, i))).encode())
    h.update(repr(fig7_rows()).encode())
    h.update(repr(fig8_rows()).encode())
    assert h.hexdigest() == SOLVER_SHA256


# sha256 over repr of CLINIC_SOLVES seeded clinic-like solve_programming1
# results, then of sensitivity_sweep and legacy_comparison_sweep at each
# pair of CLINIC_SWEEPS.
CLINIC_SHA256 = "6d1219d5bce6f9d698d5e112301788f0bc70a7fd10762d1b00e221fbbdbb8c80"
CLINIC_SOLVES = 2000
CLINIC_ORDERS = [*range(1, 11), CHEBYSHEV]
# An optimum on a bound, a mixed sweep, a near tie, all ties and an interval
# two ulps wide.
CLINIC_SWEEPS = [(0.07, 0.86), (0.3, 0.6), (0.3, 0.3 + 1e-12), (0.3, 0.3),
                 (1.0, 0.2991984594656608)]


def test_clinic_digest():
    rng = np.random.default_rng(20261020)
    h = hashlib.sha256()
    for _ in range(CLINIC_SOLVES):
        u, v = rng.random(2).tolist()
        if rng.random() < 0.08:  # a zero-width interval
            u = float(rng.integers(0, 2))
        p = CLINIC_ORDERS[rng.integers(0, len(CLINIC_ORDERS))]
        params = DistanceParams(p=p, lam=rng.integers(0, 21) / 20)
        patient_pain = normalize_patient_score(rng.integers(0, 11, 7).tolist())
        h.update(repr(solve_programming1(u, v, patient_pain, params)).encode())
    lams = np.linspace(0.0, 1.0, 21)
    for u, v in CLINIC_SWEEPS:
        h.update(repr(sensitivity_sweep(u, v, 0.4, CLINIC_ORDERS, lams)).encode())
        h.update(repr(legacy_comparison_sweep(u, v, 0.4, CLINIC_ORDERS)).encode())
    assert h.hexdigest() == CLINIC_SHA256
