"""Independent reference for the benchmark's output checks.

Written from the formulas in PAPER.md with plain numpy; it imports nothing
from cfkit.  A CFN ``<u, v, j>`` has the components ``u* = u - j``,
``v* = v - j``, ``j`` and ``h = 1 - u - v + j``.

* improved Minkowski ``cf_im``: the order-p norm of the component differences
  (the maximum for the Chebyshev order ``inf``);
* legacy Minkowski: the same over ``(u*, v*, j)`` only;
* Hausdorff ``cf_h = max(|du*|, |dv*|)``;
* combined ``cf_c = lam * cf_im + (1 - lam) * cf_h``;
* score ``s = d(f, <0,1,0>) / (d(f, <0,1,0>) + d(f, <1,0,0>))``;
* admissible ``j`` in ``[max(0, u+v-1), min(u, v)]``;
* admissible perturbation ``eps`` in ``[max(j-u, v-1), min(1-u, v-j)]``.

Each checker adds the operations that fail to a ``Failures`` tally.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# Relative tolerance between the program and the reference, which may order
# floating-point operations differently.
REL_TOL = 1e-9
# Absolute slack for values that should sit inside an interval.
BOUND_TOL = 1e-12
# Points of the independent grid scan that the solver's optimum must match.
SCAN_POINTS = 2001

INF = math.inf

# The bundled demonstration inputs of the figure datasets.
DEMO_PAIR = ((0.8, 0.4, 0.32), (0.1, 0.9, 0.09))
DEMO_SIMS = (0.4, 0.7)
DEMO_PATIENT_PAIN = 29 / 70.0
# Default confusion threshold of the recommendation.
THRESHOLD = 0.9


def components(u, v, j):
    u, v, j = (np.asarray(x, dtype=np.float64) for x in (u, v, j))
    return np.stack(np.broadcast_arrays(u - j, v - j, j, 1.0 - u - v + j), axis=-1)


WORST = components(0.0, 1.0, 0.0)
BEST = components(1.0, 0.0, 0.0)


def _norm(diff, p):
    if p == INF:
        return diff.max(axis=-1)
    return (diff ** p).sum(axis=-1) ** (1.0 / p)


def cf_im(a, b, p):
    return _norm(np.abs(a - b), p)


def legacy(a, b, p):
    return _norm(np.abs(a - b)[..., :3], p)


def cf_h(a, b):
    d = np.abs(a - b)
    return np.maximum(d[..., 0], d[..., 1])


def cf_c(a, b, p, lam):
    return lam * cf_im(a, b, p) + (1.0 - lam) * cf_h(a, b)


def score(c, p, lam):
    d_worst = cf_c(c, WORST, p, lam)
    return d_worst / (d_worst + cf_c(c, BEST, p, lam))


def legacy_score(c, p):
    d_worst = legacy(c, WORST, p)
    return d_worst / (d_worst + legacy(c, BEST, p))


def joint_bounds(u, v):
    return max(0.0, u + v - 1.0), min(u, v)


def close(x, ref, rel=REL_TOL):
    return np.abs(np.asarray(x) - ref) <= rel * np.maximum(np.abs(ref), 1e-3)


class Failures:
    """Counts failed operations and keeps the first few messages."""

    def __init__(self):
        self.count = 0
        self.messages = []

    def add(self, n, message):
        n = int(n)
        if n:
            self.count += n
            if len(self.messages) < 8:
                self.messages.append(message)


def _order(text):
    return INF if text in ("inf", "Infinity") else int(text)


# ---------------------------------------------------------------------------
# batch-distance
# ---------------------------------------------------------------------------

def check_batch(pairs, text, p, lam, fails):
    """Each line is the combined distance of its row, printed with six decimals."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if len(lines) != len(pairs):
        fails.add(len(pairs), f"{len(lines)} lines for {len(pairs)} rows")
        return
    ref = cf_c(components(*pairs[:, :3].T), components(*pairs[:, 3:].T), p, lam).tolist()
    # A line must equal the reference rounded to six decimals, allowing the
    # reference to move by a relative 1e-12 before rounding.
    bad = [
        k for k, (line, r) in enumerate(zip(lines, ref))
        if line not in (f"{r:.6f}", f"{r * (1 - 1e-12):.6f}", f"{r * (1 + 1e-12):.6f}")
    ]
    if bad:
        k = bad[0]
        fails.add(len(bad), f"batch: {len(bad)} lines differ from the reference; "
                            f"first row {k}: got {lines[k]!r}, reference {ref[k]!r}")


# ---------------------------------------------------------------------------
# pain solutions (pain-clinic and fig7/fig8)
# ---------------------------------------------------------------------------

def _check_optimum(u, v, patient_pain, j_opt, s_opt, curve):
    """Return a failure reason for one solved assessment, or None."""
    lo, hi = joint_bounds(u, v)
    if not lo - BOUND_TOL <= j_opt <= hi + BOUND_TOL:
        return f"j_opt {j_opt!r} outside [{lo!r}, {hi!r}]"
    s_ref = float(curve(np.array([j_opt]))[0])
    if not close(s_opt, s_ref):
        return f"s_opt {s_opt!r} but reference score at j_opt is {s_ref!r}"
    target = 1.0 - patient_pain
    scan = curve(np.linspace(lo, hi, SCAN_POINTS))
    best = float(((target - scan) ** 2).min())
    if (target - s_opt) ** 2 > best + BOUND_TOL:
        return f"squared gap {(target - s_opt) ** 2!r} worse than grid scan {best!r}"
    return None


def _combined_curve(u, v, p, lam):
    return lambda j: score(components(u, v, j), p, lam)


def _legacy_curve(u, v, p):
    return lambda j: legacy_score(components(u, v, j), p)


def check_clinic(stream, text, fails):
    """One line per assessment: j_opt, s_opt, confusion, recommendation, final score."""
    lines = text.split("\n")[:-1]
    if len(lines) != len(stream):
        fails.add(len(stream), f"{len(lines)} result lines for {len(stream)} assessments")
        return
    for k, (a, line) in enumerate(zip(stream, lines)):
        j_opt, s_opt, confusion, recommendation, final = line.split(",")
        j_opt, s_opt, confusion, final = map(float, (j_opt, s_opt, confusion, final))
        u, v = a["u"], a["v"]
        pain = sum(a["items"]) / 70.0
        p = INF if a["p"] == "inf" else a["p"]
        reason = _check_optimum(u, v, pain, j_opt, s_opt, _combined_curve(u, v, p, a["lambda"]))
        lo, hi = joint_bounds(u, v)
        ref_conf = 0.0 if hi - lo <= 0.0 else min(1.0, max(0.0, (j_opt - lo) / (hi - lo)))
        ref_rec = "second_nurse_suggested" if ref_conf >= THRESHOLD else "accept_nurse_score"
        if reason is None and not close(confusion, ref_conf):
            reason = f"confusion {confusion!r}, reference {ref_conf!r}"
        if reason is None and recommendation != ref_rec:
            reason = f"recommendation {recommendation!r}, reference {ref_rec!r}"
        if reason is None and final != max(1.0 - s_opt, pain):
            reason = f"final pain score {final!r}, reference {max(1.0 - s_opt, pain)!r}"
        if reason:
            fails.add(1, f"assessment {k}: {reason}")


# ---------------------------------------------------------------------------
# perturbation studies (simulate-study and fig2/fig4)
# ---------------------------------------------------------------------------

def check_study(pair, trials, p_values, lambdas, text, fails, label="study"):
    """Rows ``trial, epsilon, p, lambda, d_m, d_h, d_c, delta_d_m, delta_d_h, delta_d_c``."""
    expected = trials * len(p_values) * len(lambdas)
    body = text.split("\n", 1)[1] if "\n" in text else ""
    try:
        rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    except ValueError as exc:
        fails.add(expected, f"{label}: unreadable CSV ({exc})")
        return
    if rows.shape != (expected, 10):
        fails.add(expected, f"{label}: shape {rows.shape}, expected ({expected}, 10)")
        return
    trial, eps, p, lam, d_m, d_h, d_c, dd_m, dd_h, dd_c = rows.T
    cells = [(pv, lv) for pv in p_values for lv in lambdas]
    layout = (
        (trial == np.repeat(np.arange(trials), len(cells)))
        & (p == np.tile([c[0] for c in cells], trials))
        & (lam == np.tile([c[1] for c in cells], trials))
    )
    (u1, v1, j1), f2 = pair
    eps_lo, eps_hi = max(j1 - u1, v1 - 1.0), min(1.0 - u1, v1 - j1)
    in_range = (eps >= eps_lo - BOUND_TOL) & (eps <= eps_hi + BOUND_TOL)
    a = components(u1 + eps, v1 - eps, j1)
    b = components(*f2)
    a0 = components(u1, v1, j1)
    ref_h = cf_h(a, b)
    ref_m = np.empty_like(d_m)
    ref_m0 = np.empty_like(d_m)
    for pv in p_values:
        sel = p == pv
        ref_m[sel] = cf_im(a[sel], b, pv)
        ref_m0[sel] = cf_im(a0, b, pv)
    ref_h0 = cf_h(a0, b)
    combined = close(d_c, lam * d_m + (1.0 - lam) * d_h, rel=1e-12)
    ok = (
        layout & in_range & combined & close(d_m, ref_m) & close(d_h, ref_h)
        & close(dd_m, np.abs(ref_m - ref_m0), rel=1e-6)
        & close(dd_h, np.abs(ref_h - ref_h0), rel=1e-6)
        & close(dd_c, np.abs(d_c - (lam * ref_m0 + (1.0 - lam) * ref_h0)), rel=1e-6)
    )
    bad = int((~ok).sum())
    if bad:
        k = int(np.flatnonzero(~ok)[0])
        fails.add(bad, f"{label}: {bad} rows fail; first row {k}: {rows[k].tolist()} "
                       f"(layout {bool(layout[k])}, epsilon in range {bool(in_range[k])}, "
                       f"d_c combination {bool(combined[k])})")


# ---------------------------------------------------------------------------
# paper-figures
# ---------------------------------------------------------------------------

# Data rows of fig2, fig3, fig4, fig5, fig7 and fig8.
FIGURE_ROWS = 300 + 303 + 1500 + 1010 + 210 + 10


def _data_rows(texts, name, expected, fails):
    rows = list(csv.reader(io.StringIO(texts[name])))[1:]
    if len(rows) != expected:
        fails.add(abs(expected - len(rows)), f"{name}: {len(rows)} rows, expected {expected}")
    return rows


def check_figures(texts, fails):
    """Check every data row of the six figure files."""
    f1, f2 = (components(*f) for f in DEMO_PAIR)

    for name, lambdas in (("fig2.csv", (0.5,)), ("fig4.csv", (0.0, 0.25, 0.5, 0.75, 1.0))):
        check_study(DEMO_PAIR, 100, (1, 2, 3), lambdas, texts[name], fails, label=name)

    bad = 0
    for p, lam, d_m, d_h, d_c in _data_rows(texts, "fig3.csv", 303, fails):
        p, lam, d_m, d_h, d_c = int(p), float(lam), float(d_m), float(d_h), float(d_c)
        ref_m, ref_h = float(cf_im(f1, f2, p)), float(cf_h(f1, f2))
        bad += not (close(d_m, ref_m) and close(d_h, ref_h)
                    and close(d_c, lam * ref_m + (1.0 - lam) * ref_h))
    fails.add(bad, f"fig3.csv: {bad} trend rows differ from the reference")

    rows = _data_rows(texts, "fig5.csv", 1010, fails)
    data = np.array([[float(x) for x in row] for row in rows]).reshape(-1, 4)
    ok = np.ones(len(data), dtype=bool)
    for p in np.unique(data[:, 1]):
        sel = data[:, 1] == p
        lam = data[sel, 0]
        ok[sel] = (close(data[sel, 2], score(f1, int(p), lam))
                   & close(data[sel, 3], score(f2, int(p), lam)))
    fails.add(int((~ok).sum()), f"fig5.csv: {int((~ok).sum())} scores differ from the reference")

    u, v = DEMO_SIMS
    target = 1.0 - DEMO_PATIENT_PAIN
    for name, legacy_mode, expected in (("fig7.csv", False, 210), ("fig8.csv", True, 10)):
        for mode, p, lam, j_opt, s_opt, gap in _data_rows(texts, name, expected, fails):
            p, j_opt, s_opt, gap = _order(p), float(j_opt), float(s_opt), float(gap)
            curve = _legacy_curve(u, v, p) if legacy_mode else _combined_curve(u, v, p, float(lam))
            reason = _check_optimum(u, v, DEMO_PATIENT_PAIN, j_opt, s_opt, curve)
            if reason is None and gap != target - s_opt:
                reason = f"gap {gap!r}, reference {target - s_opt!r}"
            if reason:
                fails.add(1, f"{name} p={p} lambda={lam}: {reason}")
