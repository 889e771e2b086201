"""Cognitive fuzzy numbers.

A cognitive fuzzy number (CFN) is a triple ``<u, v, j>`` of membership,
non-membership, and joint degree, where the joint degree measures how much
the membership and non-membership judgements overlap.  From the raw triple
four derived degrees follow:

* true membership      ``u* = u - j``
* true non-membership  ``v* = v - j``
* joint degree         ``j``
* hesitancy            ``h = 1 - u - v + j``

and they always partition the unit: ``u* + v* + j + h = 1``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import JointBoundViolationError, OutOfRangeError

# Inputs violating a bound by at most this much are clamped instead of
# rejected; two-decimal inputs are exact in intent but not in binary floats.
CLAMP_TOL = 1e-9

# Component-wise tolerance for CFN equality.
EQ_TOL = 1e-12

_BRACKET_PAIRS = (("⟨", "⟩"), ("<", ">"), ("(", ")"), ("[", "]"))


def _unit(value: float, name: str) -> float:
    x = float(value)
    if math.isnan(x) or x < -CLAMP_TOL or x > 1.0 + CLAMP_TOL:
        raise OutOfRangeError(f"{name} must lie in [0, 1], got {value!r}")
    return min(1.0, max(0.0, x))


def joint_bounds(u: float, v: float) -> tuple[float, float]:
    """Admissible interval ``[max(0, u+v-1), min(u, v)]`` for the joint degree.

    The lower bound is clamped so the interval is never empty despite
    floating-point rounding of ``u + v - 1``.
    """
    u = _unit(u, "u")
    v = _unit(v, "v")
    hi = min(u, v)
    lo = min(max(0.0, u + v - 1.0), hi)
    return lo, hi


def _max(a, b):
    # Python's max(a, b): a unless b > a.  np.maximum can return -0.0 for
    # max(0.0, -0.0), and the sign of a zero reaches the printed output.
    return np.where(b > a, b, a)


def _min(a, b):
    # Python's min(a, b): a unless b < a.
    return np.where(b < a, b, a)


def validate_rows(triples) -> tuple[np.ndarray, np.ndarray]:
    """Check many raw ``(u, v, j)`` triples at once, as the constructor would.

    ``triples`` is an ``(n, 3)`` float array.  Returns ``(bad, rows)``:
    ``bad[i]`` is true where ``CognitiveFuzzyNumber(*triples[i])`` raises,
    and ``rows[i]`` is the ``(u*, v*, j, h)`` component row of the CFN it
    builds otherwise, bit for bit (rows marked bad hold no meaning).

    This mirrors ``CognitiveFuzzyNumber.__post_init__`` rule for rule: the
    NaN and ``CLAMP_TOL`` range checks, clamping to [0, 1], the joint
    bounds, clamping ``j``, then ``u - j``, ``v - j``, ``j`` and
    ``1.0 - u - v + j`` in that order.  A property test in
    ``tests/test_cfn.py`` holds the two together.  The mask does not say
    which rule a row broke, so error messages come from the constructor.
    """
    t = np.asarray(triples, dtype=np.float64)
    u, v, j = t[:, 0], t[:, 1], t[:, 2]
    bad = np.zeros(len(t), dtype=bool)
    for x in (u, v, j):
        bad |= np.isnan(x) | (x < -CLAMP_TOL) | (x > 1.0 + CLAMP_TOL)
    u, v, j = (_min(1.0, _max(0.0, x)) for x in (u, v, j))
    hi = _min(u, v)
    lo = _min(_max(0.0, u + v - 1.0), hi)
    bad |= (j < lo - CLAMP_TOL) | (j > hi + CLAMP_TOL)
    j = _min(hi, _max(lo, j))
    return bad, np.column_stack([u - j, v - j, j, 1.0 - u - v + j])


@dataclass(frozen=True, eq=False)
class CognitiveFuzzyNumber:
    """Validated CFN triple. Immutable; derived degrees are always recomputed."""

    u: float
    v: float
    j: float

    def __post_init__(self) -> None:
        u = _unit(self.u, "u")
        v = _unit(self.v, "v")
        j = _unit(self.j, "j")
        lo, hi = joint_bounds(u, v)
        if j < lo - CLAMP_TOL or j > hi + CLAMP_TOL:
            raise JointBoundViolationError(
                f"joint degree {self.j!r} outside admissible interval "
                f"[{lo:.12g}, {hi:.12g}] for u={u!r}, v={v!r}"
            )
        j = min(hi, max(lo, j))
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "j", j)

    @property
    def u_star(self) -> float:
        """True membership degree ``u - j``."""
        return self.u - self.j

    @property
    def v_star(self) -> float:
        """True non-membership degree ``v - j``."""
        return self.v - self.j

    @property
    def hesitancy(self) -> float:
        """Hesitancy degree ``1 - u - v + j``."""
        return 1.0 - self.u - self.v + self.j

    def derived(self) -> tuple[float, float, float]:
        """Return ``(u*, v*, h)``."""
        return self.u_star, self.v_star, self.hesitancy

    def to_interval(self) -> "IntervalForm":
        """Interval representation ``[u*, 1 - v*]``."""
        return IntervalForm(self.u_star, 1.0 - self.v_star)

    # -- text / JSON forms ------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "CognitiveFuzzyNumber":
        """Parse ``<u,v,j>`` (any common bracket pair or bare) or a JSON object."""
        s = text.strip()
        if s.startswith("{"):
            return cls.from_dict(json.loads(s))
        for left, right in _BRACKET_PAIRS:
            if s.startswith(left) and s.endswith(right):
                s = s[len(left):-len(right)]
                break
        parts = s.split(",")
        if len(parts) != 3:
            raise ValueError(f"expected three comma-separated degrees, got {text!r}")
        try:
            u, v, j = (float(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"non-numeric degree in {text!r}") from exc
        return cls(u, v, j)

    @classmethod
    def from_dict(cls, data: dict) -> "CognitiveFuzzyNumber":
        try:
            return cls(float(data["u"]), float(data["v"]), float(data["j"]))
        except KeyError as exc:
            raise ValueError(f"missing key {exc} in CFN object") from exc

    def to_dict(self) -> dict:
        return {"u": self.u, "v": self.v, "j": self.j}

    def __str__(self) -> str:
        return f"⟨{self.u:.6g},{self.v:.6g},{self.j:.6g}⟩"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CognitiveFuzzyNumber):
            return NotImplemented
        return (
            abs(self.u - other.u) <= EQ_TOL
            and abs(self.v - other.v) <= EQ_TOL
            and abs(self.j - other.j) <= EQ_TOL
        )

    __hash__ = None  # tolerance-based equality is incompatible with hashing


CFN = CognitiveFuzzyNumber


@dataclass(frozen=True)
class IntervalForm:
    """Closed sub-interval of [0, 1]; the interval representation of a CFN."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo = _unit(self.lo, "lo")
        hi = _unit(self.hi, "hi")
        if lo > hi + CLAMP_TOL:
            raise OutOfRangeError(f"interval bounds out of order: [{lo!r}, {hi!r}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", max(lo, hi))

    @property
    def width(self) -> float:
        return self.hi - self.lo
