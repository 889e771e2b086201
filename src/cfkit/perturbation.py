"""Monte-Carlo perturbation studies of the distance measures.

A trial perturbs the first CFN of a pair to ``<u+eps, v-eps, j>`` (the joint
degree, the sum ``u+v``, and hence the hesitancy are preserved), recomputes
the three distances to the second CFN, and records the absolute deviation of
each from its unperturbed baseline.  Epsilon is drawn uniformly from the
largest admissible interval ``[lo, hi]``: trial ``i`` of a study with seed
``seed`` draws ``np.random.default_rng([seed, i]).uniform(lo, hi)``.  This
counter-derived sub-seed makes results reproducible and independent of
execution order.  ``_draw_epsilons`` reproduces that stream bit for bit for
every trial in one pass over uint32/uint64 arrays (numpy's SeedSequence
mixing, PCG64 seeding and its first XSL-RR output; O'Neill, "PCG: A Family
of Simple Fast Space-Efficient Statistically Good Algorithms for Random
Number Generation", 2014), so no generator is built per trial.

``write_study`` writes a study as CSV.  It lives here, beside
``StudyResult``, so that ``cfkit simulate`` imports neither the solver nor
the score.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import backends
from .cfn import CognitiveFuzzyNumber, _max, _min, validate_rows
from .distance import DistanceParams, cf_h, cf_im, check_lambdas, component_row, order_code
from .errors import EmptyRangeError, OutOfEpsilonRangeError, OutOfRangeError

DEFAULT_SEED = 42
DEFAULT_TRIALS = 100

STUDY_HEADER = (
    "trial", "epsilon", "p", "lambda",
    "d_m", "d_h", "d_c", "delta_d_m", "delta_d_h", "delta_d_c",
)

_BLOCK_ROWS = 4096


def epsilon_bounds(f: CognitiveFuzzyNumber) -> tuple[float, float]:
    """Largest interval of eps for which ``<u+eps, v-eps, j>`` stays valid."""
    lo = max(f.j - f.u, f.v - 1.0)
    hi = min(1.0 - f.u, f.v - f.j)
    if lo > hi + 1e-12:
        raise EmptyRangeError(f"empty perturbation range [{lo!r}, {hi!r}] for {f}")
    return lo, hi


def perturb(f: CognitiveFuzzyNumber, epsilon: float) -> CognitiveFuzzyNumber:
    """Shift membership up and non-membership down by ``epsilon``."""
    lo, hi = epsilon_bounds(f)
    eps = float(epsilon)
    if eps < lo - 1e-12 or eps > hi + 1e-12:
        raise OutOfEpsilonRangeError(
            f"epsilon {epsilon!r} outside admissible interval [{lo:.12g}, {hi:.12g}]"
        )
    eps = min(hi, max(lo, eps))
    return CognitiveFuzzyNumber(f.u + eps, f.v - eps, f.j)


@dataclass(frozen=True)
class PerturbationConfig:
    base_pair: tuple[CognitiveFuzzyNumber, CognitiveFuzzyNumber]
    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED
    p_values: tuple = (1, 2, 3)
    lambda_values: tuple = (0.0, 0.25, 0.5, 0.75, 1.0)

    def __post_init__(self) -> None:
        f1, f2 = self.base_pair
        if not isinstance(f1, CognitiveFuzzyNumber) or not isinstance(f2, CognitiveFuzzyNumber):
            raise OutOfRangeError("base_pair must hold two CognitiveFuzzyNumbers")
        object.__setattr__(self, "base_pair", (f1, f2))
        if not isinstance(self.trials, int) or self.trials < 1:
            raise OutOfRangeError(f"trials must be a positive integer, got {self.trials!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise OutOfRangeError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not self.p_values:
            raise OutOfRangeError("p_values must not be empty")
        for p in self.p_values:
            order_code(p)
        object.__setattr__(self, "p_values", _distinct("p", tuple(self.p_values)))
        if not self.lambda_values:
            raise OutOfRangeError("lambda_values must not be empty")
        # + 0.0 turns -0.0 into 0.0, which is one (p, lambda) cell with it
        lams = tuple(DistanceParams(lam=x).lam + 0.0 for x in self.lambda_values)
        object.__setattr__(self, "lambda_values", _distinct("lambda", lams))


def _distinct(name: str, values: tuple) -> tuple:
    """``values`` unchanged, or ``OutOfRangeError`` naming the first repeated one."""
    seen = set()
    for value in values:
        if value in seen:
            raise OutOfRangeError(f"{name} {value!r} is given more than once")
        seen.add(value)
    return values


class TrialDistances(NamedTuple):
    d_m: float
    d_h: float
    d_c: float
    delta_d_m: float
    delta_d_h: float
    delta_d_c: float


@dataclass(frozen=True)
class TrialRecord:
    index: int
    epsilon: float
    # keyed by (p, lambda)
    cells: dict[tuple, TrialDistances] = field(repr=False)


@dataclass(frozen=True)
class CellSummary:
    mean_delta_m: float
    mean_delta_h: float
    mean_delta_c: float
    max_delta_m: float
    max_delta_h: float
    max_delta_c: float
    n_m_ge_h: int
    n_m_ge_c_ge_h: int


@dataclass(frozen=True, eq=False)
class StudyResult:
    """A study held as arrays over the trials, each distinct column once.

    ``epsilons`` holds the draws, ``d_h`` and ``delta_d_h`` one column for
    the study, ``d_m[p]`` and ``delta_d_m[p]`` one per order, and
    ``d_c[(p, lam)]`` and ``delta_d_c[(p, lam)]`` one per cell or shared
    with ``d_h`` or ``d_m`` (see ``run_study``).  ``columns``, ``records``
    and ``summary`` are views built from them on each access.
    """

    config: PerturbationConfig
    epsilons: np.ndarray
    d_h: np.ndarray
    delta_d_h: np.ndarray
    d_m: dict
    delta_d_m: dict
    d_c: dict[tuple, np.ndarray]
    delta_d_c: dict[tuple, np.ndarray]

    @property
    def columns(self) -> dict[tuple, np.ndarray]:
        """Per (p, lambda) cell, a ``(trials, 6)`` array of the ``TrialDistances`` fields."""
        return {
            (p, lam): np.column_stack([
                self.d_m[p], self.d_h, self.d_c[(p, lam)],
                self.delta_d_m[p], self.delta_d_h, self.delta_d_c[(p, lam)],
            ])
            for p, lam in self.d_c
        }

    @property
    def records(self) -> list[TrialRecord]:
        """One ``TrialRecord`` per trial."""
        columns = self.columns
        cells = np.stack(list(columns.values()), axis=1).tolist()
        return [
            TrialRecord(i, e, {key: TrialDistances(*c) for key, c in zip(columns, row)})
            for i, (e, row) in enumerate(zip(self.epsilons.tolist(), cells))
        ]

    @property
    def summary(self) -> dict[tuple, CellSummary]:
        """One ``CellSummary`` per (p, lambda) cell."""
        summary = {}
        for (p, lam), c in self.delta_d_c.items():
            m, h = self.delta_d_m[p], self.delta_d_h
            summary[(p, lam)] = CellSummary(
                *(float(x.mean()) for x in (m, h, c)), *(float(x.max()) for x in (m, h, c)),
                n_m_ge_h=int(np.count_nonzero(m >= h)),
                n_m_ge_c_ge_h=int(np.count_nonzero((m >= c) & (c >= h))),
            )
        return summary


# numpy's SeedSequence (a pool of four 32-bit words) and PCG64 constants.
# Every constant is a typed numpy integer, so that uint32/uint64 arithmetic
# promotes the same way under numpy 1's value-based casting and NEP 50.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_LOW32, _SHIFT32 = np.uint64(_MASK32), np.uint64(32)
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_PCG_MULT_LO0, _PCG_MULT_LO1 = _PCG_MULT_LO & _LOW32, _PCG_MULT_LO >> _SHIFT32


def _hash_constants(init: int, mult: int):
    """SeedSequence's running hash constant, as (xor word, multiply word) pairs."""
    while True:
        nxt = init * mult & _MASK32
        yield np.uint32(init), np.uint32(nxt)
        init = nxt


def _hashmix(value: np.ndarray, consts) -> np.ndarray:
    xor, mult = next(consts)
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_L * x - _MIX_R * y
    return out ^ (out >> _XSHIFT)


def _seed_state(seed: int, index: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence([seed, i]).generate_state(4, uint64)``, one column per word.

    The entropy is the seed's 32-bit words, least significant first, then
    the index word; every ``i`` must lie below 2**32.  Words that do not
    depend on ``i`` are ``(1,)`` arrays, which broadcast.
    """
    words = [(seed >> s) & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [np.array([w], dtype=np.uint32) for w in words] + [index.astype(np.uint32)]
    consts = _hash_constants(_INIT_A, _MULT_A)
    zero = np.zeros(1, dtype=np.uint32)
    pool = [_hashmix(entropy[k] if k < len(entropy) else zero, consts) for k in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, consts))
    consts = _hash_constants(_INIT_B, _MULT_B)
    state = [_hashmix(pool[k % _POOL_SIZE], consts).astype(np.uint64) for k in range(8)]
    return [state[k] | (state[k + 1] << _SHIFT32) for k in range(0, 8, 2)]


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step on (hi, lo) uint64 halves: ``state * MULT + inc`` mod 2**128."""
    lo0, lo1 = lo & _LOW32, lo >> _SHIFT32
    p01, p10 = lo0 * _PCG_MULT_LO1, lo1 * _PCG_MULT_LO0
    mid = ((lo0 * _PCG_MULT_LO0) >> _SHIFT32) + (p01 & _LOW32) + (p10 & _LOW32)
    carry = lo1 * _PCG_MULT_LO1 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (mid >> _SHIFT32)
    hi = carry + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
    lo = lo * _PCG_MULT_LO + inc_lo
    return hi + inc_hi + (lo < inc_lo).astype(np.uint64), lo


def _draw_epsilons(seed: int, index: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``np.random.default_rng([seed, i]).uniform(lo, hi)`` for every ``i`` in ``index``.

    Each trial has its own counter-derived sub-seed, so parallel and serial
    schedules agree.  numpy's SeedSequence and PCG64 seeding and first draw
    are recomputed on uint32/uint64 arrays, one pass for all trials.
    """
    s_hi, s_lo, q_hi, q_lo = _seed_state(seed, index)
    inc_hi = (q_hi << np.uint64(1)) | (q_lo >> np.uint64(63))
    inc_lo = (q_lo << np.uint64(1)) | np.uint64(1)
    # Seeding: a step from state 0 gives inc; add the seed state; step again.
    lo_word = inc_lo + s_lo
    hi_word = inc_hi + s_hi + (lo_word < inc_lo).astype(np.uint64)
    hi_word, lo_word = _pcg_step(hi_word, lo_word, inc_hi, inc_lo)
    # The first draw: one more step, then the XSL-RR output.
    hi_word, lo_word = _pcg_step(hi_word, lo_word, inc_hi, inc_lo)
    rot = hi_word >> np.uint64(58)
    x = hi_word ^ lo_word
    x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    return lo + (hi - lo) * ((x >> np.uint64(11)).astype(np.float64) * 2.0**-53)


def run_study(config: PerturbationConfig) -> StudyResult:
    """Run the perturbation study described by ``config``.

    Every trial's perturbed CFN is built and checked at once by
    ``validate_rows``, bit for bit as ``perturb`` builds it, and scored
    against the second CFN by broadcasting its one component row.  A cell
    whose combined distances have the bits of ``cf_h`` or ``cf_im``, as at
    lambda 0 and 1 (``0 * x + 1 * y == y``; compared, never assumed),
    stores the ``d_h`` or ``d_m[p]`` arrays and their deltas themselves.
    """
    f1, f2 = config.base_pair
    lo, hi = epsilon_bounds(f1)
    eps = _draw_epsilons(config.seed, np.arange(config.trials), lo, hi)

    e = _min(hi, _max(lo, eps))
    bad, perturbed = validate_rows(np.column_stack([f1.u + e, f1.v - e, np.full(len(e), f1.j)]))
    if bad.any():
        perturb(f1, eps[int(bad.argmax())])  # raises, with the constructor's message

    # The unperturbed first CFN rides along as the last row, so each measure
    # is one kernel call and each combined distance one mix.
    rows = np.vstack([perturbed, component_row(f1)])
    base2 = component_row(f2).reshape(1, 4)

    def split(d):  # the trials' distances, and their deviations from the baseline's
        return d[:-1], np.abs(d[:-1] - d[-1])

    h = backends.cfh_pairwise(rows, base2)
    d_h, delta_h = split(h)
    d_m, delta_m, d_c, delta_c = {}, {}, {}, {}
    for p in config.p_values:
        m = backends.cfim_pairwise(rows, base2, order_code(p))
        d_m[p], delta_m[p] = split(m)
        for lam in config.lambda_values:
            c = backends.mix(lam, m, h)
            if np.array_equal(c.view(np.int64), h.view(np.int64)):
                d_c[(p, lam)], delta_c[(p, lam)] = d_h, delta_h
            elif np.array_equal(c.view(np.int64), m.view(np.int64)):
                d_c[(p, lam)], delta_c[(p, lam)] = d_m[p], delta_m[p]
            else:
                d_c[(p, lam)], delta_c[(p, lam)] = split(c)
    return StudyResult(config, eps, d_h, delta_h, d_m, delta_m, d_c, delta_c)


def write_study(fh, result: StudyResult) -> None:
    """Write a study as ``STUDY_HEADER`` CSV to the open text file ``fh``.

    One row per (trial, p, lambda), in that order, with the bytes
    ``csv.writer`` gives ``(i, epsilon, p, lambda, *cell)`` rows.  Trials go
    out in blocks of about ``_BLOCK_ROWS`` rows, one ``fh.write`` each, so
    the text held at once is bounded by the block.

    A block formats each distinct column object once, with ``repr``:
    ``d_h`` and ``delta_d_h`` for all cells, ``d_m`` and ``delta_d_m`` once
    per p, and ``d_c`` and ``delta_d_c`` once per (p, lambda) unless
    ``run_study`` stored the ``d_h`` or ``d_m`` arrays there.  A block is one
    list of pieces, filled column by column with slice assignment, and one
    ``"".join``.
    """
    p_values, lams = result.config.p_values, result.config.lambda_values
    cells = [(p, lam) for p in p_values for lam in lams]
    columns = [
        (result.d_m[p], result.d_h, result.d_c[(p, lam)],
         result.delta_d_m[p], result.delta_d_h, result.delta_d_c[(p, lam)])
        for p, lam in cells
    ]
    step = max(1, _BLOCK_ROWS // len(cells))
    # A line is 14 pieces: "i,epsilon,", "p,lambda,", then the six
    # distances, each followed by "," or, after the last, "\n".
    width = 14
    stride = len(cells) * width
    template = [","] * (step * stride)
    template[width - 1::width] = ["\n"] * (step * len(cells))
    for k, (p, lam) in enumerate(cells):
        template[k * width + 1::stride] = [f"{p},{lam},"] * step

    fh.write(",".join(STUDY_HEADER) + "\n")
    for start in range(0, len(result.epsilons), step):
        block = slice(start, start + step)
        trial = [f"{i},{e!r}," for i, e in enumerate(result.epsilons[block].tolist(), start)]
        pieces = template[:len(trial) * stride]
        texts = {}
        for k, cell_columns in enumerate(columns):
            pieces[k * width::stride] = trial
            for slot, column in enumerate(cell_columns, start=1):
                text = texts.get(id(column))
                if text is None:
                    text = texts[id(column)] = list(map(repr, column[block].tolist()))
                pieces[k * width + 2 * slot::stride] = text
        fh.write("".join(pieces))


class TrendRow(NamedTuple):
    lam: float
    d_m: float
    d_h: float
    d_c: float


def lambda_trend(pair, p, lambda_grid) -> list[TrendRow]:
    """Distances of a pair as the balance parameter sweeps a grid.

    ``d_m`` and ``d_h`` are constant in lambda; ``d_c`` runs affinely from
    ``d_h`` at lambda 0 to ``d_m`` at lambda 1.
    """
    d_m, d_h = cf_im(*pair, p), cf_h(*pair)
    lams = check_lambdas(lambda_grid)
    d_c = backends.mix(lams, d_m, d_h).tolist()
    return [TrendRow(lam, d_m, d_h, c) for lam, c in zip(lams.tolist(), d_c)]
