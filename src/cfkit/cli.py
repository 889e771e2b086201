"""Command-line interface.

Subcommands: distance, score, simulate, pain-eval, sweep, export-figures.
Plain output prints numbers with six decimals; CSV and JSON carry full
precision.  Data goes to stdout or --out; errors go to stderr as one JSON
line, ``{"error", "message"}``, plus ``where`` where the place at fault is
known (the file, and for a batch row its line and its field or CFN, for a
``pain-eval --input`` file the JSON line or key at fault); the process exits
nonzero on failure.

Each runner imports the modules its command needs, so ``distance`` loads
only ``cfn``, ``distance``, ``backends`` and ``errors`` of cfkit.

``distance --batch`` reads its file in blocks of lines, each parsed with one
``np.loadtxt`` call, validated and scored with one kernel call per measure,
so memory is bounded by the block, not the file.  At the first block that
``np.loadtxt`` cannot read as plain rows of six numbers, or that holds an
invalid CFN, that block and the rest of the file are read row by row with
``csv.reader`` and ``float()``.  That path alone reads what only ``float()``
accepts (quoted fields, underscores, non-ASCII digits) and writes every
error message and line number.  The file is read once, from start to end,
so a pipe or FIFO reads as a regular file does.  Output is written only
after the last block, so a file with a bad row writes nothing.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from array import array
from contextlib import nullcontext
from itertools import chain, islice

import numpy as np

from .cfn import CognitiveFuzzyNumber, validate_rows
from .distance import MEASURES, DistanceParams, component_rows, pairwise, parse_order
from .errors import CfkitError

SEED_ENV = "CFKIT_SEED"


def _seed(args) -> int:
    """``--seed`` if given, else ``CFKIT_SEED`` if set, else the default seed."""
    if args.seed is not None:
        return args.seed
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        from .perturbation import DEFAULT_SEED

        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{SEED_ENV} must be an integer, got {raw!r}") from exc


def _cfn(text: str) -> CognitiveFuzzyNumber:
    return CognitiveFuzzyNumber.parse(text)


def _open_out(path):
    return open(path, "w", newline="") if path else nullcontext(sys.stdout)


def _write_rows(path, header, rows) -> None:
    from .figures import write_csv

    with _open_out(path) as fh:
        write_csv(fh, header, rows)


_BATCH_FIELDS = ("u1", "v1", "j1", "u2", "v2", "j2")

# Lines (read in bulk) or rows (read row by row) taken before they are
# validated and scored, so that memory is bounded by one block and not by
# the file.
_BLOCK = 8192

# The lines that csv.reader reads as no row.
_BLANK = ("\n", "\r\n", "\r")

# np.loadtxt strips from each field every character that str.isspace()
# accepts; float() strips the same ones except these four ASCII separators.
_LOADTXT_ONLY_SPACE = ("\x1c", "\x1d", "\x1e", "\x1f")


def _batch_where(row) -> str | None:
    """The name of the first field of a six-field batch row that is not a number."""
    for name, cell in zip(_BATCH_FIELDS, row):
        try:
            float(cell)
        except ValueError:
            return name


def _located(kind, message, **where):
    """A ``kind`` error with ``message`` and the ``where`` of the CLI's JSON error.

    ``where`` names the place at fault: ``file``, ``line``, and ``field`` or
    ``cfn`` (the three fields of the CFN) where known.
    """
    exc = kind(message)
    exc.where = where
    return exc


def _validate_block(values):
    """``validate_rows`` of the first and of the second CFN of each six-value row."""
    return validate_rows(values[:, :3]), validate_rows(values[:, 3:])


def _block_rows(path, values, line_nums) -> tuple[np.ndarray, np.ndarray]:
    """Validate a block of parsed batch rows; return its two CFNs' component rows.

    ``values`` holds six floats per row and ``line_nums`` the file line of
    each row.  The first invalid row is raised by the constructor itself, so
    each error message is written in one place.
    """
    block = np.frombuffer(values, dtype=np.float64).reshape(-1, 6)
    (bad1, a), (bad2, b) = _validate_block(block)
    bad = bad1 | bad2
    if bad.any():
        i = int(bad.argmax())
        if bad1[i]:
            which, fields, triple = "first", _BATCH_FIELDS[:3], block[i, :3]
        else:
            which, fields, triple = "second", _BATCH_FIELDS[3:], block[i, 3:]
        cfn, line = ",".join(fields), line_nums[i]
        try:
            CognitiveFuzzyNumber(*triple.tolist())
        except ValueError as exc:
            message = f"{path} line {line}, {which} CFN {cfn}: {exc}"
            raise _located(type(exc), message, file=path, line=line, cfn=cfn) from exc
    return a, b


def _distance_lines(measure, params, a, b) -> str:
    """The ``--measure`` distances between component rows ``a`` and ``b``, one line each."""
    return "\n".join(map("{:.6f}".format, pairwise(measure, a, b, params).tolist()))


def _bulk_values(lines):
    """The ``(n, 6)`` values of a block of batch-file lines, read by one ``np.loadtxt`` call.

    ``n`` is the number of lines that are not blank.  Returns None, which
    leaves the block to the csv path, unless every one of them is six
    numbers that ``csv.reader`` and ``float()`` read to the same values,
    bit for bit.
    """
    n = len(lines) - sum(map(lines.count, _BLANK))
    if n == 0:
        return np.empty((0, 6))  # np.loadtxt warns on input without rows
    text = "".join(lines)
    if any(c in text for c in _LOADTXT_ONLY_SPACE):
        return None
    if max(map(len, lines)) > csv.field_size_limit():
        return None  # csv.reader may refuse one of its fields
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
    except ValueError:
        return None
    return values if values.shape == (n, 6) else None


def _bulk_block(lines):
    """The two CFNs' component rows of a block of batch-file lines read in bulk.

    None if ``_bulk_values`` cannot read the block or a row holds an invalid
    CFN: the csv path then reads it, and reports the error.
    """
    values = _bulk_values(lines)
    if values is None:
        return None
    (bad1, a), (bad2, b) = _validate_block(values)
    return None if bad1.any() or bad2.any() else (a, b)


def _read_lines(fh):
    """The next block of lines of ``fh``, and the decode error that ended it, if any.

    On such an error the block holds the lines decoded before it, so that
    the csv path meets the error where a row-by-row read of the file meets
    it, after any bad row that such a read reports first.
    """
    lines = []
    try:
        for line in islice(fh, _BLOCK):
            lines.append(line)
    except UnicodeDecodeError as exc:
        return lines, exc
    return lines, None


def _fail(exc):
    """An iterator that raises ``exc`` when first advanced."""
    raise exc
    yield


def _batch_blocks(path, measure, params):
    """Distance lines of the batch file ``path``, one string per block of rows.

    The file is read once, from start to end, so a pipe or FIFO reads as a
    regular file does.
    """
    skip = rows = 0  # lines and rows read in bulk
    with open(path, newline="") as fh:
        while True:
            lines, error = _read_lines(fh)
            if not lines and error is None:
                return  # the whole file was read in bulk
            pair = None if error else _bulk_block(lines)
            if pair is None:
                break
            if len(pair[0]):
                yield _distance_lines(measure, params, *pair)
            skip += len(lines)
            rows += len(pair[0])
        rest = fh if error is None else _fail(error)
        yield from _csv_blocks(path, chain(lines, rest), skip, rows, measure, params)


def _csv_blocks(path, lines, skip, rows, measure, params):
    """``_batch_blocks`` of ``lines``, read row by row with ``csv.reader``.

    ``lines`` follow the first ``skip`` lines of the file, which hold
    ``rows`` valid rows.  Blocks end every ``_BLOCK`` rows counted from the
    start of the file, as if the whole file had been read row by row.
    """
    values, line_nums = array("d"), array("q")
    size = _BLOCK - rows % _BLOCK
    reader = csv.reader(lines)
    try:
        for row in reader:
            if not row:
                continue
            line = skip + reader.line_num
            try:
                if len(row) != 6:
                    raise ValueError(
                        f"expected 6 fields {','.join(_BATCH_FIELDS)}, got {len(row)}"
                    )
                values.extend([float(x) for x in row])
            except ValueError as exc:
                _block_rows(path, values, line_nums)  # an earlier bad row comes first
                name = _batch_where(row) if len(row) == 6 else None
                field = {"field": name} if name else {}
                text = f", field {name}" if name else ""
                message = f"{path} line {line}{text}: {exc}"
                raise _located(type(exc), message, file=path, line=line, **field) from exc
            line_nums.append(line)
            if len(line_nums) == size:
                yield _distance_lines(measure, params, *_block_rows(path, values, line_nums))
                values, line_nums, size = array("d"), array("q"), _BLOCK
    except csv.Error as exc:
        # a line the reader cannot split, such as a field over csv.field_size_limit()
        _block_rows(path, values, line_nums)
        line = skip + reader.line_num
        raise _located(ValueError, f"{path} line {line}: {exc}", file=path, line=line) from exc
    except UnicodeDecodeError as exc:  # the decoder reads ahead, so no line is known
        exc.where = {"file": path}
        raise
    if line_nums:
        yield _distance_lines(measure, params, *_block_rows(path, values, line_nums))


# ---------------------------------------------------------------------------
# subcommand runners
# ---------------------------------------------------------------------------

def _run_distance(args) -> int:
    params = DistanceParams(p=args.p, lam=args.lam)
    if args.batch:
        # joined only after the last block, so a failing file writes nothing
        text = "\n".join(_batch_blocks(args.batch, args.measure, params)) + "\n"
    elif args.f1 is not None and args.f2 is not None:
        a, b = component_rows([args.f1]), component_rows([args.f2])
        text = _distance_lines(args.measure, params, a, b) + "\n"
    else:
        raise ValueError("distance needs two CFN literals or --batch FILE")

    with _open_out(args.out) as fh:
        fh.write(text)
    return 0


def _run_score(args) -> int:
    if args.sweep:
        from .figures import score_rows

        _write_rows(args.out, ("lambda", "p", "s"), score_rows((args.f,)))
        return 0

    from .score import score

    result = score(args.f, DistanceParams(p=args.p, lam=args.lam))
    if args.json:
        text = json.dumps(
            {"s": result.s, "d_to_worst": result.d_to_worst, "d_to_best": result.d_to_best}
        ) + "\n"
    else:
        text = (
            f"s={result.s:.6f} d_to_worst={result.d_to_worst:.6f} "
            f"d_to_best={result.d_to_best:.6f}\n"
        )
    with _open_out(args.out) as fh:
        fh.write(text)
    return 0


def _run_simulate(args) -> int:
    from .perturbation import PerturbationConfig, run_study, write_study

    config = PerturbationConfig(
        base_pair=tuple(args.pair),
        trials=args.trials,
        seed=_seed(args),
        p_values=tuple(args.p) if args.p else (1, 2, 3),
        lambda_values=tuple(args.lam) if args.lam else (0.0, 0.25, 0.5, 0.75, 1.0),
    )
    result = run_study(config)
    with _open_out(args.out) as fh:
        write_study(fh, result)
    return 0


def _run_pain_eval(args) -> int:
    if args.input:
        from .pain import assessment_from_dict

        with open(args.input) as fh:
            try:
                assessment, params = assessment_from_dict(json.load(fh))
            except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError among them
                exc.where = {"file": args.input}
                if isinstance(exc, json.JSONDecodeError):
                    exc.where["line"] = exc.lineno
                if hasattr(exc, "field"):
                    exc.where["field"] = exc.field
                raise
        u, v = assessment.sim_to_scale0, assessment.sim_to_scale10
        patient_pain = assessment.patient_pain
    else:
        if not (args.sweep or args.legacy_sweep):
            raise ValueError("pain-eval needs --input FILE.json (or --sweep/--legacy-sweep)")
        from .figures import DEMO_PATIENT_PAIN, DEMO_SIM_SCALE0, DEMO_SIM_SCALE10

        u, v = DEMO_SIM_SCALE0, DEMO_SIM_SCALE10
        patient_pain = DEMO_PATIENT_PAIN
        params = DistanceParams(p=2, lam=0.5)

    if args.sweep or args.legacy_sweep:
        from .figures import PAIN_SWEEP_HEADER, legacy_sweep_rows, pain_sweep_rows

        sweep_rows = pain_sweep_rows if args.sweep else legacy_sweep_rows
        _write_rows(args.out, PAIN_SWEEP_HEADER, sweep_rows(u, v, patient_pain))
        return 0

    from .pain import DEFAULT_CONFUSION_THRESHOLD, interpret, solve_programming1

    threshold = DEFAULT_CONFUSION_THRESHOLD if args.threshold is None else args.threshold
    solution = solve_programming1(u, v, patient_pain, params, confusion_threshold=threshold)
    verdict = interpret(solution, threshold)
    payload = solution.to_dict()
    payload["recommendation"] = verdict.recommendation
    payload["final_pain_score"] = verdict.final_pain_score
    with _open_out(args.out) as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")
    return 0


def _run_sweep(args) -> int:
    from .figures import trend_rows

    grid = np.linspace(0.0, 1.0, args.lambda_points)
    rows = trend_rows((args.f1, args.f2), args.p if args.p else (1,), grid)
    _write_rows(args.out, ("p", "lambda", "d_m", "d_h", "d_c"), rows)
    return 0


def _run_export_figures(args) -> int:
    from .figures import export_figure_datasets

    paths = export_figure_datasets(args.out_dir, seed=_seed(args))
    for path in paths:
        print(path)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfkit",
        description="Cognitive fuzzy number distances, scores, simulations, and pain evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dist = sub.add_parser("distance", help="distance between two CFNs")
    dist.add_argument("--measure", choices=MEASURES, required=True)
    dist.add_argument("--p", type=parse_order, default=2,
                      help="Minkowski order 1..64 or 'inf' (read by legacy/im/c)")
    dist.add_argument("--lambda", dest="lam", type=float, default=0.5,
                      help="balance parameter (read by measure c only)")
    dist.add_argument("--batch", help="CSV of rows u1,v1,j1,u2,v2,j2")
    dist.add_argument("--out")
    dist.add_argument("f1", nargs="?", type=_cfn, help="CFN literal like '0.8,0.4,0.32'")
    dist.add_argument("f2", nargs="?", type=_cfn)
    dist.set_defaults(func=_run_distance)

    sc = sub.add_parser("score", help="combined-distance score of a CFN")
    sc.add_argument("--p", type=parse_order, default=2)
    sc.add_argument("--lambda", dest="lam", type=float, default=0.5)
    sc.add_argument("--json", action="store_true", help="full-precision JSON output")
    sc.add_argument("--sweep", action="store_true",
                    help="CSV of scores over lambda 0..1 x p 1..10")
    sc.add_argument("--out")
    sc.add_argument("f", type=_cfn)
    sc.set_defaults(func=_run_score)

    sim = sub.add_parser("simulate", help="Monte-Carlo perturbation study of a pair")
    sim.add_argument("--pair", nargs=2, type=_cfn, required=True, metavar=("F1", "F2"))
    sim.add_argument("--trials", type=int, default=100)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--p", action="append", type=parse_order,
                     help="repeatable; default 1 2 3")
    sim.add_argument("--lambda", dest="lam", action="append", type=float,
                     help="repeatable; default 0 0.25 0.5 0.75 1")
    sim.add_argument("--out")
    sim.set_defaults(func=_run_simulate)

    pain = sub.add_parser("pain-eval", help="solve a pain assessment")
    pain.add_argument("--input", help="assessment JSON file")
    pain.add_argument("--threshold", type=float)
    pain.add_argument("--sweep", action="store_true",
                      help="CSV over p 1..10 x lambda 0..1 (default assessment if no --input)")
    pain.add_argument("--legacy-sweep", action="store_true",
                      help="CSV over p 1..10 under the hesitancy-blind score")
    pain.add_argument("--out")
    pain.set_defaults(func=_run_pain_eval)

    sw = sub.add_parser("sweep", help="distance-versus-lambda trend of a pair")
    sw.add_argument("--p", action="append", type=parse_order, help="repeatable; default 1")
    sw.add_argument("--lambda-points", type=int, default=101)
    sw.add_argument("--out")
    sw.add_argument("f1", type=_cfn)
    sw.add_argument("f2", type=_cfn)
    sw.set_defaults(func=_run_sweep)

    exp = sub.add_parser("export-figures", help="write the bundled demo datasets")
    exp.add_argument("out_dir")
    exp.add_argument("--seed", type=int)
    exp.set_defaults(func=_run_export_figures)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (CfkitError, ValueError, OSError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        where = getattr(exc, "where", None)
        if where is None and isinstance(exc, OSError) and exc.filename is not None:
            where = {"file": exc.filename}
        if where:
            payload["where"] = where
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
