"""``distance --batch``'s bulk reader against the row-by-row csv path it stands in for.

A block of lines is read by one ``np.loadtxt`` call only where that gives
what ``csv.reader`` and ``float()`` give, bit for bit, and holds only valid
CFNs; every other block, and the rest of the file after it, is read row by
row, which alone reports errors and their line numbers.
"""

import csv
import io
import json
import locale
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfkit import CFN, joint_bounds
from cfkit import cli
from cfkit.cli import _BLOCK, main
from cfkit.distance import component_rows

GOOD = "0.3,0.2,0.1,1,0,0\n"


def file_lines(text):
    """The lines of ``text`` as the batch reader's file iteration splits them."""
    return list(io.StringIO(text, newline=""))


def csv_values(lines):
    """The rows of ``lines`` as ``csv.reader`` and ``float()`` read them; None if they cannot."""
    rows = []
    try:
        for row in csv.reader(lines):
            if not row:
                continue
            if len(row) != 6:
                return None
            rows.append([float(x) for x in row])
    except (csv.Error, ValueError):
        return None
    return np.array(rows, dtype=np.float64).reshape(-1, 6)


def run_batch(capsys, path, *options):
    code = main(["distance", "--measure", "c", *options, "--batch", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# the property: the bulk reader accepts only what the csv path reads the same
# ---------------------------------------------------------------------------

SPELLINGS = [
    "-0.0", "0.0", "+0", "5e-324", "4.9e-324", "2.2250738585072014e-308", "1e-310", "+.5",
    ".5", "1.", "1", "1E0", "0.1_5", "1_0e-1", "1_0", "０.５", "１", "nan", "NaN", "-nan",
    "+nan", "inf", "-Infinity", "+inf", "1e999", "", "abc", "-", ".", "e5", "0x1", "1d5",
    "1j", "#1", "0.5#", '"0.5"', '"0.5', '0.5"', '""', "1 2", "\x00",
]
SPACES = ["", " ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\xa0", "\u2003"]
ENDINGS = ["\n", "\r\n", "\r"]


UNIT = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1e-310, 0.5, 1.0 + 1e-10, -1e-10]),
)
SHARE = st.one_of(st.floats(0.0, 1.0), st.sampled_from([-1e-3, 1.001]))
SPELL = st.sampled_from([repr, "{:.3f}".format, "{:+.17g}".format, "{:e}".format])
FIELD = st.builds(
    "{}{}{}".format,
    st.sampled_from(SPACES),
    st.one_of(
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.sampled_from(SPELLINGS),
        st.text(alphabet="0123456789.+-eE_ naif\"\t\x1c", max_size=6),
    ),
    st.sampled_from(SPACES),
)


@st.composite
def cfn_fields(draw):
    """Three fields of a CFN, most of them valid, in varied spellings."""
    u, v, share = draw(UNIT), draw(UNIT), draw(SHARE)
    lo, hi = joint_bounds(min(1.0, max(0.0, u)), min(1.0, max(0.0, v)))
    j = lo + share * (hi - lo)
    return [draw(SPELL)(x) for x in (u, v, j)]


@st.composite
def rows(draw):
    kind = draw(st.integers(0, 9))
    if kind < 8:
        row = draw(cfn_fields()) + draw(cfn_fields())
        if kind == 7:  # one awkward field among valid ones
            row[draw(st.integers(0, 5))] = draw(FIELD)
        return ",".join(row)
    if kind == 8:
        return ",".join(draw(st.lists(FIELD, min_size=5, max_size=7)))
    return draw(st.sampled_from(["", " ", "\t", "\xa0", "\u2003"]))  # blank, whitespace-only


@st.composite
def blocks(draw):
    lines = draw(st.lists(st.tuples(rows(), st.sampled_from(ENDINGS)), max_size=6))
    text = "".join(row + end for row, end in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final newline
    return file_lines(text)


@settings(max_examples=300, deadline=None)
@given(blocks())
def test_bulk_reader_agrees_with_csv_path(lines):
    reference = csv_values(lines)
    # first half: where the bulk reader reads a block, its values are the csv path's
    values = cli._bulk_values(lines)
    if values is not None:
        assert reference is not None, "the bulk reader read a block the csv path rejects"
        assert values.dtype == np.float64
        assert values.shape == reference.shape
        assert values.tobytes() == reference.tobytes()
    # second half: the bulk path never accepts a block that the csv path rejects
    pair = cli._bulk_block(lines)
    if pair is not None:
        assert reference is not None, "the bulk path accepted a block the csv path rejects"
        # the constructor raises on an invalid CFN, as the csv path does
        first = [CFN(*row[:3]) for row in reference.tolist()]
        second = [CFN(*row[3:]) for row in reference.tolist()]
        assert pair[0].tobytes() == component_rows(first).reshape(-1, 4).tobytes()
        assert pair[1].tobytes() == component_rows(second).reshape(-1, 4).tobytes()


@pytest.mark.parametrize(
    "text",
    [
        " \n" + GOOD,                    # whitespace-only line
        '"0.3",0.2,0.1,1,0,0\n',         # quoted field
        "0.3,0.2,0.1,1_0,0,0\n",         # underscore
        "０.3,0.2,0.1,1,0,0\n",          # full-width digit
        "0.3,0.2,0.1,1,0,0,\n",          # trailing comma
        "0.3,0.2,0.1,1,0\n" * 3,         # five fields on every row
        "0.3,0.2,0.1,1,0,0,0\n" * 3,     # seven fields on every row
        "0.3,0.2,0.1,1,0,0\x1c\n",       # a separator np.loadtxt strips and float() does not
        "0.3,0.2,0.1,1,0,0" + " " * (csv.field_size_limit() + 1) + "\n",  # over the csv limit
    ],
    ids=["whitespace-line", "quoted", "underscore", "full-width", "trailing-comma", "five-fields",
         "seven-fields", "info-separator", "field-limit"],
)
def test_bulk_values_refuses(text):
    assert cli._bulk_values(file_lines(GOOD + text)) is None


@pytest.mark.parametrize("row", ["nan,0.2,0.1,1,0,0", "0.3,0.2,0.1,inf,0,0", "0.3,0.2,0.1,-inf,0,0"])
def test_bulk_block_refuses_non_finite(row):
    lines = file_lines(GOOD + row + "\n")
    assert cli._bulk_values(lines) is not None
    assert cli._bulk_block(lines) is None


def test_blank_block_skips_loadtxt(monkeypatch):
    """np.loadtxt warns on input without rows, so a block of blank lines never reaches it."""
    def no_loadtxt(*args, **kwargs):
        raise AssertionError("np.loadtxt called")

    monkeypatch.setattr(np, "loadtxt", no_loadtxt)
    values = cli._bulk_values(["\n", "\r\n", "\r"])
    assert values.shape == (0, 6)
    a, b = cli._bulk_block(["\n"])
    assert a.shape == b.shape == (0, 4)


@pytest.mark.filterwarnings("error")
def test_blank_block_between_blocks(capsys, tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text(GOOD * _BLOCK + "\n" * _BLOCK + "\r\n" * 5 + GOOD * 2)
    code, out, err = run_batch(capsys, path)
    assert (code, err) == (0, "")
    assert out == "0.904975\n" * (_BLOCK + 2)


def test_blank_lines_stay_on_bulk_path(capsys, tmp_path, monkeypatch):
    """Blank lines, CRLF, a lone CR and a missing final newline need no row-by-row read."""
    pairs = [("0.8,0.4,0.32", "0.1,0.9,0.09"), ("0.3,0.2,0.1", "1,0,0"),
             (" +.5 ,-0.0,5e-324", "0.4,0.5,0.1")]
    singles = []
    for f, g in pairs:
        assert main(["distance", "--measure", "c", f, g]) == 0
        singles.append(capsys.readouterr().out)

    def no_csv(*args):
        raise AssertionError("read row by row")

    monkeypatch.setattr(cli, "_csv_blocks", no_csv)
    n = _BLOCK + 1000
    lines = []
    for k in range(n):
        if k % 700 == 0:
            lines.append(ENDINGS[k // 700 % 3])
        lines.append(",".join(pairs[k % 3]) + ENDINGS[k % 3])
    path = tmp_path / "pairs.csv"
    path.write_bytes("".join(lines).rstrip("\r\n").encode())
    code, out, _ = run_batch(capsys, path)
    assert code == 0
    assert out == "".join(singles[k % 3] for k in range(n))


# ---------------------------------------------------------------------------
# errors: the row-by-row path reports them, with the line numbers of a file
# read row by row from its start
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "at_block_end,after,message",
    [
        # a quoted field spans lines _BLOCK and _BLOCK + 1
        ('0.3,0.2,0.1,1,0,"0\n"\n', "0.8,abc,0.32,0.1,0.9,0.09\n",
         f"line {_BLOCK + 2}, field v1: could not convert string to float: 'abc'"),
        ('0.3,0.2,0.1,1,0,"0\n"\n', "0.8,0.4,0.32,1.4,0.9,0.09\n",
         f"line {_BLOCK + 2}, second CFN u2,v2,j2: u must lie in [0, 1], got 1.4"),
        ("0.3,0.2,0.1,1,0,0_0\n", "0.8,0.4,0.5,0.1,0.9,0.09\n",
         f"line {_BLOCK + 1}, first CFN u1,v1,j1: joint degree 0.5 outside admissible interval"),
        ("0.3,0.2,0.1,1,0,0_0\n", "0.8,0.4\n",
         f"line {_BLOCK + 1}: expected 6 fields u1,v1,j1,u2,v2,j2, got 2"),
    ],
    ids=["quoted-then-non-numeric", "quoted-then-range", "underscore-then-joint-bound",
         "underscore-then-field-count"],
)
def test_error_line_after_awkward_block_end(capsys, tmp_path, at_block_end, after, message):
    path = tmp_path / "pairs.csv"
    path.write_text(GOOD * (_BLOCK - 1) + at_block_end + after + GOOD * 3)
    code, out, err = run_batch(capsys, path)
    assert (code, out) == (1, "")
    assert json.loads(err)["message"].startswith(f"{path} {message}")


@pytest.mark.parametrize(
    "text,message",
    [
        ("0.3,0.2,0.1,1,0\n" * 3, "line 1: expected 6 fields u1,v1,j1,u2,v2,j2, got 5"),
        ("0.3,0.2,0.1,1,0,0,0\n" * 3, "line 1: expected 6 fields u1,v1,j1,u2,v2,j2, got 7"),
        (GOOD + "\n" + "0.3,nan,0.1,1,0,0\n", "line 3, first CFN u1,v1,j1: v must lie in [0, 1], got nan"),
        (GOOD + "0.3,0.2,0.1,inf,0,0\n", "line 2, second CFN u2,v2,j2: u must lie in [0, 1], got inf"),
        (GOOD * 2 + "0.3,0.2,0.1,1,0,0\x1c\n",
         "line 3, field j2: could not convert string to float: '0\\x1c'"),
    ],
    ids=["five-fields", "seven-fields", "nan", "inf", "info-separator"],
)
def test_error_in_file_the_bulk_reader_parses(capsys, tmp_path, text, message):
    path = tmp_path / "pairs.csv"
    path.write_text(text)
    code, out, err = run_batch(capsys, path)
    assert (code, out) == (1, "")
    assert json.loads(err)["message"].startswith(f"{path} {message}")


@pytest.mark.skipif(
    locale.getpreferredencoding(False).lower().replace("-", "") != "utf8",
    reason="the batch file is read in the locale's encoding",
)
@pytest.mark.parametrize(
    "text,message",
    [
        # the unreadable row is in the first 8 KiB the reader decodes, the
        # byte that is not UTF-8 in a later one
        (GOOD * 5 + "0.3,abc,0.1,1,0,0\n" + GOOD * 600, "line 6, field v1"),
        # the same with a row that reads but holds an invalid CFN
        (GOOD * 5 + "0.3,0.2,0.5,1,0,0\n" + GOOD * 600, "line 6, first CFN u1,v1,j1"),
        # 92 blank lines in the first block of lines: the invalid row and
        # the end of the first 8192 rows come before the undecodable byte
        ("\n" * 92 + GOOD * 8100 + GOOD * 49 + "0.3,0.2,0.5,1,0,0\n" + GOOD * 700,
         f"line {92 + 8150}, first CFN u1,v1,j1: joint degree 0.5"),
    ],
    ids=["unreadable-row", "invalid-row-first-block", "invalid-row"],
)
def test_error_before_undecodable_byte(capsys, tmp_path, text, message):
    path = tmp_path / "pairs.csv"
    path.write_bytes(text.encode() + b"\xff\n" + GOOD.encode())
    code, out, err = run_batch(capsys, path)
    assert (code, out) == (1, "")
    assert json.loads(err)["message"].startswith(f"{path} {message}")


def test_undecodable_byte(capsys, tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_bytes(GOOD.encode() * 3 + b"\xff\n")
    code, out, err = run_batch(capsys, path)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "UnicodeDecodeError"


# ---------------------------------------------------------------------------
# a pipe: the file is read once, so a FIFO or /dev/stdin gives what the same
# bytes give as a regular file
# ---------------------------------------------------------------------------

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, **kwargs):
    """Start ``cfkit distance --measure c --batch ARGS`` in a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "cfkit.cli", "distance", "--measure", "c", "--batch", *args]
    return subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, **kwargs)


def run_batch_fifo(tmp_path, data):
    """``data`` written into a FIFO that a ``--batch`` run reads; the error names PATH.

    The run is a child process and the writer a daemon thread, so a reader
    that opens the FIFO a second time, or never, fails the test by timing
    out instead of hanging it.
    """
    fifo = tmp_path / "pairs.fifo"
    os.mkfifo(fifo)

    def write():
        with open(fifo, "wb") as fh:
            try:
                fh.write(data)
            except BrokenPipeError:  # the reader stopped at an error
                pass

    proc = run_cli(str(fifo))
    threading.Thread(target=write, daemon=True).start()
    try:
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    return proc.returncode, out, err.replace(str(fifo), "PATH")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
@pytest.mark.parametrize(
    "data,message",
    [
        (GOOD * (_BLOCK + 500) + '0.3,0.2,0.1,1,0,"0"\n' + GOOD * 3000, None),
        (GOOD * (_BLOCK + 500) + "0.3,abc,0.1,1,0,0\n" + GOOD * 3000,
         f"line {_BLOCK + 501}, field v1: could not convert string to float: 'abc'"),
        (GOOD * (_BLOCK - 1) + '0.3,0.2,0.1,1,0,"0\n"\n' + "0.8,abc,0.32,0.1,0.9,0.09\n" + GOOD * 3,
         f"line {_BLOCK + 2}, field v1: could not convert string to float: 'abc'"),
        (GOOD * (3 * _BLOCK + 7) + "0.3,0.2,0.5,1,0,0\n" + GOOD * 100,
         f"line {3 * _BLOCK + 8}, first CFN u1,v1,j1: joint degree 0.5"),
        (GOOD * (_BLOCK + 5) + "0.3,abc,0.1,1,0,0\n" + GOOD * 600 + "\xff\n",
         f"line {_BLOCK + 6}, field v1: could not convert string to float: 'abc'"),
    ],
    ids=["quoted-field", "bad-row", "quoted-then-bad-row", "invalid-row",
         "bad-row-before-undecodable-byte"],
)
def test_fifo_reads_as_regular_file(capsys, tmp_path, data, message):
    data = data.encode("latin-1")  # "\xff" stays a byte that is not UTF-8
    path = tmp_path / "pairs.csv"
    path.write_bytes(data)
    code, out, err = run_batch(capsys, path)
    assert run_batch_fifo(tmp_path, data) == (code, out, err.replace(str(path), "PATH"))
    if message is None:
        assert (code, err) == (0, "")
        assert out == "0.904975\n" * data.count(b"\n")
    else:
        assert (code, out) == (1, "")
        assert json.loads(err)["message"].startswith(f"{path} {message}")


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_bad_row_on_stdin():
    """A bad row piped to ``--batch /dev/stdin`` fails as it does in a regular file."""
    proc = run_cli("/dev/stdin", stdin=subprocess.PIPE)
    out, err = proc.communicate("0.3,abc,0.1,1,0,0\n", timeout=60)
    assert (proc.returncode, out) == (1, "")
    assert json.loads(err)["message"] == (
        "/dev/stdin line 1, field v1: could not convert string to float: 'abc'"
    )
