import csv
import json

import numpy as np
import pytest

from cfkit.cli import _BLOCK, main
from cfkit.pain import assessment_from_dict

from helpers import random_triples


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDistanceCommand:
    def test_combined(self, capsys):
        code, out, _ = run(
            capsys,
            "distance", "--measure", "c", "--p", "1", "--lambda", "0.5",
            "⟨0.8,0.4,0.32⟩", "⟨0.1,0.9,0.09⟩",
        )
        assert code == 0
        assert out == "1.095000\n"

    def test_plain_literal(self, capsys):
        code, out, _ = run(
            capsys, "distance", "--measure", "h", "0.8,0.4,0.32", "0.1,0.9,0.09"
        )
        assert code == 0
        assert out == "0.730000\n"

    def test_legacy_and_im(self, capsys):
        _, out, _ = run(
            capsys, "distance", "--measure", "legacy", "--p", "1", "0.3,0.2,0.1", "1,0,0"
        )
        assert out == "1.000000\n"
        _, out, _ = run(
            capsys, "distance", "--measure", "im", "--p", "1", "0.3,0.2,0.1", "1,0,0"
        )
        assert out == "1.600000\n"

    def test_chebyshev_order(self, capsys):
        code, out, _ = run(
            capsys, "distance", "--measure", "im", "--p", "inf", "0.8,0.4,0.32", "0.1,0.9,0.09"
        )
        assert code == 0
        assert out == "0.730000\n"

    def test_batch(self, capsys, tmp_path):
        batch = tmp_path / "pairs.csv"
        batch.write_text("0.8,0.4,0.32,0.1,0.9,0.09\n0.3,0.2,0.1,1,0,0\n")
        code, out, _ = run(
            capsys, "distance", "--measure", "im", "--p", "1", "--batch", str(batch)
        )
        assert code == 0
        assert out.splitlines() == ["1.460000", "1.600000"]

    @pytest.mark.parametrize(
        "bad_row,error,message",
        [
            ("0.8,0.4,0.32,0.1", "ValueError", "line 2: expected 6 fields u1,v1,j1,u2,v2,j2, got 4"),
            ("0.8,abc,0.32,0.1,0.9,0.09", "ValueError",
             "line 2, field v1: could not convert string to float: 'abc'"),
            ("0.8,0.4,0.32,0.1,0.9,", "ValueError",
             "line 2, field j2: could not convert string to float: ''"),
            ("0.8,0.4,0.5,0.1,0.9,0.09", "JointBoundViolationError",
             "line 2, first CFN u1,v1,j1: joint degree 0.5 outside admissible interval"),
            ("0.8,0.4,0.32,0.1,0.9,0.5", "JointBoundViolationError",
             "line 2, second CFN u2,v2,j2: joint degree 0.5 outside admissible interval"),
            ("0.8,0.4,0.32,1.4,0.9,0.09", "OutOfRangeError",
             "line 2, second CFN u2,v2,j2: u must lie in [0, 1], got 1.4"),
            # an invalid CFN is reported before a later row that cannot be read
            ("0.8,0.4,0.32,1.4,0.9,0.09\n0.8,abc,0.32,0.1,0.9,0.09", "OutOfRangeError",
             "line 2, second CFN u2,v2,j2: u must lie in [0, 1], got 1.4"),
            ("0.8,0.4,0.5,0.1,0.9,0.09\n0.8,0.4", "JointBoundViolationError",
             "line 2, first CFN u1,v1,j1: joint degree 0.5 outside admissible interval"),
            ("1" * (csv.field_size_limit() + 1), "ValueError",
             f"line 2: field larger than field limit ({csv.field_size_limit()})"),
            ("0.8,0.4,0.32,1.4,0.9,0.09\n" + "1" * (csv.field_size_limit() + 1),
             "OutOfRangeError",
             "line 2, second CFN u2,v2,j2: u must lie in [0, 1], got 1.4"),
        ],
        ids=["field-count", "non-numeric", "non-numeric-second", "joint-bound",
             "joint-bound-second", "range-second", "range-before-non-numeric",
             "joint-bound-before-field-count", "field-limit", "range-before-field-limit"],
    )
    def test_batch_error_names_line(self, capsys, tmp_path, bad_row, error, message):
        batch = tmp_path / "pairs.csv"
        batch.write_text(f"0.3,0.2,0.1,1,0,0\n{bad_row}\n")
        code, out, err = run(capsys, "distance", "--measure", "c", "--batch", str(batch))
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == error
        assert payload["message"].startswith(f"{batch} {message}")

    @pytest.fixture(scope="class")
    def big_batch(self, tmp_path_factory):
        """More than one block of rows drawn from 120 distinct pairs, with blank lines.

        A third of the pairs are near-duplicates (the second CFN moved 1e-1
        down to 1e-12 of the way toward another), which take the underflow
        path at high p, and a third have both CFNs equal.
        """
        rng = np.random.default_rng(11)
        n = 40
        f = np.column_stack(random_triples(rng, 3 * n))
        g = np.column_stack(random_triples(rng, 3 * n))
        t = 10.0 ** -rng.integers(1, 13, (n, 1))
        g[:n] = f[:n] + t * (g[:n] - f[:n])
        g[n:2 * n] = f[n:2 * n]
        pairs = [
            (",".join(map(repr, a)), ",".join(map(repr, b)))
            for a, b in zip(f.tolist(), g.tolist())
        ]
        picks = rng.integers(0, len(pairs), _BLOCK + 1000)
        lines = []
        for k, i in enumerate(picks.tolist()):
            if k % 700 == 0:
                lines.append("")
            lines.append(",".join(pairs[i]))
        path = tmp_path_factory.mktemp("big") / "pairs.csv"
        path.write_text("\n".join(lines) + "\n")
        return path, pairs, picks

    @pytest.mark.parametrize(
        "measure,p",
        [(m, p) for m in ("c", "im", "legacy") for p in ("1", "3", "64", "inf")] + [("h", "2")],
    )
    def test_batch_matches_single_pairs(self, capsys, big_batch, measure, p):
        path, pairs, picks = big_batch
        options = ["distance", "--measure", measure, "--p", p, "--lambda", "0.3"]
        single = [run(capsys, *options, *pair)[1] for pair in pairs]
        code, out, _ = run(capsys, *options, "--batch", str(path))
        assert code == 0
        assert out.splitlines(keepends=True) == [single[i] for i in picks.tolist()]

    @pytest.mark.parametrize(
        "bad_row,error,message",
        [
            ("0.8,0.4,0.32,0.1,x,0.09", "ValueError",
             "field v2: could not convert string to float: 'x'"),
            ("0.8,0.4,0.32,1.4,0.9,0.09", "OutOfRangeError",
             "second CFN u2,v2,j2: u must lie in [0, 1], got 1.4"),
        ],
        ids=["non-numeric", "range"],
    )
    def test_batch_error_after_first_block(self, capsys, tmp_path, bad_row, error, message):
        batch = tmp_path / "pairs.csv"
        good = "0.3,0.2,0.1,1,0,0\n"
        batch.write_text(good * 5000 + "\n" + good * 4000 + f"{bad_row}\n" + good * 10)
        code, out, err = run(capsys, "distance", "--measure", "c", "--batch", str(batch))
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == error
        assert payload["message"].startswith(f"{batch} line 9002, {message}")

    @pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank-lines"])
    def test_batch_without_rows(self, capsys, tmp_path, text):
        batch = tmp_path / "pairs.csv"
        batch.write_text(text)
        code, out, _ = run(capsys, "distance", "--measure", "c", "--batch", str(batch))
        assert code == 0
        assert out == "\n"

    def test_batch_failure_writes_no_out(self, capsys, tmp_path):
        batch, out_file = tmp_path / "pairs.csv", tmp_path / "out.txt"
        batch.write_text("0.3,0.2,0.1,1,0,0\n" * (_BLOCK + 1) + "0.3,0.2,0.1,1,0,2\n")
        code, _, err = run(
            capsys, "distance", "--measure", "c", "--batch", str(batch), "--out", str(out_file)
        )
        assert code == 1
        assert json.loads(err)["error"] == "OutOfRangeError"
        assert not out_file.exists()

    @pytest.mark.parametrize(
        "rows,where",
        [
            ("0.8,0.4,0.32,0.1\n", {"line": 2}),
            ("0.8,abc,0.32,0.1,0.9,0.09\n", {"line": 2, "field": "v1"}),
            ("0.8,0.4,0.5,0.1,0.9,0.09\n", {"line": 2, "cfn": "u1,v1,j1"}),
            ("0.8,0.4,0.32,1.4,0.9,0.09\n", {"line": 2, "cfn": "u2,v2,j2"}),
            ("1" * (csv.field_size_limit() + 1) + "\n", {"line": 2}),
            # read in bulk up to the first block that holds a bad row
            ("0.3,0.2,0.1,1,0,0\n" * 9000 + "0.8,0.4,0.32,0.1,x,0.09\n",
             {"line": 9002, "field": "v2"}),
            ("0.3,0.2,0.1,1,0,0\n" * 9000 + "0.8,0.4,0.32,1.4,0.9,0.09\n",
             {"line": 9002, "cfn": "u2,v2,j2"}),
        ],
        ids=["field-count", "non-numeric", "first-cfn", "second-cfn", "field-limit",
             "non-numeric-after-first-block", "second-cfn-after-first-block"],
    )
    def test_batch_error_where(self, capsys, tmp_path, rows, where):
        # The JSON error locates a bad batch row as its message does.
        batch = tmp_path / "pairs.csv"
        batch.write_text("0.3,0.2,0.1,1,0,0\n" + rows)
        code, _, err = run(capsys, "distance", "--measure", "c", "--batch", str(batch))
        assert code == 1
        payload = json.loads(err)
        assert list(payload) == ["error", "message", "where"]
        assert payload["where"] == {"file": str(batch), **where}

    @pytest.mark.parametrize("lines", [1, 9000], ids=["first-block", "after-first-block"])
    def test_batch_not_text_where(self, capsys, tmp_path, lines):
        # A file that is not UTF-8 text: the decoder does not say which line.
        batch = tmp_path / "pairs.csv"
        batch.write_bytes(b"0.3,0.2,0.1,1,0,0\n" * lines + b"0.8,\xff\n")
        code, _, err = run(capsys, "distance", "--measure", "c", "--batch", str(batch))
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "UnicodeDecodeError"
        assert payload["where"] == {"file": str(batch)}

    def test_missing_file_where(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.csv")
        code, _, err = run(capsys, "distance", "--measure", "c", "--batch", missing)
        assert code == 1
        assert json.loads(err)["where"] == {"file": missing}

    def test_missing_operands(self, capsys):
        code, _, err = run(capsys, "distance", "--measure", "h")
        assert code == 1
        assert json.loads(err) == {
            "error": "ValueError", "message": "distance needs two CFN literals or --batch FILE"
        }

    def test_bad_literal_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["distance", "--measure", "h", "0.9,0.9", "1,0,0"])
        assert exc.value.code == 2

    def test_invalid_cfn_reported(self, capsys):
        with pytest.raises(SystemExit):
            main(["distance", "--measure", "h", "0.5,0.6,0.05", "1,0,0"])


class TestScoreCommand:
    def test_anchor(self, capsys):
        code, out, _ = run(capsys, "score", "--p", "2", "--lambda", "0.5", "1,0,0")
        assert code == 0
        assert "s=1.000000" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "score", "--json", "--p", "2", "--lambda", "0.5", "0.8,0.4,0.32")
        payload = json.loads(out)
        assert payload["s"] == pytest.approx(0.6369, abs=5e-4)
        assert set(payload) == {"s", "d_to_worst", "d_to_best"}

    def test_sweep(self, capsys, tmp_path):
        out_file = tmp_path / "scores.csv"
        code, _, _ = run(capsys, "score", "--sweep", "--out", str(out_file), "0.8,0.4,0.32")
        assert code == 0
        with open(out_file) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 101 * 10
        assert {row["p"] for row in rows} == {str(p) for p in range(1, 11)}
        for row in rows[:20]:
            assert 0.0 <= float(row["s"]) <= 1.0


class TestSimulateCommand:
    def test_rows_and_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = [
            "simulate", "--pair", "0.8,0.4,0.32", "0.1,0.9,0.09",
            "--trials", "20", "--seed", "99", "--p", "1", "--p", "2",
            "--lambda", "0", "--lambda", "1",
        ]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        with open(a) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 20 * 2 * 2
        assert list(rows[0]) == [
            "trial", "epsilon", "p", "lambda",
            "d_m", "d_h", "d_c", "delta_d_m", "delta_d_h", "delta_d_c",
        ]

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["simulate", "--pair", "0.8,0.4,0.32", "0.1,0.9,0.09", "--trials", "5"]
        assert main(base + ["--seed", "1", "--out", str(a)]) == 0
        assert main(base + ["--seed", "2", "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_env_seed_default(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["simulate", "--pair", "0.8,0.4,0.32", "0.1,0.9,0.09", "--trials", "5"]
        monkeypatch.setenv("CFKIT_SEED", "123")
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--seed", "123", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "flags, named",
        [(("--p", "1", "--p", "1"), "p 1 "), (("--lambda", "0", "--lambda", "-0.0"), "lambda 0.0 ")],
    )
    def test_repeated_key(self, capsys, flags, named):
        code, out, err = run(
            capsys, "simulate", "--pair", "0.8,0.4,0.32", "0.1,0.9,0.09", "--trials", "2", *flags
        )
        assert (code, out) == (1, "")
        assert named in json.loads(err)["message"]

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("CFKIT_SEED", "not-a-number")
        code, _, err = run(capsys, "simulate", "--pair", "1,0,0", "0,1,0")
        assert code == 1
        assert "CFKIT_SEED" in json.loads(err)["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("distance", "--measure", "h", "0.8,0.4,0.32", "0.1,0.9,0.09"),
            ("score", "0.8,0.4,0.32"),
            ("simulate", "--pair", "1,0,0", "0,1,0", "--trials", "2", "--seed", "5"),
        ],
        ids=["distance", "score", "simulate-with-seed"],
    )
    def test_bad_env_seed_not_read(self, capsys, monkeypatch, argv):
        """CFKIT_SEED is read only by a command that takes a seed and was given no --seed."""
        monkeypatch.setenv("CFKIT_SEED", "not-a-number")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        monkeypatch.delenv("CFKIT_SEED")
        assert run(capsys, *argv) == (0, out, "")

    def test_bad_env_seed_export_figures(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("CFKIT_SEED", "not-a-number")
        assert run(capsys, "export-figures", str(tmp_path / "a"), "--seed", "7")[0] == 0
        code, out, err = run(capsys, "export-figures", str(tmp_path / "b"))
        assert (code, out) == (1, "")
        assert "CFKIT_SEED" in json.loads(err)["message"]


class TestPainEvalCommand:
    CASE = {
        "patient_items": [4, 4, 4, 4, 4, 4, 5],
        "sim_scale0": 0.4,
        "sim_scale10": 0.7,
        "p": 2,
        "lambda": 0.5,
    }

    def test_case_study(self, capsys, tmp_path):
        path = tmp_path / "case.json"
        path.write_text(json.dumps(self.CASE))
        code, out, _ = run(capsys, "pain-eval", "--input", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["j_opt"] == pytest.approx(0.4, abs=1e-6)
        assert payload["recommendation"] == "second_nurse_suggested"
        assert payload["final_pain_score"] == max(
            payload["nurse_pain"], payload["patient_pain"]
        )

    def test_sweep_default_assessment(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "pain-eval", "--sweep", "--out", str(out_file))
        assert code == 0
        with open(out_file) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 210
        assert all(row["mode"] == "cfc" for row in rows)
        assert all(abs(float(row["j_opt"]) - 0.4) < 1e-6 for row in rows)

    def test_legacy_sweep(self, capsys, tmp_path):
        out_file = tmp_path / "legacy.csv"
        code, _, _ = run(capsys, "pain-eval", "--legacy-sweep", "--out", str(out_file))
        assert code == 0
        with open(out_file) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        assert all(row["mode"] == "legacy" for row in rows)
        assert all(row["lambda"] == "" for row in rows)

    def test_requires_input_without_sweep(self, capsys):
        # No place is at fault, so the error has no "where".
        code, _, err = run(capsys, "pain-eval")
        assert code == 1
        assert json.loads(err) == {
            "error": "ValueError",
            "message": "pain-eval needs --input FILE.json (or --sweep/--legacy-sweep)",
        }

    @pytest.mark.parametrize(
        "change,field",
        [
            ({"sim_scale10": 1.7}, "sim_scale10"),
            ({"sim_scale0": "abc"}, "sim_scale0"),
            ({"patient_items": [4, 4, 4]}, "patient_items"),
            ({"patient_items": [4, 4, 4, 4, 4, 4, 11]}, "patient_items"),
            ({"p": 65}, "p"),
            ({"p": "x"}, "p"),
            ({"lambda": 1.5}, "lambda"),
            # both bad: the first checked is named, as in the message
            ({"sim_scale0": -1, "lambda": 2}, "sim_scale0"),
        ],
    )
    def test_input_error_names_its_field(self, capsys, tmp_path, change, field):
        # The JSON error adds the file and the key of the value at fault to
        # the library's own error and message.
        data = {**self.CASE, **change}
        path = tmp_path / "case.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError) as raised:
            assessment_from_dict(data)
        code, _, err = run(capsys, "pain-eval", "--input", str(path))
        assert code == 1
        assert json.loads(err) == {
            "error": type(raised.value).__name__,
            "message": str(raised.value),
            "where": {"file": str(path), "field": field},
        }

    @pytest.mark.parametrize("key", ["patient_items", "sim_scale0", "sim_scale10"])
    def test_input_missing_key_names_it(self, capsys, tmp_path, key):
        path = tmp_path / "case.json"
        path.write_text(json.dumps({k: x for k, x in self.CASE.items() if k != key}))
        code, _, err = run(capsys, "pain-eval", "--input", str(path))
        assert code == 1
        assert json.loads(err) == {
            "error": "ValueError",
            "message": f"missing key '{key}' in assessment object",
            "where": {"file": str(path), "field": key},
        }

    @pytest.mark.parametrize(
        "change,field",
        [({"sim_scale0": None}, "sim_scale0"), ({"patient_items": 5}, "patient_items"),
         ({"lambda": [0.5]}, "lambda"),
         # a JSON boolean or string is not a number, "0.4" included
         ({"sim_scale0": True}, "sim_scale0"), ({"sim_scale10": "0.4"}, "sim_scale10"),
         ({"lambda": True}, "lambda"), ({"lambda": "0.4"}, "lambda")],
    )
    def test_input_value_of_wrong_type(self, capsys, tmp_path, change, field):
        path = tmp_path / "case.json"
        path.write_text(json.dumps({**self.CASE, **change}))
        code, _, err = run(capsys, "pain-eval", "--input", str(path))
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert payload["where"] == {"file": str(path), "field": field}

    def test_input_not_an_object(self, capsys, tmp_path):
        path = tmp_path / "case.json"
        path.write_text("[0.4, 0.7]")
        code, _, err = run(capsys, "pain-eval", "--input", str(path))
        assert code == 1
        assert json.loads(err) == {
            "error": "ValueError",
            "message": "assessment input must be a JSON object, got list",
            "where": {"file": str(path)},
        }

    def test_input_json_error_names_its_line(self, capsys, tmp_path):
        path = tmp_path / "case.json"
        path.write_text('{\n  "p": 2,\n  "lambda":\n}\n')
        with pytest.raises(json.JSONDecodeError) as raised:
            json.loads(path.read_text())
        code, _, err = run(capsys, "pain-eval", "--input", str(path))
        assert code == 1
        assert json.loads(err) == {
            "error": "JSONDecodeError",
            "message": str(raised.value),
            "where": {"file": str(path), "line": 4},
        }

    def test_input_not_text(self, capsys, tmp_path):
        path = tmp_path / "case.json"
        path.write_bytes(b'{"p": "\xff"}')
        code, _, err = run(capsys, "pain-eval", "--input", str(path))
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "UnicodeDecodeError"
        assert payload["where"] == {"file": str(path)}

    def test_unreadable_input(self, capsys, tmp_path):
        code, _, err = run(capsys, "pain-eval", "--input", str(tmp_path / "missing.json"))
        assert code == 1
        assert json.loads(err)["error"] == "FileNotFoundError"


class TestSweepCommand:
    def test_trend_contains_reference_point(self, capsys, tmp_path):
        out_file = tmp_path / "trend.csv"
        code, _, _ = run(
            capsys, "sweep", "--p", "1", "--out", str(out_file),
            "0.8,0.4,0.32", "0.1,0.9,0.09",
        )
        assert code == 0
        with open(out_file) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 101
        mid = [r for r in rows if abs(float(r["lambda"]) - 0.5) < 1e-12]
        assert len(mid) == 1
        assert float(mid[0]["d_c"]) == pytest.approx(1.095, abs=1e-12)
        assert float(rows[0]["d_c"]) == pytest.approx(0.73, abs=1e-12)
        assert float(rows[-1]["d_c"]) == pytest.approx(1.46, abs=1e-12)

    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_lambda_points_below_one(self, capsys, tmp_path, points):
        out_file = tmp_path / "trend.csv"
        code, _, err = run(
            capsys, "sweep", "--lambda-points", points, "--out", str(out_file),
            "0.8,0.4,0.32", "0.1,0.9,0.09",
        )
        assert code == 1 and not out_file.exists()
        assert json.loads(err) == {
            "error": "ValueError",
            "message": f"--lambda-points must be at least 1, got {points}",
        }


class TestExportFigures:
    def test_deterministic_and_complete(self, capsys, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert main(["export-figures", str(dir_a), "--seed", "7"]) == 0
        assert main(["export-figures", str(dir_b), "--seed", "7"]) == 0
        names = ["fig2.csv", "fig3.csv", "fig4.csv", "fig5.csv", "fig7.csv", "fig8.csv"]
        for name in names:
            assert (dir_a / name).exists()
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_fig5_ranking_holds_everywhere(self, tmp_path):
        assert main(["export-figures", str(tmp_path), "--seed", "7"]) == 0
        with open(tmp_path / "fig5.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 101 * 10
        assert all(float(r["s1"]) > float(r["s2"]) for r in rows)

    def test_fig7_joint_degree_pinned(self, tmp_path):
        assert main(["export-figures", str(tmp_path), "--seed", "7"]) == 0
        with open(tmp_path / "fig7.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 210
        assert all(abs(float(r["j_opt"]) - 0.4) < 1e-6 for r in rows)

    def test_fig3_trend_reference_point(self, tmp_path):
        assert main(["export-figures", str(tmp_path), "--seed", "7"]) == 0
        with open(tmp_path / "fig3.csv") as fh:
            rows = list(csv.DictReader(fh))
        hits = [
            r for r in rows
            if r["p"] == "1" and abs(float(r["lambda"]) - 0.5) < 1e-12
        ]
        assert len(hits) == 1
        assert float(hits[0]["d_c"]) == pytest.approx(1.095, abs=1e-12)
