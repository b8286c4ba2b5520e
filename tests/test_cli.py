import contextlib
import csv
import io
import json
import math
import subprocess
import sys
import tempfile
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from helpers import child_env, diabetes_fixture_path, load_diabetes, path_of, run_python
from hypothesis import given, settings
from hypothesis import strategies as st

import larinfer.cli as cli
import larinfer.io as io_module
from larinfer.cli import main
from larinfer.io import read_csv
from larinfer.exceptions import CsvParseError
from larinfer.simulate import ScenarioSpec, run_coverage, tie_demo

DIABETES = str(diabetes_fixture_path())


def _cell(value) -> str:
    """A report value as its CSV cell: the repr of a float, the str of an int
    or a name."""
    return repr(value) if isinstance(value, float) else str(value)


def _json_doc(tmp_path, argv):
    """The JSON report of the same run as ``argv``."""
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    return json.loads(out.read_text())


def _write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return str(path)


def _duplicate_pair_csv(tmp_path, rows, factor):
    """CSV with features a and b = factor * a, and a random response y."""
    rng = np.random.default_rng(0)
    table = [["a", "b", "y"]]
    for _ in range(rows):
        v = float(rng.standard_normal())
        table.append([v, factor * v, float(rng.standard_normal())])
    return _write_csv(tmp_path / "dup.csv", table)


class TestReadCsv:
    def test_round_trips_fixture(self):
        names, X, y = read_csv(DIABETES, "progression")
        assert names[-1] == "glu" and len(names) == 10
        assert X.shape == (442, 10) and y.shape == (442,)

    def test_error_coordinates(self, tmp_path):
        bad = _write_csv(tmp_path / "bad.csv", [["a", "b"], [1.0, 2.0], [3.0, "oops"]])
        with pytest.raises(CsvParseError) as err:
            read_csv(bad, "a")
        assert err.value.row == 3
        assert err.value.col == 2

    def test_ragged_row(self, tmp_path):
        bad = _write_csv(tmp_path / "ragged.csv", [["a", "b"], [1.0, 2.0, 3.0]])
        with pytest.raises(CsvParseError) as err:
            read_csv(bad, "a")
        assert err.value.row == 2

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(CsvParseError):
            read_csv(p, "a")


# (file bytes, whether np.loadtxt parses the body; else the cell loop runs)
CSV_PARITY = {
    "underscore digits": (b"a,b\n1_0,2\n", False),
    "padded cell": (b"a,b\n 1.5 ,2\n", True),
    "quoted number": (b'a,b\n"1.5",2\n', False),
    "nan cell": (b"a,b\n1,2\nnan,2\n", False),
    "inf cell": (b"a,b\n1,2\n3,inf\n", False),
    "empty cell": (b"a,b\n1,\n", False),
    "exponent": (b"a,b\n1e5,2\n", True),
    "plus sign": (b"a,b\n+1,2\n", True),
    "arabic-indic digit": ("a,b\n\u0661,2\n".encode(), False),
    "blank line": (b"a,b\n1,2\n\n3,4\n", False),
    "whitespace-only line": (b"a,b\n1,2\n  \n3,4\n", False),
    "trailing blank line": (b"a,b\n1,2\n\n", False),
    "ragged row": (b"a,b\n1,2\n3,4,5\n", False),
    "extra field on every row": (b"a,b\n1,2,3\n4,5,6\n", False),
    "byte-order mark": (b"\xef\xbb\xbfa,b\n1,2\n3,4\n", True),
    "CRLF line endings": (b"a,b\r\n1,2\r\n3,4\r\n", True),
    "CR line endings": (b"a,b\r1,2\r3,4\r", True),
    "no final newline": (b"a,b\n1,2\n3,4", True),
    "single row": (b"a,b,c\n1,2,3\n", True),
    "single column": (b"a\n1\n2\n3\n", True),
    "blank line, single column": (b"a\n1\n\n3\n", False),
    # the binary pass counts three body rows; the cell loop's table has two
    "quoted body cell across two lines": (b'a,b\n"1\n",2\n3,4\n', False),
    "header only": (b"a,b\n", False),
}


def _csv_outcome(read, path):
    try:
        return read(path)
    except CsvParseError as exc:
        return ("error", str(exc), exc.row, exc.col)


def _cell_loop(path):
    """The cell-by-cell parse alone, as ``read_csv`` runs it on fallback."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        names = io_module._header(reader)
        return names, io_module._parse_cells(reader, len(names))


def _split(names, table, response, order):
    """The parsed table split into feature names, features in ``order`` and
    the response column."""
    idx = io_module._response_index(names, response)
    keep = [i for i in range(len(names)) if i != idx]
    X = np.asarray(table[:, keep], order=order)
    return [names[i] for i in keep], X, table[:, idx].copy()


@pytest.fixture
def cell_loop_calls(monkeypatch):
    """Records each time ``read_csv`` falls back to the cell loop."""
    calls = []
    parse_cells = io_module._parse_cells
    monkeypatch.setattr(io_module, "_parse_cells",
                        lambda *a: calls.append(a) or parse_cells(*a))
    return calls


def _assert_parity(content, fast, response, order, tmp_path, cell_loop_calls):
    """``read_csv(path, response, order)`` gives the cell loop's table split
    at the response, in the same layout, or the same error, and parses the
    body with np.loadtxt unless the file is irregular."""
    path = tmp_path / "t.csv"
    path.write_bytes(content)
    expected = _csv_outcome(lambda p: _split(*_cell_loop(p), response, order), path)
    cell_loop_calls.clear()
    got = _csv_outcome(lambda p: read_csv(p, response, order), path)
    assert bool(cell_loop_calls) != fast
    if expected[0] == "error":
        assert got == expected
        return
    assert got[0] == expected[0]
    for got_part, want in zip(got[1:], expected[1:]):
        assert got_part.dtype == np.float64 and got_part.shape == want.shape
        assert got_part.tobytes() == want.tobytes()
        assert got_part.flags.c_contiguous == want.flags.c_contiguous
        assert got_part.flags.f_contiguous == want.flags.f_contiguous


@pytest.mark.parametrize("case", list(CSV_PARITY))
def test_read_csv_fast_path_matches_cell_loop(case, tmp_path, cell_loop_calls):
    """Every file of the table with its first column as the response, with
    the features in C order."""
    _assert_parity(*CSV_PARITY[case], "a", "C", tmp_path, cell_loop_calls)


def test_read_csv_fast_path_is_exact(tmp_path, cell_loop_calls):
    """Shortest round-trip reprs of random doubles parse back bit for bit."""
    rng = np.random.default_rng(7)
    values = rng.standard_normal((50, 4)) * 10.0 ** rng.integers(-300, 300, (50, 4))
    path = _write_csv(tmp_path / "r.csv", [["a", "b", "c", "d"]]
                      + [[repr(float(v)) for v in row] for row in values])
    _, X, y = read_csv(path, "a")
    assert not cell_loop_calls
    assert X.shape == (50, 3) and y.shape == (50,)
    np.testing.assert_array_equal(np.column_stack([y, X]), values)
    np.testing.assert_array_equal(_cell_loop(path)[1], values)


# A body line of 12 characters; read_csv's blocks hold the lines up to the
# first that takes them past _BLOCK_CHARS characters
_BLOCK_ROW = "{}.5,-{}.25,{}"
BLOCK_ROWS = io_module._BLOCK_CHARS // 12 + 1


def _block_csv(rows, last=None):
    """Columns a, b, c and ``rows`` body lines; ``last`` replaces the final one."""
    lines = [_BLOCK_ROW.format(i % 10, i % 7, i % 3) for i in range(rows)]
    if last is not None:
        lines[-1] = last
    return ("a,b,c\n" + "\n".join(lines) + "\n").encode()


# (file bytes, whether np.loadtxt parses the body) for the split route, on
# top of CSV_PARITY: block boundaries, faults in the last of three blocks,
# and line-ending and encoding variants with three columns
SPLIT_PARITY = {
    "one row fewer than a block": (_block_csv(BLOCK_ROWS - 1), True),
    "exactly one block": (_block_csv(BLOCK_ROWS), True),
    "one row more than a block": (_block_csv(BLOCK_ROWS + 1), True),
    "bad cell in the last block": (_block_csv(2 * BLOCK_ROWS + 5, "1,oops,3"), False),
    "nan in the last block": (_block_csv(2 * BLOCK_ROWS + 5, "1,2,nan"), False),
    "ragged row in the last block": (_block_csv(2 * BLOCK_ROWS + 5, "1,2,3,4"), False),
    "blank line in the last block": (_block_csv(2 * BLOCK_ROWS + 5, "\n1,2,3"), False),
    "CR line endings, 3 columns": (b"a,b,c\r1,2,3\r4,5,6\r7,8,9.5\r", True),
    "CRLF line endings, 3 columns": (b"a,b,c\r\n1,2,3\r\n4,5,6\r\n7,8,9.5\r\n", True),
    "byte-order mark, 3 columns": (b"\xef\xbb\xbfa,b,c\n1,2,3\n4,5,6\n7,8,9.5\n", True),
    "no final newline, 3 columns": (b"a,b,c\n1,2,3\n4,5,6\n7,8,9.5", True),
    "no final newline after CR": (b"a,b,c\r1,2,3\r4,5,6", True),
    # the binary pass counts the header's two lines as two rows
    "header cell across two lines": (b'a,"b\nc",d\n1,2,3\n4,5,6\n', False),
}


def _split_cases():
    """Each file of both tables with the response first, in the middle and
    last, by name, and one response that names no column."""
    for case, (content, fast) in {**CSV_PARITY, **SPLIT_PARITY}.items():
        names = content.decode("utf-8-sig").splitlines()[0].split(",")
        for response in dict.fromkeys([names[0], names[len(names) // 2], names[-1], "zz"]):
            yield pytest.param(content, fast, response,
                               id=f"{case}-{response}")


@pytest.mark.parametrize("content, fast, response", _split_cases())
def test_read_csv_split_route_matches_table_route(content, fast, response, tmp_path,
                                                  cell_loop_calls):
    """Every file of both tables with the features in Fortran order."""
    _assert_parity(content, fast, response, "F", tmp_path, cell_loop_calls)


@pytest.mark.parametrize("response", ["a", "b", "c"])
def test_read_csv_split_route_in_c_order(response, tmp_path, cell_loop_calls):
    _assert_parity(_block_csv(BLOCK_ROWS + 1), True, response, "C", tmp_path, cell_loop_calls)


def test_block_rows_is_one_block(tmp_path):
    """The block-boundary cases above sit where the blocks really end."""
    path = tmp_path / "t.csv"
    path.write_bytes(_block_csv(BLOCK_ROWS + 1))
    with open(path, newline="", encoding="utf-8-sig") as fh:
        fh.readline()
        assert len(fh.readlines(io_module._BLOCK_CHARS)) == BLOCK_ROWS


def test_response_as_the_only_column_exits_3(tmp_path, capsys):
    path = tmp_path / "y.csv"
    path.write_bytes(b"y\n1\n2\n3\n")
    assert main(["fit", str(path), "--response", "y"]) == 3
    assert "need n > p >= 1, got n=3, p=0" in capsys.readouterr().err


# A CSV, the command after it, the exit code and the words of the error line.
# A nan or infinite cell is a parse error.  Finite cells near the float limit
# whose column or response overflows its mean or sum of squares are a numeric
# error, with or without centering.
NON_FINITE_CELLS = {
    cell: (f"a,b,y\n1,2,3\n{cell},1,2\n3,4,5\n2,2,1\n", ["fit"], 2, ["row 3", "column 1"])
    for cell in ("nan", "inf")
}
NON_FINITE_CELLS.update(
    (f"{target} overflow {command[0]}{' no-center' if flags else ''}",
     (body, command + flags, 3, [f"{target} is too large"]))
    for target, body in (
        ("column 0", "a,b,y\n1e308,1,1\n1e308,2,5\n-1e308,4,2\n3,1,7\n"),
        ("response", "a,b,y\n1,1,1e308\n2,2,1e308\n4,1,-1e308\n3,5,7\n"),
    )
    for command in (["fit"], ["infer", "--draws", "100"])
    for flags in ([], ["--no-center"])
)


class TestFit:
    def test_diabetes_json(self, tmp_path, capsys):
        out = tmp_path / "fit.json"
        code = main(["fit", DIABETES, "--response", "progression",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert doc["kind"] == "fit"
        assert doc["terminated_at"] == 10
        assert doc["steps"][0]["variable"] == "bmi"
        assert doc["steps"][0]["correlation"] == pytest.approx(45.16, abs=1e-2)
        # floats must round-trip exactly through the JSON document
        names, X, y = load_diabetes()
        from larinfer.path import standardize

        data = standardize(X, y, center=True)
        path = path_of(data, data.y)
        for k, row in enumerate(doc["steps"]):
            assert row["correlation"] == float(path.correlations[k])

    def test_fit_csv_format(self, tmp_path):
        out = tmp_path / "fit.csv"
        code = main(["fit", DIABETES, "--response", "progression",
                     "--out", str(out), "--format", "csv"])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:3] == ["step", "variable", "sign"]
        assert len(rows) == 11
        assert rows[1][1] == "bmi"
        assert float(rows[1][3]) == pytest.approx(45.16, abs=1e-2)
        # every cell holds the JSON report's value, formatted as repr or str
        doc = _json_doc(tmp_path, ["fit", DIABETES, "--response", "progression"])
        traces = zip(doc["correlation_traces"], doc["coefficient_traces"])
        for row, step, (corr, coef) in zip(rows[1:], doc["steps"], traces, strict=True):
            assert row == [_cell(step[key]) for key in rows[0][:6]] + [
                _cell(v) for v in corr + coef]

    def test_single_feature_toy(self, tmp_path):
        toy = _write_csv(
            tmp_path / "toy.csv",
            [["x", "y"]] + [[float(i), 2.0 * i + 0.1 * (-1) ** i] for i in range(1, 9)],
        )
        out = tmp_path / "toy.json"
        assert main(["fit", toy, "--response", "y", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["p"] == 1
        assert doc["steps"][0]["variable"] == "x"

    def test_malformed_cell_exit_code(self, tmp_path, capsys):
        bad = _write_csv(tmp_path / "bad.csv", [["x", "y"], [1.0, 2.0], ["abc", 4.0]])
        code = main(["fit", bad, "--response", "y"])
        assert code == 2
        err = capsys.readouterr().err
        assert "row 3" in err and "column 1" in err

    def test_duplicate_column_exit_code(self, tmp_path, capsys):
        dup = _duplicate_pair_csv(tmp_path, rows=12, factor=2.0)
        code = main(["fit", dup, "--response", "y"])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("zero_tol", ["1e-10", "0.5"])
    def test_duplicate_column_exit_code_with_zero_tol(self, tmp_path, capsys, zero_tol):
        dup = _duplicate_pair_csv(tmp_path, rows=12, factor=2.0)
        code = main(["fit", dup, "--response", "y", "--zero-tol", zero_tol])
        assert code == 3
        assert "rank deficient" in capsys.readouterr().err

    @pytest.mark.parametrize("case", list(NON_FINITE_CELLS))
    def test_non_finite_cell_exit_code(self, tmp_path, capsys, case):
        body, command, expected, words = NON_FINITE_CELLS[case]
        bad = tmp_path / "nonfinite.csv"
        bad.write_text(body)
        out = tmp_path / "out.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command[0], str(bad), "--response", "y", *command[1:],
                         "--out", str(out)])
        assert code == expected
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(word in err for word in words)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    def test_byte_order_mark_first_column_as_response(self, tmp_path):
        rng = np.random.default_rng(1)
        body = "".join(
            f"{rng.standard_normal():.6f},{rng.standard_normal():.6f},"
            f"{rng.standard_normal():.6f}\n"
            for _ in range(20)
        )
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + f"a,b,c\n{body}".encode())
        out = tmp_path / "bom.json"
        assert main(["fit", str(bom), "--response", "a", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["response"] == "a"
        assert doc["variables"] == ["b", "c"]

    def test_missing_response_exit_code(self, tmp_path, capsys):
        code = main(["fit", DIABETES, "--response", "nope"])
        assert code == 2


class TestInfer:
    def test_duplicate_pair_exit_code(self, tmp_path, capsys):
        dup = _duplicate_pair_csv(tmp_path, rows=30, factor=1.0)
        code = main(["infer", dup, "--response", "y", "--draws", "40"])
        assert code == 3
        assert "rank deficient" in capsys.readouterr().err

    def test_path_that_stops_before_step_p_exits_3(self, tmp_path, capsys):
        # an all-zero response, uncentered: the sample path has no step, and
        # the stopping rule needs the tail sums of all p steps
        path = _csv_file(tmp_path, "a,b,y\n1,2,0\n3,1,0\n2,5,0\n4,4,0\n")
        assert main(["infer", path, "--response", "y", "--no-center"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: the sample path stops at step 0 of 2")
        assert err.count("\n") == 1
        assert main(["fit", path, "--response", "y", "--no-center"]) == 0
        assert json.loads(capsys.readouterr().out)["terminated_at"] == 0

    def test_diabetes_report(self, tmp_path):
        out = tmp_path / "infer.json"
        code = main(["infer", DIABETES, "--response", "progression",
                     "--draws", "120", "--seed", "3", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "infer"
        assert doc["m_bar"] == 5
        assert doc["sigma_hat"] == pytest.approx(54.09, abs=0.01)
        assert len(doc["steps"]) == 10
        assert len(doc["terminal_coefficients"]) == 5
        assert len(doc["coefficient_intervals"]) == 15
        first = doc["steps"][0]
        assert first["interval_lo"] <= first["correlation"] <= first["interval_hi"]
        term = {r["variable"]: r for r in doc["terminal_coefficients"]}
        assert term["bmi"]["estimate"] == pytest.approx(24.903, abs=1e-3)
        assert len(doc["membership_freq"]) == 10

    def test_alpha_narrows_intervals(self, tmp_path):
        docs = {}
        for alpha in ("0.05", "0.5"):
            out = tmp_path / f"infer{alpha}.json"
            main(["infer", DIABETES, "--response", "progression",
                  "--draws", "120", "--seed", "3", "--alpha", alpha,
                  "--out", str(out)])
            docs[alpha] = json.loads(out.read_text())
        for wide, narrow in zip(docs["0.05"]["steps"], docs["0.5"]["steps"]):
            w = wide["interval_hi"] - wide["interval_lo"]
            n = narrow["interval_hi"] - narrow["interval_lo"]
            assert n <= w + 1e-12

    def test_threads_is_an_accepted_no_op(self, tmp_path):
        outs = []
        for threads in ("1", "4", "0"):
            out = tmp_path / f"infer{threads}.json"
            assert main(["infer", DIABETES, "--response", "progression",
                         "--draws", "40", "--seed", "2", "--threads", threads,
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_infer_csv_format(self, tmp_path):
        out = tmp_path / "infer.csv"
        code = main(["infer", DIABETES, "--response", "progression",
                     "--draws", "60", "--seed", "1", "--out", str(out),
                     "--format", "csv"])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "step"
        assert rows[1][1] == "bmi"
        blank = rows.index([])
        assert rows[blank + 1][0] == "variable"
        assert len(rows) == blank + 2 + 5
        # every cell holds the JSON report's value, formatted as repr or str
        doc = _json_doc(tmp_path, ["infer", DIABETES, "--response", "progression",
                                   "--draws", "60", "--seed", "1"])
        for header, body, table in ((rows[0], rows[1:blank], doc["steps"]),
                                    (rows[blank + 1], rows[blank + 2:],
                                     doc["terminal_coefficients"])):
            for row, entry in zip(body, table, strict=True):
                assert row == [_cell(entry[key]) for key in header]

    def test_exact_fit_exits_3_naming_sigma_hat(self, tmp_path, capsys):
        # y = 2a: the full fit leaves no residual, so sigma_hat = 0 and the
        # tail sums would divide by zero
        path = _csv_file(tmp_path, "a,y\n1,2\n2,4\n3,6\n4,8\n")
        out = tmp_path / "out.json"
        assert main(["infer", path, "--response", "y", "--draws", "40",
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: sigma_hat = 0")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_rounding_level_sigma_hat_is_accepted(self, tmp_path):
        # y = 3a up to the rounding of the decimal cells: sigma_hat is tiny
        # but not 0, so the tail sums are huge but finite
        path = _csv_file(tmp_path, "a,y\n0.1,0.3\n0.2,0.6\n0.3,0.9\n0.7,2.1\n")
        doc = _json_doc(tmp_path, ["infer", path, "--response", "y", "--draws", "40"])
        assert 0.0 < doc["sigma_hat"] < 1e-12
        assert math.isfinite(doc["steps"][0]["tail_sum"])

    def test_exact_fit_gives_no_inverted_interval(self, tmp_path):
        # y = 2 x0: sigma_hat is rounding, every step passes the stopping
        # rule, and the later steps' interval ends both fall just below 0,
        # where clamping gives [0, 0]
        X = np.random.default_rng(0).standard_normal((50, 4))
        rows = np.column_stack([X, 2.0 * X[:, 0]]).tolist()
        path = _write_csv(tmp_path / "exact.csv", [["x0", "x1", "x2", "x3", "y"], *rows])
        doc = _json_doc(tmp_path, ["infer", path, "--response", "y", "--draws", "200"])
        assert 0.0 < doc["sigma_hat"] < 1e-12 and doc["m_bar"] == 4
        for row in doc["steps"]:
            assert 0.0 <= row["interval_lo"] <= row["interval_hi"], row
        assert [[row["interval_lo"], row["interval_hi"]] for row in doc["steps"][1:]] == [
            [0.0, 0.0]] * 3


def _near_collinear_csv(tmp_path, offset):
    """CSV with features a, b, c, d and response y (n = 200), where
    b = a + offset |a_c| e for a unit vector e orthogonal to the centered a.
    The response loads on e, so the path takes b in before a and then needs
    the refit on an active block where b and a are nearly collinear."""
    rng = np.random.default_rng(3)
    a, c, d, e, noise = (rng.standard_normal(200) for _ in range(5))
    a_c = a - a.mean()
    e -= e.mean()
    e -= (e @ a_c) / (a_c @ a_c) * a_c
    e /= np.linalg.norm(e)
    scale = np.linalg.norm(a_c)
    b = a + offset * scale * e
    y = a + 2.0 * scale * e + 2.0 * c + 0.05 * noise
    rows = np.column_stack([a, b, c, d, y]).tolist()
    return _write_csv(tmp_path / "near.csv", [["a", "b", "c", "d", "y"]] + rows)


class TestNearCollinearDesign:
    """One rank rule for the path and the refits: ``fit`` and ``infer``
    agree on a design near the rank tolerance."""

    @pytest.mark.parametrize("command", [["fit"], ["infer", "--draws", "100"]])
    def test_within_tolerance_rejected_up_front(self, tmp_path, capsys, command):
        code = main([command[0], _near_collinear_csv(tmp_path, 3e-6), "--response", "y",
                     *command[1:], "--out", str(tmp_path / "out.json")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.count("\n") == 1
        assert err.startswith("error: design is rank deficient: column 1 lies within")

    @pytest.mark.parametrize("command", [["fit"], ["infer", "--draws", "100"]])
    def test_beyond_tolerance_accepted(self, tmp_path, command):
        out = tmp_path / "out.json"
        code = main([command[0], _near_collinear_csv(tmp_path, 2e-5), "--response", "y",
                     *command[1:], "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["steps"][1]["variable"] == "b"


class TestSimulate:
    def _scenario(self, tmp_path, **overrides):
        return _scenario_file(tmp_path, json.dumps({**_SCENARIO, **overrides}))

    def test_smoke_and_reproducible(self, tmp_path, capsys):
        scen = self._scenario(tmp_path)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["simulate", scen, "--out", str(out_a)]) == 0
        assert main(["simulate", scen, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        with open(out_a, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "n"
        assert len(rows) == 2
        # the scenario's keys, then the study's result, each cell formatted
        # as repr or str
        values = {**_SCENARIO, **asdict(run_coverage(ScenarioSpec(**_SCENARIO)))}
        assert rows[1] == [_cell(values[key]) for key in rows[0]]
        # appending to an existing file must not repeat the header
        assert main(["simulate", scen, "--out", str(out_a)]) == 0
        with open(out_a, newline="") as fh:
            assert len(list(csv.reader(fh))) == 3

    def test_threads_in_scenario_and_flag_accepted(self, tmp_path):
        plain = tmp_path / "plain.csv"
        threaded = tmp_path / "threaded.csv"
        assert main(["simulate", self._scenario(tmp_path), "--out", str(plain)]) == 0
        scen = self._scenario(tmp_path, threads=4)
        assert main(["simulate", scen, "--out", str(threaded), "--threads", "2"]) == 0
        assert plain.read_bytes() == threaded.read_bytes()

    def test_noise_lost_to_rounding_exits_3(self, tmp_path, capsys):
        # the mean is so large that the sample response equals it to the
        # last bit, and the sample path stops after step 1 of 3
        scen = self._scenario(tmp_path, n=18, p=3, m=1, delta0=0.0625, rho=1.192092896e-07,
                              beta_range=7.123852882610993e17, reps=1, boot_draws=4,
                              seed=28, alpha=0.5, rejection_cap=1)
        assert main(["simulate", scen, "--out", str(tmp_path / "x.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: replication 0: the sample path stops at step 1 of 3")
        assert err.count("\n") == 1

    def test_budget_exit_code(self, tmp_path, capsys):
        scen = self._scenario(tmp_path, delta0=1e6, rejection_cap=20)
        code = main(["simulate", scen, "--out", str(tmp_path / "x.csv")])
        assert code == 4
        assert "error:" in capsys.readouterr().err

    def test_unwritable_out_exits_2_before_the_study(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the study ran before --out was opened")

        monkeypatch.setattr(cli, "run_coverage", never)
        out = tmp_path / "missing" / "x.csv"
        assert main(["simulate", self._scenario(tmp_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{out}'\n")

    def test_file_left_empty_by_a_failed_study_gets_the_header(self, tmp_path):
        out = tmp_path / "x.csv"
        failing = self._scenario(tmp_path, delta0=1e6, rejection_cap=20)
        assert main(["simulate", failing, "--out", str(out)]) == 4
        assert out.read_bytes() == b""
        assert main(["simulate", self._scenario(tmp_path), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "n" and len(rows) == 2


def _csv_file(tmp_path, text):
    path = tmp_path / "input.csv"
    path.write_text(text)
    return str(path)


def _scenario_file(tmp_path, text):
    path = tmp_path / "scenario.json"
    path.write_text(text)
    return str(path)


_SCENARIO = dict(n=120, p=5, m=2, delta0=0.05, reps=2, boot_draws=50, seed=4)
# no replication of this scenario reaches the bootstrap
_NO_BOOTSTRAP = dict(n=60, p=4, m=1, delta0=1e-3, beta_range=1.0, reps=3, boot_draws=40, seed=8)


def _bad_scenario(tmp, **fields):
    """Command line of a simulate run on ``_SCENARIO`` with ``fields`` replaced."""
    return ["simulate", _scenario_file(tmp, json.dumps({**_SCENARIO, **fields})),
            "--out", str(tmp / "x.csv")]


INPUT_ERRORS = {
    "draws below 2/alpha": lambda tmp: ["infer", DIABETES, "--response", "progression",
                                        "--draws", "5"],
    "alpha out of range": lambda tmp: ["infer", DIABETES, "--response", "progression",
                                       "--alpha", "2"],
    "negative zero-tol": lambda tmp: ["fit", DIABETES, "--response", "progression",
                                      "--zero-tol", "-1"],
    "scenario p >= n": lambda tmp: ["simulate", _scenario_file(
        tmp, json.dumps({**_SCENARIO, "p": 120})), "--out", str(tmp / "x.csv")],
    "unknown scenario key": lambda tmp: ["simulate", _scenario_file(
        tmp, json.dumps({**_SCENARIO, "bogus": 1})), "--out", str(tmp / "x.csv")],
    "malformed scenario JSON": lambda tmp: ["simulate", _scenario_file(tmp, '{"n": 120,'),
                                            "--out", str(tmp / "x.csv")],
    "missing CSV": lambda tmp: ["fit", str(tmp / "missing.csv"), "--response", "y"],
    "non-integer scenario n": lambda tmp: ["simulate", _scenario_file(
        tmp, json.dumps({"n": 100.5, "p": 5, "m": 2, "delta0": 0.05, "reps": 2,
                         "boot_draws": 50})), "--out", str(tmp / "x.csv")],
    "CSV cell over the csv field limit": lambda tmp: ["fit", _csv_file(
        tmp, "a,b\n" + "1" * 200_000 + ",2\n"), "--response", "b"],
    "string scenario rho": lambda tmp: ["simulate", _scenario_file(
        tmp, json.dumps({**_SCENARIO, "rho": "0.5"})), "--out", str(tmp / "x.csv")],
    "string scenario alpha": lambda tmp: ["simulate", _scenario_file(
        tmp, json.dumps({**_SCENARIO, "alpha": "0.05"})), "--out", str(tmp / "x.csv")],
    "string scenario beta_range": lambda tmp: ["simulate", _scenario_file(
        tmp, json.dumps({**_SCENARIO, "beta_range": "2"})), "--out", str(tmp / "x.csv")],
    "scenario alpha out of range": lambda tmp: ["simulate", _scenario_file(
        tmp, json.dumps({**_NO_BOOTSTRAP, "alpha": 2})), "--out", str(tmp / "x.csv")],
    "scenario boot_draws below 2/alpha": lambda tmp: ["simulate", _scenario_file(
        tmp, json.dumps({**_NO_BOOTSTRAP, "boot_draws": 5})), "--out", str(tmp / "x.csv")],
    "NaN zero-tol": lambda tmp: ["fit", DIABETES, "--response", "progression",
                                 "--zero-tol", "nan"],
    "scenario delta0 NaN": lambda tmp: _bad_scenario(tmp, delta0=math.nan),
    "scenario delta0 Infinity": lambda tmp: _bad_scenario(tmp, delta0=math.inf),
    "scenario rho NaN": lambda tmp: _bad_scenario(tmp, rho=math.nan),
    "scenario beta_range NaN": lambda tmp: _bad_scenario(tmp, beta_range=math.nan),
    "scenario beta_range Infinity": lambda tmp: _bad_scenario(tmp, beta_range=math.inf),
    "scenario alpha NaN": lambda tmp: _bad_scenario(tmp, alpha=math.nan),
    "scenario beta_range 0": lambda tmp: _bad_scenario(tmp, beta_range=0),
    "scenario beta_range negative": lambda tmp: _bad_scenario(tmp, beta_range=-1.0),
    "scenario rho 1": lambda tmp: _bad_scenario(tmp, rho=1.0),
    "scenario rho -1.5": lambda tmp: _bad_scenario(tmp, rho=-1.5),
    "scenario reps 0": lambda tmp: _bad_scenario(tmp, reps=0),
    "scenario reps -1": lambda tmp: _bad_scenario(tmp, reps=-1),
    "infer positive zero-tol": lambda tmp: ["infer", DIABETES, "--response", "progression",
                                            "--zero-tol", "0.006"],
    "scenario beta_range 1e308": lambda tmp: _bad_scenario(tmp, beta_range=1e308),
    "scenario beta_range 1e200": lambda tmp: _bad_scenario(tmp, beta_range=1e200),
    "scenario beta_range 8.9e307": lambda tmp: _bad_scenario(tmp, beta_range=8.9e307),
    "scenario rejection_cap -5": lambda tmp: _bad_scenario(tmp, rejection_cap=-5),
    "scenario rejection_cap 0": lambda tmp: _bad_scenario(tmp, rejection_cap=0),
    "infer negative seed": lambda tmp: ["infer", DIABETES, "--response", "progression",
                                        "--seed", "-1"],
    "tie-demo negative seed": lambda tmp: ["tie-demo", "--reps", "2", "--seed", "-1",
                                           "--out", str(tmp / "x.csv")],
    "scenario seed -4": lambda tmp: _bad_scenario(tmp, seed=-4),
    "tie-demo n 0": lambda tmp: ["tie-demo", "--n", "0", "--reps", "2",
                                 "--out", str(tmp / "x.csv")],
    "tie-demo n 3": lambda tmp: ["tie-demo", "--n", "3", "--reps", "2",
                                 "--out", str(tmp / "x.csv")],
    "tie-demo n -5": lambda tmp: ["tie-demo", "--n", "-5", "--reps", "2",
                                  "--out", str(tmp / "x.csv")],
    "tie-demo reps 0": lambda tmp: ["tie-demo", "--n", "20", "--reps", "0",
                                    "--out", str(tmp / "x.csv")],
    "tie-demo reps -1": lambda tmp: ["tie-demo", "--n", "20", "--reps", "-1",
                                     "--out", str(tmp / "x.csv")],
    "response index -1": lambda tmp: ["fit", _csv_file(tmp, "a,b,y\n1,2,3\n4,5,7\n2,1,1\n"),
                                      "--response", "-1"],
    "response name on two columns": lambda tmp: ["fit", _csv_file(
        tmp, "a,a,y\n1,2,3\n4,5,7\n2,1,1\n5,5,2\n"), "--response", "a"],
}

# what the error line of a case must say: the option or scenario key, and why
ERROR_NAMES = {
    "infer positive zero-tol": ("--zero-tol", "tail sums of all p steps"),
    "scenario beta_range 1e308": ("beta_range",),
    "scenario beta_range 1e200": ("beta_range",),
    "scenario beta_range 8.9e307": ("beta_range",),
    "scenario rejection_cap -5": ("rejection_cap",),
    "scenario rejection_cap 0": ("rejection_cap",),
    "infer negative seed": ("--seed",),
    "tie-demo negative seed": ("--seed",),
    "scenario seed -4": ("seed",),
    "tie-demo n 0": ("--n",),
    "tie-demo n 3": ("--n",),
    "tie-demo n -5": ("--n",),
    "tie-demo reps 0": ("--reps",),
    "tie-demo reps -1": ("--reps",),
    # no column of the file holds a missing response: the line names none
    "response index -1": ("response index -1", "(row 1)"),
    "response name on two columns": ("'a'", "columns 1 and 2"),
}


@pytest.mark.parametrize("case", list(INPUT_ERRORS))
def test_invalid_input_exits_2_without_traceback(case, tmp_path, capsys):
    code = main(INPUT_ERRORS[case](tmp_path))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("case", list(ERROR_NAMES))
def test_error_line_names_the_option(case, tmp_path, capsys):
    assert main(INPUT_ERRORS[case](tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    for words in ERROR_NAMES[case]:
        assert words in err


@pytest.mark.parametrize("option, value", [("--draws", "1"), ("--alpha", "1.5")])
def test_infer_checks_bootstrap_options_before_the_csv(option, value, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the CSV was read before the options were checked")

    monkeypatch.setattr(io_module, "read_csv", never)
    assert main(["infer", DIABETES, "--response", "progression", option, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


# values most scenario keys reject: wrong types, non-finite and huge floats,
# zero and negative numbers
_BAD_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.lists(st.integers(0, 9), max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf, 0, 0.0, -1, -2.5, 1e101, 1e200,
                     8.9e307, 1.7976931348623157e308]),
)
# values a key may accept, within the sizes that keep a run to milliseconds
_KEY_VALUES = {
    "n": st.integers(1, 60),
    "p": st.integers(1, 8),
    "m": st.integers(1, 4),
    "delta0": st.one_of(st.floats(1e-3, 0.1), st.floats(5e-324, 1e308)),
    "rho": st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
    "beta_range": st.floats(5e-324, 1e100),
    "reps": st.integers(1, 2),
    "boot_draws": st.integers(1, 50),
    "seed": st.integers(0, 2**128),
    "alpha": st.one_of(st.floats(0.04, 0.5), st.floats(0.0, 1.0, exclude_min=True,
                                                        exclude_max=True)),
    "rejection_cap": st.integers(1, 20),
}
# a scenario of drawn values with a few keys spoiled, dropped or added, or
# no scenario object at all
_SCENARIOS = st.one_of(
    st.builds(
        lambda drawn, spoiled, dropped, unknown: {
            key: value for key, value in {**drawn, **spoiled}.items() if key not in dropped
        } | unknown,
        st.fixed_dictionaries(_KEY_VALUES),
        st.dictionaries(st.sampled_from(list(_KEY_VALUES)), _BAD_VALUES, max_size=2),
        st.sets(st.sampled_from(list(_KEY_VALUES)), max_size=1),
        st.dictionaries(st.sampled_from(["bogus", "N", "draws"]), _BAD_VALUES, max_size=1),
    ),
    _BAD_VALUES,
)


@settings(max_examples=300, deadline=None)
@given(_SCENARIOS)
def test_simulate_fuzzed_scenarios_exit_cleanly(scenario):
    """Any scenario file ends in a documented exit code, with no traceback
    and no numpy RuntimeWarning."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(scenario))
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always", RuntimeWarning)
            code = main(["simulate", str(path), "--out", str(Path(tmp) / "x.csv")])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


# option values that the parser or the option checks reject: not numbers
# (or not integers), non-finite, zero and negative
_BAD_OPTION = st.sampled_from(["", "x", "1.5", "1e3", "nan", "inf", "-inf", "0", "-1", "-2.5"])


def _command(head, values):
    """``head`` with its options drawn from ``values``, at most two of them
    replaced by a value from ``_BAD_OPTION``."""
    return st.builds(
        lambda drawn, spoiled: head + [part for item in {**drawn, **spoiled}.items()
                                       for part in item],
        st.fixed_dictionaries(values),
        st.dictionaries(st.sampled_from(list(values)), _BAD_OPTION, max_size=2),
    )


# option values the parser accepts, within the sizes that keep a run to
# milliseconds; a run of ``fit`` or ``infer`` reads diabetes
_COMMANDS = st.one_of(
    _command(["fit", DIABETES, "--response", "progression"],
             {"--zero-tol": st.one_of(st.just("0"), st.floats(0.0, 1.0).map(repr))}),
    _command(["infer", DIABETES, "--response", "progression"],
             {"--alpha": st.floats(0.04, 0.5).map(repr),
              "--draws": st.integers(1, 50).map(str),
              "--seed": st.integers(0, 2**64).map(str),
              "--zero-tol": st.just("0")}),
    _command(["tie-demo"],
             {"--n": st.integers(5, 60).map(str),
              "--reps": st.integers(1, 20).map(str),
              "--seed": st.integers(0, 2**64).map(str)}),
)


@settings(max_examples=200, deadline=None)
@given(_COMMANDS)
def test_fuzzed_option_values_exit_cleanly(command):
    """Any value of the ``fit``, ``infer`` and ``tie-demo`` options ends in a
    documented exit code, with no traceback and no numpy RuntimeWarning."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = command + ["--out", str(Path(tmp) / "out")]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always", RuntimeWarning)
            try:
                code = main(argv)
            except SystemExit as exc:  # the parser rejects a malformed value
                code = exc.code
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


class TestTieDemo:
    def test_single_draw(self, tmp_path, capsys):
        out = tmp_path / "tie.csv"
        code = main(["tie-demo", "--n", "200", "--reps", "1", "--seed", "2",
                     "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["draw", "C1", "C2", "C3", "C4", "second_entrant"]
        assert len(rows) == 2
        assert rows[1][5] in ("x2", "x3")
        assert float(rows[1][1]) > 0.0
        correlations, _, _ = tie_demo(200, 1, np.random.default_rng(np.random.SeedSequence([2])))
        assert rows[1][1:5] == [repr(v) for v in correlations[0].tolist()]
        assert "tie steps" in capsys.readouterr().err


def test_import_does_not_load_scipy_optimize():
    """A fresh ``import larinfer.cli`` loads no scipy module at all."""
    code = ("import json, sys, larinfer.cli; "
            "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))")
    assert run_python(code) == []


def test_import_does_not_load_identities():
    """A fresh ``import larinfer.cli`` loads none of the reference formulas."""
    code = ("import json, sys, larinfer.cli; "
            "print(json.dumps('larinfer.identities' in sys.modules))")
    assert run_python(code) is False


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.skipif(sys.platform != "linux", reason="sets RLIMIT_AS in the child")
@pytest.mark.parametrize("command, names", [
    (["infer", DIABETES, "--response", "progression", "--draws", str(10 ** 12)],
     "--draws"),
    (["simulate", "{scenario}", "--out", "{out}"], "reps * boot_draws"),
    # sizes past what numpy can even describe, let alone allocate
    (["infer", DIABETES, "--response", "progression", "--draws", str(2 ** 63)], "--draws"),
    (["infer", DIABETES, "--response", "progression", "--draws", str(2 ** 62)], "--draws"),
    (["simulate", "{huge}", "--out", "{out}"], "reps * boot_draws"),
    (["simulate", "{many}", "--out", "{out}"], "reps * boot_draws"),
    (["tie-demo", "--n", "50", "--reps", str(2 ** 62)], "--reps"),
    (["tie-demo", "--n", "50", "--reps", str(2 ** 63)], "--reps"),
    (["tie-demo", "--n", str(2 ** 62), "--reps", "1"], "--n"),
    (["tie-demo", "--n", str(2 ** 58), "--reps", "1"], "--n"),
], ids=["infer", "simulate", "infer-2^63", "infer-2^62", "simulate-10^20",
        "simulate-reps-10^20", "tie-demo-2^62", "tie-demo-2^63", "tie-demo-n-2^62",
        "tie-demo-n-2^58"])
def test_out_of_memory_exits_3_naming_the_size(command, names, tmp_path):
    """A bootstrap, study or tie demonstration too large for memory ends with
    exit 3 and one error line that names the option to lower, not a
    traceback.  The child runs under a 2 GiB address-space limit, so it
    cannot take much of the machine's memory."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"n": 100, "p": 5, "m": 2, "delta0": 0.5, "reps": 2,
                                    "boot_draws": 10 ** 12, "seed": 1}))
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"n": 100, "p": 5, "m": 2, "delta0": 0.5, "reps": 2,
                                "boot_draws": 10 ** 20, "seed": 1}))
    many = tmp_path / "many.json"
    many.write_text(json.dumps({"n": 60, "p": 4, "m": 1, "delta0": 0.01, "reps": 10 ** 20,
                                "boot_draws": 40, "seed": 1}))
    argv = [a.format(scenario=scenario, huge=huge, many=many, out=tmp_path / "out.csv")
            for a in command]
    out = subprocess.run([sys.executable, "-m", "larinfer.cli", *argv], capture_output=True,
                         text=True, env=child_env(), preexec_fn=_limit_address_space, timeout=300)
    assert out.returncode == 3
    (line,) = out.stderr.splitlines()
    assert line.startswith("error: out of memory") and names in line


@pytest.mark.skipif(sys.platform != "linux", reason="sets RLIMIT_AS in the child")
def test_row_count_too_large_to_allocate_goes_to_the_cell_loop(tmp_path):
    """A body of a million blank lines under a 400-column header counts as
    10^6 rows, 3 GB of design.  Under a 2 GiB address-space limit that
    allocation fails; the cell loop then reports the first blank line, as it
    does without the limit, instead of running out of memory."""
    path = tmp_path / "blank.csv"
    path.write_text(",".join(f"x{j}" for j in range(400)) + "\n" + "\n" * 10 ** 6)
    out = subprocess.run([sys.executable, "-m", "larinfer.cli", "fit", str(path),
                          "--response", "x0"], capture_output=True, text=True, env=child_env(),
                         preexec_fn=_limit_address_space, timeout=300)
    assert out.returncode == 2
    assert out.stderr == "error: expected 400 fields, found 0 (row 2, column 1)\n"
