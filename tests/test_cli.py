import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import larinfer.io as io_module
from larinfer.cli import main
from larinfer.io import diabetes_fixture_path, load_diabetes, read_csv
from larinfer.exceptions import CsvParseError

DIABETES = str(diabetes_fixture_path())


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
        names, table = read_csv(DIABETES)
        assert names[-1] == "progression"
        assert table.shape == (442, 11)

    def test_error_coordinates(self, tmp_path):
        bad = _write_csv(tmp_path / "bad.csv", [["a", "b"], [1.0, 2.0], [3.0, "oops"]])
        with pytest.raises(CsvParseError) as err:
            read_csv(bad)
        assert err.value.row == 3
        assert err.value.col == 2

    def test_ragged_row(self, tmp_path):
        bad = _write_csv(tmp_path / "ragged.csv", [["a", "b"], [1.0, 2.0, 3.0]])
        with pytest.raises(CsvParseError) as err:
            read_csv(bad)
        assert err.value.row == 2

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(CsvParseError):
            read_csv(p)


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


@pytest.fixture
def cell_loop_calls(monkeypatch):
    """Records each time ``read_csv`` falls back to the cell loop."""
    calls = []
    parse_cells = io_module._parse_cells
    monkeypatch.setattr(io_module, "_parse_cells",
                        lambda *a: calls.append(a) or parse_cells(*a))
    return calls


@pytest.mark.parametrize("case", list(CSV_PARITY))
def test_read_csv_fast_path_matches_cell_loop(case, tmp_path, cell_loop_calls):
    content, fast = CSV_PARITY[case]
    path = tmp_path / "t.csv"
    path.write_bytes(content)
    expected = _csv_outcome(_cell_loop, path)
    cell_loop_calls.clear()
    got = _csv_outcome(read_csv, path)
    assert bool(cell_loop_calls) != fast
    if expected[0] == "error":
        assert got == expected
    else:
        assert got[0] == expected[0]
        assert got[1].dtype == expected[1].dtype == np.float64
        assert got[1].shape == expected[1].shape
        np.testing.assert_array_equal(got[1], expected[1])


def test_read_csv_fast_path_is_exact(tmp_path, cell_loop_calls):
    """Shortest round-trip reprs of random doubles parse back bit for bit."""
    rng = np.random.default_rng(7)
    values = rng.standard_normal((50, 4)) * 10.0 ** rng.integers(-300, 300, (50, 4))
    path = _write_csv(tmp_path / "r.csv", [["a", "b", "c", "d"]]
                      + [[repr(float(v)) for v in row] for row in values])
    _, table = read_csv(path)
    assert not cell_loop_calls
    assert table.shape == values.shape
    np.testing.assert_array_equal(table, values)
    np.testing.assert_array_equal(_cell_loop(path)[1], values)


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
        from larinfer.path import lar_path, standardize

        data = standardize(X, y, center=True)
        path = lar_path(data, data.y)
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
        rng = np.random.default_rng(0)
        rows = [["a", "b", "y"]]
        for _ in range(12):
            v = float(rng.standard_normal())
            rows.append([v, 2.0 * v, float(rng.standard_normal())])
        dup = _write_csv(tmp_path / "dup.csv", rows)
        code = main(["fit", dup, "--response", "y"])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("zero_tol", ["1e-10", "0.5"])
    def test_duplicate_column_exit_code_with_zero_tol(self, tmp_path, capsys, zero_tol):
        dup = _duplicate_pair_csv(tmp_path, rows=12, factor=2.0)
        code = main(["fit", dup, "--response", "y", "--zero-tol", zero_tol])
        assert code == 3
        assert "rank deficient" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_cell_exit_code(self, tmp_path, capsys, cell):
        bad = tmp_path / "nonfinite.csv"
        bad.write_text(f"a,b,y\n1,2,3\n{cell},1,2\n3,4,5\n2,2,1\n")
        code = main(["fit", str(bad), "--response", "y"])
        assert code == 2
        err = capsys.readouterr().err
        assert "row 3" in err and "column 1" in err

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

    def test_terminal_fit_solved_once(self, tmp_path, monkeypatch):
        import larinfer.bootstrap as bootstrap

        calls = []
        solve = bootstrap.solve_spd

        def counting(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(bootstrap, "solve_spd", counting)
        out = tmp_path / "infer.json"
        code = main(["infer", DIABETES, "--response", "progression",
                     "--draws", "40", "--seed", "3", "--out", str(out)])
        assert code == 0
        # one batched refit for all 40 replicas plus one for the sample path
        assert len(calls) == 1 + 1

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


class TestSimulate:
    def _scenario(self, tmp_path, **overrides):
        raw = dict(n=120, p=5, m=2, delta0=0.05, reps=2, boot_draws=50, seed=4)
        raw.update(overrides)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        return str(path)

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

    def test_budget_exit_code(self, tmp_path, capsys):
        scen = self._scenario(tmp_path, delta0=1e6, rejection_cap=20)
        code = main(["simulate", scen, "--out", str(tmp_path / "x.csv")])
        assert code == 4
        assert "error:" in capsys.readouterr().err


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
}


@pytest.mark.parametrize("case", list(INPUT_ERRORS))
def test_invalid_input_exits_2_without_traceback(case, tmp_path, capsys):
    code = main(INPUT_ERRORS[case](tmp_path))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


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
        assert "tie steps" in capsys.readouterr().err


def test_import_does_not_load_scipy_optimize():
    """A fresh ``import larinfer.cli`` loads no scipy module at all."""
    import larinfer

    src = str(Path(larinfer.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, larinfer.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
