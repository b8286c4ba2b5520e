"""The JSON report writer and the memory of the CLI ingest."""

import argparse
import dataclasses
import io
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from helpers import diabetes_fixture_path
from hypothesis import given, settings
from hypothesis import strategies as st

import larinfer.io as io_module
from larinfer import cli
from larinfer.cli import main
from larinfer.io import write_fit_csv, write_json
from larinfer.path import StandardizedData, standardize

DIABETES = str(diabetes_fixture_path())

_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308])
_LEAVES = (
    _FLOATS | st.integers() | st.booleans() | st.none() | _FLOATS.map(np.float64)
    | st.text()
)
_DOCS = st.recursive(
    _LEAVES | st.lists(_FLOATS) | st.lists(_FLOATS | st.integers()),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_DOCS)
def test_write_json_matches_json_dump(doc):
    out = io.StringIO()
    write_json(doc, out)
    assert out.getvalue() == json.dumps(doc, indent=2) + "\n"


def test_write_json_edge_documents():
    docs = [
        {}, [], [[]], {"a": {}}, [1.0, 2], [math.nan, 1.0], [np.float64(0.1), 0.2],
        {"é": ["ü\n", -0.0, 5e-324, 1e308, -math.inf]}, {1: [1.0], "x": None},
        (1.0, 2.0), [[0.5, 1.5], [True, None]],
    ]
    for doc in docs:
        out = io.StringIO()
        write_json(doc, out)
        assert out.getvalue() == json.dumps(doc, indent=2) + "\n"


_TRACES = [
    np.array([[0.5, -0.0, 1e308], [5e-324, -1.5, 0.1]]),
    np.array([[-0.0, 2.0, 1.0 / 3.0]]),  # one row
    np.zeros((0, 3)),
    np.array([[math.nan, 1.0, -0.0], [math.inf, -math.inf, 2.5]]),
]


@pytest.mark.parametrize("trace", _TRACES, ids=["rows", "one-row", "empty", "non-finite"])
def test_write_json_writes_arrays_as_their_lists(trace):
    """A doc holding arrays, 2-d ones written a row at a time, is written as
    ``json.dump`` writes the same doc with each array's ``tolist()``."""
    doc = {"traces": trace, "nested": [trace, {"rows": trace[:1], "flat": trace.ravel()}],
           "scalar": np.array(-0.0)}
    out = io.StringIO()
    write_json(doc, out)
    assert out.getvalue() == json.dumps(doc, indent=2, default=np.ndarray.tolist) + "\n"


@pytest.mark.parametrize("trace", _TRACES, ids=["rows", "one-row", "empty", "non-finite"])
def test_write_fit_csv_writes_arrays_as_their_lists(trace):
    """``write_fit_csv`` writes a doc whose traces are arrays exactly as the
    same doc with the traces as lists of floats."""
    names = ["a", "b", "c"]
    steps = [{"step": k + 1, "variable": names[k], "sign": -1.0, "correlation": 0.25,
              "angle": 0.75, "weight": 0.125} for k in range(len(trace))]
    texts = []
    for corr, coef in [(np.abs(trace), -trace), (np.abs(trace).tolist(), (-trace).tolist())]:
        out = io.StringIO()
        write_fit_csv({"variables": names, "steps": steps, "correlation_traces": corr,
                       "coefficient_traces": coef}, out)
        texts.append(out.getvalue())
    assert texts[0] == texts[1]
    assert texts[0].count("\n") == len(trace) + 1


def _report_json(monkeypatch, tmp_path, argv):
    """The bytes the CLI writes, and json.dump's text for the same report dict
    with its arrays as lists."""
    docs = []
    write = io_module.write_json

    def spy(doc, out):
        docs.append(doc)
        write(doc, out)

    monkeypatch.setattr(io_module, "write_json", spy)
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    (doc,) = docs
    expected = json.dumps(doc, indent=2, default=np.ndarray.tolist) + "\n"
    return out.read_text(encoding="utf-8"), expected


def test_fit_report_equals_json_dump(monkeypatch, tmp_path):
    written, expected = _report_json(
        monkeypatch, tmp_path, ["fit", DIABETES, "--response", "progression"])
    assert written == expected


def test_infer_report_equals_json_dump(monkeypatch, tmp_path):
    written, expected = _report_json(
        monkeypatch, tmp_path,
        ["infer", DIABETES, "--response", "progression", "--draws", "200", "--seed", "3"])
    assert written == expected


def _design_csv(tmp_path, table, response):
    """Write ``table`` as a CSV whose column ``response`` is named y."""
    names = [f"x{j}" for j in range(table.shape[1])]
    names[response] = "y"
    path = tmp_path / f"design{response}.csv"
    np.savetxt(path, table, delimiter=",", header=",".join(names), comments="")
    return str(path)


def test_ingest_frees_the_table_before_standardize(tmp_path):
    """Reading, splitting and standardizing a 2000 x 50 CSV peaks below 1.5 D.

    D = 8 n p bytes is one copy of the n x p design.  The body is parsed a
    block at a time straight into the design and the response, in the
    layout that standardize uses, and that one copy is standardized in
    place, so the peak is the design and a block's text and table, or the
    design and an 8-column block of the column norms.  A parsed table held
    beside the design, a second working copy, or an n x p temporary of the
    column norms or of the finiteness check exceeds the bound.
    """
    n, width = 2000, 50
    table = np.random.default_rng(5).standard_normal((n, width))
    for response, no_center in [(width - 1, False), (width - 1, True), (width // 2, False)]:
        args = argparse.Namespace(csv=_design_csv(tmp_path, table, response), response="y",
                                  no_center=no_center)
        cli._load_standardized(args)  # warm-up: first-call allocations are not the ingest's
        tracemalloc.start()
        try:
            _, data = cli._load_standardized(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        D = 8 * n * data.p
        assert data.p == width - 1
        assert peak <= 1.5 * D, (response, no_center, peak / D)


def test_fit_frees_the_design_before_the_report(monkeypatch, tmp_path):
    """No reference to the standardized design is alive while the fit's path
    or its report is built."""
    refs, alive = [], []
    load, report, path = cli._load_standardized, io_module.path_report_dict, cli.lar_path

    def spy_load(args):
        names, data = load(args)
        refs.append(weakref.ref(data.X))
        return names, data

    def spy_report(*args):
        alive.append(refs[0]() is not None)
        return report(*args)

    def spy_path(*args, **kwargs):
        alive.append(refs[0]() is not None)
        return path(*args, **kwargs)

    monkeypatch.setattr(cli, "_load_standardized", spy_load)
    monkeypatch.setattr(cli, "lar_path", spy_path)
    monkeypatch.setattr(io_module, "path_report_dict", spy_report)
    assert main(["fit", DIABETES, "--response", "progression",
                 "--out", str(tmp_path / "fit.json")]) == 0
    assert alive == [False, False]


def test_fit_working_set(tmp_path):
    """``fit`` on a 2000 x 300 CSV peaks at most 6 P above one design copy D.

    D = 8 n p and P = 8 p^2 bytes.  The path needs only X'y and X'X, so the
    design and its factor are freed before the path's p x p work, and the
    report's traces stay arrays that are written a row at a time.  A design
    held through the path, or traces held as Python floats (32 bytes an
    entry against 8), exceeds the bound.
    """
    n, p = 2000, 300
    table = np.random.default_rng(11).standard_normal((n, p + 1))
    argv = ["fit", _design_csv(tmp_path, table, p), "--response", "y",
            "--out", str(tmp_path / "fit.json")]
    assert main(argv) == 0  # warm-up: first-call allocations are not the fit's
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    D, P = 8 * n * p, 8 * p * p
    assert peak <= D + 6 * P, (peak - D) / P


@pytest.mark.parametrize("no_center", [False, True])
@pytest.mark.parametrize("response", [0, 4, 8])
def test_ingest_standardizes_like_standardize(tmp_path, response, no_center):
    """The CLI's in-place ingest gives what ``standardize`` gives on the same
    split copy, bit for bit and in the same layout, and ``standardize``
    leaves that copy as it was."""
    rng = np.random.default_rng(response)
    table = rng.standard_normal((300, 9)) * rng.uniform(0.1, 50.0, 9) + rng.uniform(-9, 9, 9)
    path = _design_csv(tmp_path, table, response)
    _, X, y = io_module.read_csv(path, "y")
    X_before, y_before = X.copy(order="K"), y.copy()
    expected = standardize(X, y, center=not no_center)
    assert X.tobytes() == X_before.tobytes() and np.isfortran(X) == np.isfortran(X_before)
    assert y.tobytes() == y_before.tobytes()
    _, data = cli._load_standardized(
        argparse.Namespace(csv=path, response="y", no_center=no_center))
    for field in dataclasses.fields(StandardizedData):
        got, want = getattr(data, field.name), getattr(expected, field.name)
        if isinstance(want, np.ndarray):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), field.name
            assert np.isfortran(got) == np.isfortran(want), field.name
        else:
            assert got == want, field.name
