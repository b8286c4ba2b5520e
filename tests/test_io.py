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
from larinfer.io import write_json
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


def _report_json(monkeypatch, tmp_path, argv):
    """The bytes the CLI writes, and json.dump's text for the same report dict."""
    docs = []
    write = io_module.write_json

    def spy(doc, out):
        docs.append(doc)
        write(doc, out)

    monkeypatch.setattr(io_module, "write_json", spy)
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    (doc,) = docs
    return out.read_text(encoding="utf-8"), json.dumps(doc, indent=2) + "\n"


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
    """No reference to the standardized design is alive while the fit report,
    whose traces are Python floats, is built."""
    refs, alive = [], []
    load, report = cli._load_standardized, io_module.path_report_dict

    def spy_load(args):
        names, data = load(args)
        refs.append(weakref.ref(data.X))
        return names, data

    def spy_report(*args):
        alive.append(refs[0]() is not None)
        return report(*args)

    monkeypatch.setattr(cli, "_load_standardized", spy_load)
    monkeypatch.setattr(io_module, "path_report_dict", spy_report)
    assert main(["fit", DIABETES, "--response", "progression",
                 "--out", str(tmp_path / "fit.json")]) == 0
    assert alive == [False]


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
