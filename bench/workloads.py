"""Seeded inputs and command lines for the benchmark workloads.

Each workload turns a seed into input files under a work directory and the
``larinfer`` command line that consumes them.  The program sees only those
files; the seed never reaches it except as the bootstrap ``--seed`` or the
scenario's own ``seed`` field.  The design matrix and response are also kept
in memory (exactly as written) so the checks can recompute the answers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIABETES_CSV = SRC / "larinfer" / "data" / "diabetes.csv"

# (rows, columns, nonzero coefficients) of the generated tables.
TALL_SHAPE = (4000, 40, 5)
WIDE_SHAPE = (5000, 200, 10)
TALL_DRAWS = 100
DIABETES_DRAWS = 500
# A well-separated scenario: with delta0 = 0.2 the tail-sum rule recovers
# m = 3 in every replication on seeds 0-39, and rejection sampling needs at
# most about 20 cheap attempts, so the work per run hardly depends on the seed.
COVERAGE_SCENARIO = {"n": 1000, "p": 20, "m": 3, "delta0": 0.2,
                     "reps": 20, "boot_draws": 40}

WORKLOAD_NAMES = ("infer-diabetes", "infer-tall", "fit-wide", "coverage")
# Entry order of the LARS path on the diabetes data (Efron et al. 2004).
DIABETES_ORDER = ["bmi", "ltg", "map", "hdl", "sex", "glu", "tc", "tch", "ldl", "age"]


@dataclass(frozen=True)
class Table:
    """A numeric table as the program will read it, response last."""

    names: list[str]  # feature names, response excluded
    X: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "fit" | "infer" | "simulate"
    argv: list[str]  # CLI arguments; "{out}" stands for the output path
    input_path: Path
    out_suffix: str
    table: Table | None  # fit and infer inputs
    scenario: dict | None  # simulate input
    draws: int = 0
    seed: int = 0
    entry_order: list[str] | None = None  # published order, when one exists

    def command(self, out: Path) -> list[str]:
        return [str(out) if a == "{out}" else a for a in self.argv]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), stream]))


def _sparse_table(rng: np.random.Generator, shape: tuple[int, int, int]) -> Table:
    """Gaussian design with a few strong coefficients and unit noise.

    Cells are rounded to 3 (design) and 6 (response) decimals so the values
    written as text parse back to exactly the arrays kept here.
    """
    n, p, m = shape
    X = np.round(rng.standard_normal((n, p)) * 1e3) / 1e3
    beta = np.zeros(p)
    support = rng.choice(p, m, replace=False)
    beta[support] = rng.uniform(0.5, 2.0, m) * rng.choice([-1.0, 1.0], m)
    y = np.round((X @ beta + rng.standard_normal(n)) * 1e6) / 1e6
    return Table([f"x{j + 1}" for j in range(p)], X, y)


def _write_table(table: Table, path: Path) -> None:
    p = table.X.shape[1]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(table.names + ["y"]) + "\n")
        np.savetxt(fh, np.column_stack([table.X, table.y]),
                   fmt=["%.3f"] * p + ["%.6f"], delimiter=",")


def read_diabetes() -> Table:
    """The bundled diabetes CSV, parsed with numpy rather than the program."""
    with open(DIABETES_CSV, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(DIABETES_CSV, delimiter=",", skiprows=1)
    resp = header.index("progression")
    keep = [i for i in range(len(header)) if i != resp]
    return Table([header[i] for i in keep], data[:, keep], data[:, resp])


def make(name: str, seed: int, workdir: Path) -> Workload:
    """Write the inputs of one workload for one seed and describe its command."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "infer-diabetes":
        return Workload(
            name, "infer",
            ["infer", str(DIABETES_CSV), "--response", "progression",
             "--draws", str(DIABETES_DRAWS), "--seed", str(seed), "--out", "{out}"],
            DIABETES_CSV, ".json", read_diabetes(), None, DIABETES_DRAWS, seed,
            DIABETES_ORDER,
        )
    if name == "infer-tall":
        table = _sparse_table(_rng(seed, 1), TALL_SHAPE)
        path = workdir / "tall.csv"
        _write_table(table, path)
        return Workload(
            name, "infer",
            ["infer", str(path), "--response", "y", "--draws", str(TALL_DRAWS),
             "--seed", str(seed), "--out", "{out}"],
            path, ".json", table, None, TALL_DRAWS, seed,
        )
    if name == "fit-wide":
        table = _sparse_table(_rng(seed, 2), WIDE_SHAPE)
        path = workdir / "wide.csv"
        _write_table(table, path)
        return Workload(
            name, "fit", ["fit", str(path), "--response", "y", "--out", "{out}"],
            path, ".json", table, None,
        )
    if name == "coverage":
        scenario = dict(COVERAGE_SCENARIO, seed=int(seed))
        path = workdir / "scenario.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        return Workload(
            name, "simulate", ["simulate", str(path), "--out", "{out}"],
            path, ".csv", None, scenario,
        )
    raise ValueError(f"unknown workload {name!r}")
