"""Output checks computed apart from the program.

The references come from numpy least squares and scipy's chi-squared
quantiles on a design and response the benchmark standardizes itself
(centered, unit-norm columns, response divided by sqrt(n)); nothing here
imports ``larinfer``.  Each ``check_*`` function returns a list of messages,
empty when the output is right.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math
from pathlib import Path

import numpy as np
from scipy.stats import chi2

from workloads import Table, Workload

# Relative tolerances: path arithmetic accumulates over p steps; the
# program's chi-squared inversion is accurate to about 1e-8 absolute.
RTOL = 1e-7
THRESHOLD_RTOL = 1e-6
# Lowest share of replications with m_bar == m accepted for the scenario.
MIN_M_CORRECT = 0.8


class Reference:
    """Answers for one input table, computed with numpy and scipy."""

    def __init__(self, table: Table):
        X, y = table.X, table.y
        n, p = X.shape
        self.names, self.n, self.p = table.names, n, p
        self.Xc = X - X.mean(axis=0)
        self.yc = y - y.mean()
        self.Xs = self.Xc / np.linalg.norm(self.Xc, axis=0)
        self.ys = self.yc / math.sqrt(n)
        self.full_coef = np.linalg.lstsq(self.Xs, self.ys, rcond=None)[0]
        self.C1 = float(np.max(np.abs(self.Xs.T @ self.ys)))
        raw_coef = np.linalg.lstsq(self.Xc, self.yc, rcond=None)[0]
        resid = self.yc - self.Xc @ raw_coef
        self.sigma = math.sqrt(float(resid @ resid) / (n - p))
        self.thresholds = chi2.isf(1.0 / n, p - np.arange(1, p + 1) + 1)

    def active_fit(self, active: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """Least-squares coefficients on the active columns: standardized, raw."""
        std = np.linalg.lstsq(self.Xs[:, active], self.ys, rcond=None)[0]
        raw = np.linalg.lstsq(self.Xc[:, active], self.yc, rcond=None)[0]
        return std, raw


def _close(a, b, rtol: float, scale: float) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rtol * scale))


def _path_errors(doc: dict, ref: Reference, entrants: list[int]) -> list[str]:
    """Checks shared by fit and infer reports: the LAR path itself."""
    errors = []
    p = ref.p
    if doc.get("n") != ref.n or doc.get("p") != p:
        return [f"shape n={doc.get('n')} p={doc.get('p')}, expected {ref.n}, {p}"]
    if doc.get("variables") != ref.names:
        return ["variable names differ from the input header"]
    if sorted(entrants) != list(range(p)):
        return [f"entrants {entrants} are not a permutation of the {p} columns"]
    C = np.array([row["correlation"] for row in doc["steps"]], dtype=float)
    if not _close(C[0], ref.C1, RTOL, ref.C1):
        errors.append(f"C_1 = {C[0]!r}, max|X'y| = {ref.C1!r}")
    if not np.all(np.diff(C) < 0.0):
        errors.append("step correlations C_k do not strictly decrease")
    traces = np.asarray(doc["correlation_traces"], dtype=float)
    if traces.shape != (p, p):
        errors.append(f"correlation traces have shape {traces.shape}")
    else:
        for k in range(1, p + 1):
            active = entrants[:k]
            if not _close(traces[k - 1, active], np.full(k, C[k - 1]), RTOL, ref.C1):
                errors.append(f"active |c_j| differ from C_{k} at step {k}")
                break
            if np.max(traces[k - 1]) > C[k - 1] + RTOL * ref.C1:
                errors.append(f"an inactive |c_j| exceeds C_{k} at step {k}")
                break
    coefs = np.asarray(doc["coefficient_traces"], dtype=float)
    scale = max(1.0, float(np.max(np.abs(ref.full_coef))))
    if coefs.shape != (p, p) or not _close(coefs[-1], ref.full_coef, RTOL, scale):
        errors.append("final coefficient row differs from the least-squares fit")
    return errors


def check_fit(doc: dict, ref: Reference) -> list[str]:
    if doc.get("kind") != "fit":
        return [f"report kind {doc.get('kind')!r}, expected 'fit'"]
    entrants = [row["index"] for row in doc["steps"]]
    if [ref.names[j] for j in entrants] != [row["variable"] for row in doc["steps"]]:
        return ["step variable names disagree with step indices"]
    return _path_errors(doc, ref, entrants)


def check_infer(doc: dict, ref: Reference, wl: Workload) -> list[str]:
    if doc.get("kind") != "infer":
        return [f"report kind {doc.get('kind')!r}, expected 'infer'"]
    try:
        entrants = [ref.names.index(row["variable"]) for row in doc["steps"]]
    except ValueError:
        return ["a step names a variable that is not in the input"]
    errors = _path_errors(doc, ref, entrants)
    if errors:
        return errors
    p = ref.p
    if (doc["draws"], doc["seed"]) != (wl.draws, wl.seed):
        errors.append("draws or seed differ from the command line")
    if not _close(doc["sigma_hat"], ref.sigma, RTOL, ref.sigma):
        errors.append(f"sigma_hat {doc['sigma_hat']!r}, sqrt(RSS/(n-p)) = {ref.sigma!r}")
    S = np.array([row["tail_sum"] for row in doc["steps"]], dtype=float)
    thr = np.array([row["threshold"] for row in doc["steps"]], dtype=float)
    if not np.all(np.abs(thr - ref.thresholds) <= THRESHOLD_RTOL * ref.thresholds):
        errors.append("thresholds differ from chi2.isf(1/n, p-k+1)")
    exceeds = S > thr
    m_bar = 0 if not exceeds[0] else (int(np.argmin(exceeds)) if not exceeds.all() else p)
    if doc["m_bar"] != m_bar:
        errors.append(f"m_bar {doc['m_bar']} but the tail sums give {m_bar}")
    m_bar = doc["m_bar"]

    terminal = doc["terminal_coefficients"]
    if [row["variable"] for row in terminal] != [ref.names[j] for j in entrants[:m_bar]]:
        errors.append("terminal coefficients are not on the first m_bar entrants")
    elif m_bar:
        std, raw = ref.active_fit(entrants[:m_bar])
        est = [row["estimate"] for row in terminal]
        raw_est = [row["raw_estimate"] for row in terminal]
        if not _close(est, std, RTOL, max(1.0, float(np.max(np.abs(std))))):
            errors.append("terminal estimates differ from least squares on the active set")
        if not _close(raw_est, raw, RTOL, max(1.0, float(np.max(np.abs(raw))))):
            errors.append("raw terminal estimates differ from least squares on the raw data")

    lo = np.array([row["interval_lo"] for row in doc["steps"]], dtype=float)
    hi = np.array([row["interval_hi"] for row in doc["steps"]], dtype=float)
    if not (np.all(np.isfinite(lo)) and np.all(lo <= hi)):
        errors.append("a correlation interval is not ordered")
    if np.any(lo < 0.0):
        errors.append("a correlation lower bound is negative")
    for rows in (terminal, doc["coefficient_intervals"]):
        if any(not row["interval_lo"] <= row["interval_hi"] for row in rows):
            errors.append("a coefficient interval is not ordered")
            break
    freq = np.asarray(doc["membership_freq"], dtype=float)
    if freq.shape != (p, p):
        errors.append(f"membership matrix has shape {freq.shape}")
    elif (np.any(freq < 0.0) or np.any(freq > 1.0) or np.any(np.diff(freq, axis=1) < 0.0)
          or np.any(freq[:, -1] != 1.0)):
        errors.append("membership rows are not non-decreasing in [0, 1] ending at 1")
    if wl.entry_order is not None and [ref.names[j] for j in entrants] != wl.entry_order:
        errors.append("entry order differs from the published LARS order")
    return errors


COVERAGE_RATES = ("corr_coverage", "coef_coverage", "m_correct",
                  "terminal_coverage", "zero_step_coverage")


def check_coverage(rows: list[dict], scenario: dict) -> list[str]:
    if len(rows) != 1:
        return [f"results file has {len(rows)} data rows, expected 1"]
    row = rows[0]
    errors = []
    for key in ("n", "p", "m", "reps", "boot_draws", "seed"):
        if int(row[key]) != scenario[key]:
            errors.append(f"{key} = {row[key]} differs from the scenario")
    for key in COVERAGE_RATES:
        if not 0.0 <= float(row[key]) <= 1.0:
            errors.append(f"{key} = {row[key]} is not a rate in [0, 1]")
    if float(row["m_correct"]) < MIN_M_CORRECT:
        errors.append(f"m_correct = {row['m_correct']} below {MIN_M_CORRECT}")
    if not 1 <= int(row["reps_evaluated"]) <= scenario["reps"]:
        errors.append(f"reps_evaluated = {row['reps_evaluated']} out of range")
    return errors


class Checker:
    """Checks every output of one workload against its references."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.ref = Reference(wl.table) if wl.table is not None else None

    def load(self, out: Path):
        text = out.read_text(encoding="utf-8")
        if self.wl.kind == "simulate":
            return list(csv.DictReader(io.StringIO(text)))
        return json.loads(text)

    def errors(self, doc) -> list[str]:
        if self.wl.kind == "fit":
            return check_fit(doc, self.ref)
        if self.wl.kind == "infer":
            return check_infer(doc, self.ref, self.wl)
        return check_coverage(doc, self.wl.scenario)

    def check_file(self, out: Path) -> list[str]:
        try:
            doc = self.load(out)
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable output {out.name}: {exc}"]
        try:
            return self.errors(doc)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return [f"malformed output: {exc!r}"]

    def self_test(self, out: Path) -> list[str]:
        """Corrupt a good output in several ways; each must be rejected."""
        good = self.load(out)
        missed = []
        for label, corrupt in _corruptions(self.wl.kind):
            doc = copy.deepcopy(good)
            corrupt(doc)
            try:
                rejected = bool(self.errors(doc))
            except (KeyError, TypeError, ValueError, IndexError):
                rejected = True
            if not rejected:
                missed.append(f"checker accepted a report with {label}")
        return missed


def _bump_final_coef(doc):
    row = doc["coefficient_traces"][-1]
    row[0] += 1e-3 * (1.0 + abs(row[0]))


def _membership_hole(doc):
    doc["membership_freq"][0][-1] = 0.5


def _corruptions(kind: str):
    if kind == "simulate":
        return [("a rate above 1", lambda d: d[0].update(m_correct="1.5"))]
    found = [
        ("a perturbed final coefficient", _bump_final_coef),
        ("a repeated step correlation",
         lambda d: d["steps"][1].update(correlation=d["steps"][0]["correlation"])),
    ]
    if kind == "infer":
        found += [
            ("m_bar off by one", lambda d: d.update(m_bar=d["m_bar"] + 1)),
            ("sigma_hat off by 1%", lambda d: d.update(sigma_hat=d["sigma_hat"] * 1.01)),
            ("a membership row not ending at 1", _membership_hole),
        ]
    return found
