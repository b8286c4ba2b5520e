"""Traced in-process replay of one workload's command line.

Run as ``python3 trace_worker.py <config.json>`` in a fresh interpreter with
``src`` on the import path.  It times ``import larinfer.cli``, then calls
``larinfer.cli.main`` with the workload's arguments in pairs: once plain and
once with every instrumented function wrapped where each module looks it up
(for example ``larinfer.bootstrap.lar_path`` and
``larinfer.path.append_innovation``).  A wrapped call records a span (name,
parent, start, end); spans stay in memory until the replay ends.  The worker
writes per-layer metrics of every traced replay, the plain and traced wall
times, and the spans of the last traced replay.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
import traceback
from collections import defaultdict

# (span name, module, attribute); "Class.method" attributes patch the class.
TARGETS = [
    ("io.read_csv", "larinfer.io", "read_csv"),
    ("io.serialize", "larinfer.io", "path_report_dict"),
    ("io.serialize", "larinfer.io", "InferredPathReport.to_dict"),
    ("io.serialize", "larinfer.io", "write_json"),
    ("io.serialize", "larinfer.io", "write_fit_csv"),
    ("io.serialize", "larinfer.io", "write_infer_csv"),
    ("path.standardize", "larinfer.path", "standardize"),
    ("path.lar_path", "larinfer.path", "lar_path"),
    ("path.margins", "larinfer.path", "margins"),
    ("inference.basis", "larinfer.inference", "full_column_basis"),
    ("inference.sigma_hat", "larinfer.inference", "sigma_hat"),
    ("inference.chi2_thresholds", "larinfer.inference", "chi2_thresholds"),
    ("inference.report", "larinfer.inference", "build_inference_report"),
    ("bootstrap.intervals", "larinfer.bootstrap", "bootstrap_intervals"),
    ("bootstrap.collect", "larinfer.bootstrap", "BootstrapEngine.collect"),
    ("bootstrap.replica", "larinfer.bootstrap", "BootstrapEngine.replica"),
    ("bootstrap.terminal", "larinfer.bootstrap", "terminal_coefficients"),
    ("simulate.run_coverage", "larinfer.simulate", "run_coverage"),
    ("simulate.generate_scenario", "larinfer.simulate", "generate_scenario"),
    ("linalg.append_innovation", "larinfer.linalg", "append_innovation"),
    ("linalg.solve_spd", "larinfer.linalg", "solve_spd"),
]
LAYERS = ("cli", "io", "path", "inference", "bootstrap", "simulate", "linalg")


class Tracer:
    """Span recorder for one replay; single-threaded by construction."""

    def __init__(self):
        # each span: [name, parent index or -1, start, end, value]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.marks: list[float] = []  # progress callback times

    def call(self, name, fn, args, kwargs, value=None):
        idx = len(self.spans)
        rec = [name, self.stack[-1] if self.stack else -1, 0.0, 0.0, None]
        self.spans.append(rec)
        self.stack.append(idx)
        rec[2] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter()
            self.stack.pop()
        if value is not None:
            rec[4] = value(out)
        return out

    def wrap(self, name, fn):
        value = _steps if name == "path.lar_path" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "simulate.run_coverage" and kwargs.get("progress") is not None:
                kwargs["progress"] = self._marking(kwargs["progress"])
            return self.call(name, fn, args, kwargs, value)

        return wrapper

    def _marking(self, progress):
        def marked(done, total):
            self.marks.append(time.perf_counter())
            return progress(done, total)
        return marked


def _steps(path) -> int:
    return len(path.steps)


class Patches:
    """Installs wrappers on every module attribute bound to a target."""

    def __init__(self, tracer: Tracer):
        # (object, attribute, original, span name) for each patch site
        self.sites: list[tuple[object, str, object, str]] = []
        modules = [m for k, m in sys.modules.items()
                   if k == "larinfer" or k.startswith("larinfer.")]
        for name, module_name, attr in TARGETS:
            home = sys.modules[module_name]
            owner, _, leaf = attr.rpartition(".")
            cls = getattr(home, owner, None) if owner else None
            original = cls.__dict__.get(leaf) if cls is not None else getattr(home, attr, None)
            if original is None:
                print(f"trace: {module_name}.{attr} not found", file=sys.stderr)
            elif cls is not None:
                self.sites.append((cls, leaf, original, name))
            else:
                self.sites += [(module, key, original, name)
                               for module in modules
                               for key, val in vars(module).items() if val is original]
        self.wrappers = [tracer.wrap(name, original) for _, _, original, name in self.sites]

    def install(self):
        for (obj, key, _, _), wrapper in zip(self.sites, self.wrappers):
            setattr(obj, key, wrapper)

    def remove(self):
        for obj, key, original, _ in self.sites:
            setattr(obj, key, original)


def layer_metrics(tracer: Tracer, wall: float, import_s: float) -> dict[str, float]:
    """Per-layer figures of one traced replay."""
    spans = tracer.spans
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[1] >= 0:
            child[s[1]] += dur[i]
    total = defaultdict(float)
    self_time = defaultdict(float)
    count = defaultdict(int)
    durations = defaultdict(list)
    for i, s in enumerate(spans):
        total[s[0]] += dur[i]
        self_time[s[0]] += dur[i] - child[i]
        count[s[0]] += 1
        durations[s[0]].append(dur[i])

    def parent_name(s):
        return spans[s[1]][0] if s[1] >= 0 else None

    attempts = sum(1 for s in spans
                   if s[0] == "path.standardize" and parent_name(s) == "simulate.generate_scenario")
    loop_start = [s[3] for s in spans
                  if s[0] == "inference.chi2_thresholds" and parent_name(s) == "simulate.run_coverage"]
    replications = [b - a for a, b in zip(loop_start[-1:] + tracer.marks, tracer.marks)]
    layer_self = defaultdict(float)
    for name, t in self_time.items():
        layer_self[name.split(".")[0]] += t
    m = {
        "cli.import_s": import_s,
        "io.read_csv_s": total["io.read_csv"],
        "io.serialize_s": total["io.serialize"],
        "path.standardize_s": total["path.standardize"],
        "path.lar_path_s": self_time["path.lar_path"],
        "path.lar_path_calls": count["path.lar_path"],
        "path.steps": sum(s[4] or 0 for s in spans if s[0] == "path.lar_path"),
        "path.margins_s": total["path.margins"],
        "inference.basis_s": total["inference.basis"],
        "inference.sigma_hat_s": total["inference.sigma_hat"],
        "inference.chi2_thresholds_s": total["inference.chi2_thresholds"],
        "bootstrap.replica_s": statistics.median(durations["bootstrap.replica"])
        if durations["bootstrap.replica"] else 0.0,
        "bootstrap.replicas": count["bootstrap.replica"],
        "bootstrap.collect_s": self_time["bootstrap.collect"],
        "bootstrap.assembly_s": self_time["bootstrap.intervals"],
        "simulate.generate_scenario_s": total["simulate.generate_scenario"],
        "simulate.scenario_attempts": attempts,
        "simulate.accept_ratio": count["simulate.generate_scenario"] / attempts if attempts else 0.0,
        "simulate.replication_s": statistics.median(replications) if replications else 0.0,
        "linalg.append_innovation_calls": count["linalg.append_innovation"],
        "linalg.append_innovation_s": total["linalg.append_innovation"],
        "linalg.solve_spd_calls": count["linalg.solve_spd"],
        "linalg.solve_spd_s": total["linalg.solve_spd"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["trace.wall_s"] = wall
    m["trace.accounted_share"] = sum(layer_self.values()) / wall
    return m


def _replay(main, argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse errors
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


def run(cfg: dict) -> dict:
    t0 = time.perf_counter()
    import larinfer.cli
    import_s = time.perf_counter() - t0
    main = larinfer.cli.main
    replays: list[dict] = []
    last_spans: list[list] = []

    def replay(traced: bool | None) -> None:
        """One call of main; traced None marks the untimed warm-up call."""
        nonlocal last_spans
        out = f"{cfg['out_stem']}-{len(replays)}{cfg['out_suffix']}"
        argv = [out if a == "{out}" else a for a in cfg["argv"]]
        tracer = Tracer()
        patches = Patches(tracer) if traced else None
        if patches:
            patches.install()
        start = time.perf_counter()
        try:
            rc = (tracer.call("cli.main", _replay, (main, argv), {}) if traced
                  else _replay(main, argv))
        finally:
            wall = time.perf_counter() - start
            if patches:
                patches.remove()
        record = {"traced": traced, "rc": rc, "wall": wall, "out": out}
        if traced:
            record["metrics"] = layer_metrics(tracer, wall, import_s)
            last_spans = tracer.spans
        replays.append(record)

    # The warm-up call fills caches and finishes lazy set-up before timing.
    replay(None)
    deadline = time.perf_counter() + cfg["seconds"]
    while True:
        replay(False)
        replay(True)
        if time.perf_counter() >= deadline:
            break
    with open(cfg["spans"], "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "parent", "start", "end", "value"], "spans": last_spans}, fh)
    return {"import_s": import_s, "replays": replays}


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        config = json.load(fh)
    result = run(config)
    with open(config["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
