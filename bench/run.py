"""Benchmark of the larinfer command line: end to end, or layer by layer.

Usage (from the repository root):

    python3 bench/run.py --workload infer-diabetes --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run times fresh ``import larinfer`` processes (set-up),
then runs the workload's ``larinfer`` command as a child process again and
again for ``--seconds`` seconds, closed loop (the next call starts when the
previous one has exited).  It reports medians of wall time, CPU time and peak
resident memory per call.  With ``--trace 1`` a fresh worker replays the same
command in-process, alternately plain and traced, for ``--seconds`` seconds
and the run reports per-layer metrics.  Every output is checked by
``checks.py``.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from checks import Checker
from workloads import ROOT, SRC

BENCH = Path(__file__).resolve().parent
# Each run times this many fresh interpreters importing larinfer (set-up).
IMPORT_PROBES = 5
CLI = "import sys; from larinfer.cli import main; sys.exit(main())"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], stderr_path: Path) -> tuple[int, float, float, float]:
    """Run a child to completion: (exit code, wall s, CPU s, peak RSS MiB)."""
    launcher = subprocess.Popen(
        [sys.executable, str(BENCH / "spawn.py"), str(stderr_path), *argv],
        env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        report, _ = launcher.communicate()
    except BaseException:
        launcher.terminate()
        launcher.wait()
        raise
    if launcher.returncode != 0:
        raise RuntimeError(f"launcher exited with {launcher.returncode}")
    fig = json.loads(report)
    return fig["rc"], fig["wall_s"], fig["cpu_s"], fig["peak_rss_mb"]


def declared_metrics(section: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def measure_setup(workdir: Path) -> float:
    times = []
    for _ in range(IMPORT_PROBES):
        rc, wall, _, _ = spawn([sys.executable, "-c", "import larinfer"], workdir / "import.err")
        if rc != 0:
            raise RuntimeError(f"import larinfer failed with exit code {rc}; "
                               f"see {workdir / 'import.err'}")
        times.append(wall)
    return statistics.median(times)


class Tally:
    """Attempted and failed calls, and whether every checked output was right."""

    def __init__(self, wl: workloads.Workload):
        self.checker = Checker(wl)
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.self_tested = False

    def record(self, rc: int, out: Path) -> bool:
        """Count one call; True when it exited 0 and its output checks out."""
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            print(f"call {self.attempted}: exit code {rc}", file=sys.stderr)
            return False
        errors = self.checker.check_file(out)
        if not errors and not self.self_tested:
            self.self_tested = True
            errors = self.checker.self_test(out)
        if errors:
            self.failed += 1
            self.correct = False
            for e in errors:
                print(f"call {self.attempted}: {e}", file=sys.stderr)
            return False
        return True


def timed_run(wl: workloads.Workload, seconds: float, workdir: Path) -> dict:
    setup_s = measure_setup(workdir)
    tally = Tally(wl)
    walls, cpus, rss = [], [], []
    out = workdir / f"out{wl.out_suffix}"
    command = [sys.executable, "-c", CLI, *wl.command(out)]
    deadline = time.perf_counter() + seconds
    while True:
        out.unlink(missing_ok=True)
        rc, wall, cpu, peak = spawn(command, workdir / "cli.err")
        if tally.record(rc, out):
            walls.append(wall)
            cpus.append(cpu)
            rss.append(peak)
        if time.perf_counter() >= deadline:
            break
    if not walls:
        raise RuntimeError("no call succeeded")
    print(f"{wl.name}: {len(walls)} timed calls, wall s: "
          + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rss),
    }
    return result(tally, values, "end_to_end")


def traced_run(wl: workloads.Workload, seconds: float, workdir: Path) -> dict:
    cfg = {
        "argv": wl.argv,
        "seconds": seconds,
        "out_stem": str(workdir / "replay"),
        "out_suffix": wl.out_suffix,
        "result": str(workdir / "trace.json"),
        # kept after the run, unlike the rest of the work directory
        "spans": str(workdir.parent / f"spans-{workdir.name}.json"),
    }
    cfg_path = workdir / "trace_config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    rc, _, _, _ = spawn([sys.executable, str(BENCH / "trace_worker.py"), str(cfg_path)],
                        workdir / "trace.err")
    if rc != 0:
        raise RuntimeError(f"trace worker exited with {rc}; see {workdir / 'trace.err'}")
    with open(cfg["result"], encoding="utf-8") as fh:
        replays = json.load(fh)["replays"]
    tally = Tally(wl)
    plain, traced, layers, outs = [], [], [], []
    for replay in replays:
        if tally.record(replay["rc"], Path(replay["out"])):
            outs.append(Path(replay["out"]))
            if replay["traced"]:
                traced.append(replay["wall"])
                layers.append(replay["metrics"])
            elif replay["traced"] is False:
                plain.append(replay["wall"])
    if not (plain and traced):
        raise RuntimeError("no traced and plain replay pair succeeded")
    values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    values["trace.untraced_wall_s"] = statistics.median(plain)
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    values["io.bytes_in"] = wl.input_path.stat().st_size
    values["io.bytes_out"] = outs[-1].stat().st_size
    return result(tally, values, "per_layer")


def result(tally: Tally, values: dict[str, float], section: str) -> dict:
    units = declared_metrics(section)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do not match "
                           f"the {section} list in BENCHMARK.json")
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "larinfer" / "cli.py").is_file():
        print(f"error: no larinfer sources under {SRC}", file=sys.stderr)
        return 2
    workdir = BENCH / "out" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        wl = workloads.make(args.workload, args.seed, workdir)
        run = traced_run if args.trace else timed_run
        doc = run(wl, args.seconds, workdir)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
