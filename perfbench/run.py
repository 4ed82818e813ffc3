"""The homlie benchmark.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Workloads (BENCHMARK.json says why each was chosen):

- ``ladder``: ``solve_structures`` on sl3..sl6, so5/so7 and sp4/sp6, one
  job per (algebra, kind);
- ``window``: ``solve_window`` on every degree shift of the sl2 loop
  models N = 2..6 and the twisted N = 3 model, one job per shift;
- ``battery``: the property suite over the builtin Lie battery up to dim 8
  plus 25 random algebras from the seed, one job per (algebra, check);
- ``cli``: fresh ``python -m homlie.cli`` processes, one job per command.

The seed permutes job order (ladder, window, cli) and generates the random
part of the battery.  Every result is checked against answers pinned from
the seed commit (``pinned.json``); a job that raises or differs counts as
failed.  In-process workloads run in worker processes, one after another
(SETUPS says how many): each times its own set-up and the passes are
dealt out among them, so the later workers only set up.  The cli workload
warms the file cache with one untimed ``import homlie.cli, sympy`` and
times fresh ``import homlie.cli`` processes as its set-up.

``--trace 0`` measures untraced.  The result line carries the bounded
end-to-end metrics (setup_s, wall_s, peak_rss_mb); the summary above it
adds fail_ratio, the median and tail single-job times, and setup_s and
wall_s unscaled.  setup_s and wall_s are scaled to a fixed machine speed
with the reference loop of ``speed.py``, timed next to the work: this
host's speed drifts by a third within minutes, which would otherwise swamp
the bounds.  The run keeps itself and its children on one CPU, so that the
loop and the work share it.

``--trace 1`` traces one set-up and one pass (run between two untraced
runs of the same pass, for the tracing overhead), prints the per-layer
metrics, unscaled, and writes the spans under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("ladder", "window", "battery", "cli")
# Set-ups timed per run; setup_s is their median.  Where a set-up is cheap
# there are more of them, because short times spread more.
SETUPS = {"ladder": 2, "window": 5, "battery": 3, "cli": 9}
# One pass of each workload takes about this long at the seed commit; the
# pass count is fixed from --seconds with it, so both sides of a comparison
# time the same work.
PASS_NOMINAL_S = 10
MIN_PASSES = 2
# The whole run must end within 180 s.
DEADLINE_S = 170
TAIL_BEYOND = 10

# The per-layer metric names are fixed in BENCHMARK.json, so the property
# checks and scenario ids are spelled out here rather than read from the
# package: a renamed check shows as a metric stuck at 0.
PROPERTIES = (
    "identity-membership",
    "submodule",
    "action-intertwines-jacobiator",
    "filippov-inclusion",
    "f-t-cocycle",
    "conjugation-stability",
    "semidirect-delta-embedding",
)
SCENARIOS = (
    "corollary-multiplicative",
    "current-formula",
    "filippov-inclusion",
    "intersection-identity",
    "jordan-closed-sl2",
    "jordan-counterexample",
    "km-window-twisted",
    "km-window-untwisted",
    "lemma-2.4-exactness",
    "lemma-2.5-sl2",
    "lemma-2.5-sl3",
    "prop-2.1",
    "prop-4.x-central-ext-oracle",
    "semidirect-delta-embedding",
    "thm-2.2-sl3",
    "thm-2.2-sl4",
    "thm-2.2-so5",
    "thm-2.2-sp4",
    "thm-3.1-inclusion",
)


class BenchError(Exception):
    pass


class Runner:
    """Starts child processes one at a time, inside the run's deadline."""

    def __init__(self):
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")

    def run(self, argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time")
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"timed out: {' '.join(argv)}")
        return time.perf_counter() - start, proc

    def worker(self, workload: str, seed: int, passes: list[int], trace: Path | None = None) -> dict:
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
        argv += ["--passes", ",".join(map(str, passes))]
        if trace:
            argv += ["--trace", str(trace)]
        _, proc = self.run(argv)
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.decode()[-2000:]}")
        return json.loads(proc.stdout.decode().strip().splitlines()[-1])

    def cli(self, command: str, traced: Path | None = None) -> tuple[float, subprocess.CompletedProcess]:
        entry = [str(HERE / "cli_traced.py"), str(traced)] if traced else ["-m", "homlie.cli"]
        return self.run([sys.executable, *entry, *command.split()])


def cli_summary(proc: subprocess.CompletedProcess) -> dict:
    return {"exit": proc.returncode, "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest()}


class Result:
    def __init__(self):
        self.setups: list[tuple[float, float]] = []  # (seconds, scaled seconds)
        self.passes: list[tuple[list[float], float]] = []  # (job seconds, scaled pass seconds)
        self.ref: list[float] = []  # reference-loop samples
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.notes: list[str] = []

    def add_worker(self, doc: dict) -> None:
        self.setups.append((doc["setup_s"], doc["setup_scaled_s"]))
        self.ref += doc["ref"]
        for p in doc["passes"]:
            if not p["traced"]:
                self.passes.append(([s for _, s in p["jobs"]], p["scaled_s"]))
        self.attempted += doc["attempted"]
        self.failures += [tuple(f) for f in doc["failures"]]

    def check_cli(self, pinned: dict, command: str, proc: subprocess.CompletedProcess) -> None:
        self.attempted += 1
        got, want = cli_summary(proc), pinned["cli"].get(command)
        if got != want:
            self.failures.append((command, f"got {got}, pinned {want}; stderr {proc.stderr.decode()[-500:]!r}"))
        if command.startswith("reproduce"):
            statuses = {r["id"]: r["status"] for r in json.loads(proc.stdout)["results"]}
            for sid, status in workloads.KNOWN_RED.items():
                note = (
                    f"known red: {sid} reports {statuses.get(sid)!r} (pinned {status!r}); "
                    f"`reproduce --all` exits {proc.returncode} (pinned {pinned['cli'][command]['exit']})"
                )
                if note not in self.notes:
                    self.notes.append(note)


def run_cli(runner: Runner, seed: int, passes: int, result: Result, pinned: dict) -> None:
    # Untimed: brings the package's and sympy's files into the page cache.
    runner.run([sys.executable, "-c", "import homlie.cli\ntry:\n    import sympy\nexcept ImportError:\n    pass"])
    # Every set-up and command lies between two reference-loop samples.
    gauge = speed.Gauge(interval=0)
    setups = []
    for _ in range(SETUPS["cli"]):
        gauge.before_job()
        seconds, proc = runner.run([sys.executable, "-c", "import homlie.cli"])
        gauge.after_job(seconds)
        if proc.returncode != 0:
            raise BenchError(f"import homlie.cli failed: {proc.stderr.decode()[-2000:]}")
        setups.append(seconds)
    result.setups += zip(setups, gauge.close())
    for k in range(passes):
        jobs = []
        for command in workloads.order(workloads.CLI_COMMANDS, seed, k):
            gauge.before_job()
            seconds, proc = runner.cli(command)
            gauge.after_job(seconds)
            jobs.append(seconds)
            result.check_cli(pinned, command, proc)
        result.passes.append((jobs, sum(gauge.close())))
    result.ref += gauge.samples


def tail(samples: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with TAIL_BEYOND samples beyond it,
    and that percentile."""
    ordered = sorted(samples)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(workload: str, seed: int, seconds: int) -> tuple[dict, Result]:
    runner, result, pinned = Runner(), Result(), workloads.load_pinned()
    passes = max(MIN_PASSES, round(seconds / PASS_NOMINAL_S))
    if workload == "cli":
        run_cli(runner, seed, passes, result, pinned)
    else:
        workers = SETUPS[workload]
        plan = [list(range(passes))[i::workers] for i in range(workers)]
        for indices in plan:
            result.add_worker(runner.worker(workload, seed, indices))
    job_times = [s for jobs, _ in result.passes for s in jobs]
    value, pct = tail(job_times)
    result.notes += [
        f"{passes} passes of {len(result.passes[0][0])} jobs, {len(result.setups)} set-ups",
        f"unscaled     setup_s {statistics.median(s for s, _ in result.setups):.6g} s, "
        f"wall_s {statistics.median(sum(jobs) for jobs, _ in result.passes):.6g} s",
        f"reference    {statistics.median(result.ref):.6g} s median of {len(result.ref)} loops "
        f"(scaled to {speed.REFERENCE_S} s)",
        f"job_p50_s    {statistics.median(job_times):.6g} s  (median of {len(job_times)} job times)",
        f"job_tail_s   {value:.6g} s  (p{pct:.1f} of {len(job_times)} job times, {TAIL_BEYOND} beyond it)",
    ]
    metrics = {
        "setup_s": (statistics.median(scaled for _, scaled in result.setups), "s"),
        "wall_s": (statistics.median(scaled for _, scaled in result.passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
    }
    return metrics, result


def traced(workload: str, seed: int) -> tuple[dict, Result]:
    runner, result, pinned = Runner(), Result(), workloads.load_pinned()
    OUT.mkdir(exist_ok=True)
    tracer = Tracer()
    extra: dict[str, tuple[float, str]] = {}
    if workload == "cli":
        spawn = [runner.run([sys.executable, "-c", "pass"])[0] for _ in range(SETUPS["cli"])]
        walls = {False: 0.0, True: 0.0}
        imports, out_bytes = [], 0
        for traced_pass in (False, True, False):
            for i, command in enumerate(workloads.order(workloads.CLI_COMMANDS, seed, 0)):
                path = OUT / f"spans-cli-{seed}-{i}.json" if traced_pass else None
                seconds, proc = runner.cli(command, path)
                walls[traced_pass] += seconds
                result.check_cli(pinned, command, proc)
                if traced_pass:
                    doc = json.loads(path.read_text())
                    tracer.merge(doc)
                    imports.append(doc["import_s"])
                    out_bytes += len(proc.stdout)
                    extra[f"cli.{command.split()[0]}_s"] = (doc["main_s"], "s")
        extra["cli.spawn_s"] = (statistics.median(spawn), "s")
        extra["cli.import_s"] = (statistics.median(imports), "s")
        extra["serialize.out_bytes"] = (out_bytes, "bytes")
        untraced_wall, traced_wall = walls[False] / 2, walls[True]
    else:
        doc = runner.worker(workload, seed, [0], trace=OUT / f"spans-{workload}-{seed}.json")
        result.attempted += doc["attempted"]
        result.failures += [tuple(f) for f in doc["failures"]]
        tracer.merge(doc["trace"])
        walls = [sum(s for _, s in p["jobs"]) for p in doc["passes"]]
        untraced_wall, traced_wall = (walls[0] + walls[2]) / 2, walls[1]
    extra["trace.wall_s"] = (traced_wall, "s")
    extra["trace.untraced_wall_s"] = (untraced_wall, "s")
    extra["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return layer_metrics(tracer, extra), result


def layer_metrics(t: Tracer, extra: dict) -> dict:
    def self_s(name: str) -> float:
        return t.agg.get(name, (0, 0.0, 0.0))[1]

    def total_s(name: str) -> float:
        return t.agg.get(name, (0, 0.0, 0.0))[2]

    def calls(name: str) -> int:
        return t.agg.get(name, (0, 0.0, 0.0))[0]

    def count(name: str) -> int:
        return t.counts.get(name, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    rows_in = count("linalg.rows_in")
    m = {
        "algebra.build_s": (self_s("algebra.build"), "s"),
        "algebra.multiply_calls": (calls("algebra.multiply"), "count"),
        "algebra.multiply_s": (self_s("algebra.multiply"), "s"),
        "constructions.build_s": (self_s("constructions.build"), "s"),
        "solver.compile_s": (self_s("solver.compile"), "s"),
        "solver.solve_calls": (calls("solver.solve"), "count"),
        "solver.solve_repeat_ratio": (ratio(count("solver.solve_repeats"), calls("solver.solve")), "1"),
        "linalg.eliminate_s": (self_s("linalg.eliminate"), "s"),
        "linalg.backsub_s": (self_s("linalg.backsub"), "s"),
        "linalg.rows_in": (rows_in, "count"),
        "linalg.rows_rank": (count("linalg.rows_rank"), "count"),
        "linalg.useful_row_ratio": (ratio(count("linalg.rows_rank"), rows_in), "1"),
        "linalg.last_rank_row_frac": (ratio(count("linalg.last_rank_rows"), rows_in), "1"),
        "linalg.max_pivot_bits": (count("linalg.max_pivot_bits"), "bits"),
        "linalg.subspace_ops": (calls("linalg.subspace"), "count"),
        "linalg.subspace_s": (self_s("linalg.subspace"), "s"),
        "window.blocks": (count("window.blocks"), "count"),
        "window.compile_s": (self_s("window.compile"), "s"),
        "window.inner_report_s": (self_s("window.inner_report"), "s"),
        "actions.act_calls": (calls("actions.act"), "count"),
        "actions.act_s": (self_s("actions.act"), "s"),
        "actions.eigen_s": (self_s("actions.eigen"), "s"),
        "actions.sympy_import_s": (self_s("actions.sympy_import"), "s"),
        "jordan.closure_s": (total_s("jordan.closure"), "s"),
        "jordan.counterexample_s": (total_s("jordan.counterexample"), "s"),
        "battery.generate_s": (total_s("battery.generate"), "s"),
    }
    for prop in PROPERTIES:
        m[f"battery.check_s.{prop}"] = (total_s(f"battery.check.{prop}"), "s")
    for sid in SCENARIOS:
        m[f"scenarios.{sid}_s"] = (total_s(f"scenarios.{sid}"), "s")
    m["cli.spawn_s"] = (0.0, "s")
    m["cli.import_s"] = (0.0, "s")
    for command in workloads.CLI_COMMANDS:
        m[f"cli.{command.split()[0]}_s"] = (0.0, "s")
    m["serialize.json_s"] = (self_s("serialize.json"), "s")
    m["serialize.out_bytes"] = (0, "bytes")
    m.update(extra)
    return m


def pin_to_one_cpu() -> None:
    """Keeps this process and its children on one CPU, the one that runs the
    reference loop fastest now, so that the loop and the work share it."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
        speeds = {}
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            speeds[cpu] = min(speed.reference_loop() for _ in range(3))
        os.sched_setaffinity(0, {min(cpus, key=speeds.get)})
    except (AttributeError, OSError):
        pass  # no affinity control: the loop and the work may then use different CPUs


def main() -> int:
    p = argparse.ArgumentParser(description="homlie benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "homlie" / "__init__.py").is_file():
        print(f"error: no homlie sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    try:
        if args.trace:
            metrics, result = traced(args.workload, args.seed)
        else:
            metrics, result = end_to_end(args.workload, args.seed, args.seconds)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    print(f"homlie benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    width = max(map(len, metrics))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")
    print(f"  fail_ratio {len(result.failures)}/{result.attempted} = {len(result.failures) / result.attempted:.6g}")
    for note in result.notes:
        print(f"  {note}")
    for name, message in result.failures:
        print(f"  FAILED {name}: {message}")
    print(
        json.dumps(
            {
                "correct": not result.failures,
                "attempted": result.attempted,
                "failed": len(result.failures),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
