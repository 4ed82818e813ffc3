"""One worker process of an in-process workload (ladder, window, battery).

    python3 perfbench/worker.py --workload ladder --seed 1 --passes 0,1 [--trace PATH]

Times its own set-up (``import homlie`` plus building the inputs), runs the
given passes over the job list, checks every result with the oracle, and
prints one JSON object as its last line of output.  It times the reference
loop of ``speed.py`` before and after the set-up and, untraced, between
jobs, for the caller to scale the times by.  With ``--trace`` it traces the
set-up, runs one pass untraced, traced and untraced again, and writes the
spans to PATH.
"""

import time

import speed

_SETUP_REF = [speed.reference_loop() for _ in range(speed.SETUP_SAMPLES)]
_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402


def run_pass(jobs, tracer=None, gauge=None) -> list:
    """Run each job once; returns (name, seconds, result or None, error or
    None) per job."""
    out = []
    clock = time.perf_counter
    for job in jobs:
        if gauge:
            gauge.before_job()
        frame = tracer.enter("bench.job") if tracer else None
        t = clock()
        try:
            result, error = job.run(), None
        except Exception as e:  # a job that raises is a failed job, not a crash
            result, error = None, f"{type(e).__name__}: {e}"
        seconds = clock() - t
        out.append((job.name, seconds, result, error))
        if frame:
            tracer.exit(frame)
        if gauge:
            gauge.after_job(seconds)
    return out


def check(jobs_by_name, pinned, workload, outcomes) -> list:
    """Failures of one pass, as (job, message); runs outside the timed loop."""
    failures = []
    for name, _, result, error in outcomes:
        if error is not None:
            failures.append((name, error))
            continue
        want = workloads.expected(pinned, workload, name)
        try:
            got = jobs_by_name[name].summarize(result)
        except Exception as e:
            failures.append((name, f"summary raised {type(e).__name__}: {e}"))
            continue
        if got != want:
            failures.append((name, f"got {got!r}, pinned {want!r}"))
    return failures


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.SETUP))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--passes", default="", help="comma-separated pass indices")
    p.add_argument("--trace", help="trace, and write the spans to this file")
    args = p.parse_args()
    pinned = workloads.load_pinned()

    tracer = None
    if args.trace:
        import homlie.cli  # noqa: F401  (loads every module the tracer patches)
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    jobs = workloads.SETUP[args.workload](args.seed)
    setup_s = time.perf_counter() - _START
    gauge = None if tracer else speed.Gauge()
    setup_ref = _SETUP_REF + [speed.reference_loop() for _ in range(speed.SETUP_SAMPLES)] if gauge else []
    by_name = {j.name: j for j in jobs}
    permute = args.workload != "battery"

    passes, failures, attempted = [], [], 0
    indices = [int(k) for k in args.passes.split(",") if k]
    if tracer:
        # The traced pass sits between two untraced runs of the same pass,
        # so that drift and first-pass warm-up cancel in the overhead.
        tracer.uninstall()
        indices = indices[:1] * 3
    for n, k in enumerate(indices):
        traced = tracer is not None and n == 1
        if traced:
            tracer.install()
            tracer.begin_pass()
        outcomes = run_pass(workloads.order(jobs, args.seed, k) if permute else jobs, tracer if traced else None, gauge)
        if traced:
            tracer.uninstall()
        scaled_s = sum(gauge.close()) if gauge else None
        failures += check(by_name, pinned, args.workload, outcomes)
        attempted += len(outcomes)
        passes.append({"traced": traced, "jobs": [[name, s] for name, s, _, _ in outcomes], "scaled_s": scaled_s})

    doc = {"setup_s": setup_s, "passes": passes, "attempted": attempted, "failures": failures}
    if gauge:
        doc["setup_scaled_s"] = speed.scaled(setup_s, setup_ref)
        doc["ref"] = setup_ref + gauge.samples
    if tracer:
        tracer.dump(args.trace)
        doc["trace"] = tracer.to_json()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
