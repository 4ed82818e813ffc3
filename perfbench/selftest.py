"""Self-test of the benchmark's oracle.

    python3 perfbench/selftest.py

Feeds the oracle a corrupted pinned answer, a job that raises, a failing
property check and a cli output that differs from its pinned digest, and
exits 1 unless each one raises the fail ratio above 0 while the true
answers still pass.  Also checks that the battery's per-check jobs return
the rows ``run_property_suite`` returns.
"""

import copy
import sys

import workloads
from run import ROOT, Result, Runner
from worker import check, run_pass


def fail_ratio(failures: list, attempted: int) -> float:
    return len(failures) / attempted


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    pinned = workloads.load_pinned()
    jobs = {j.name: j for j in workloads.SETUP["window"](0)}
    job = jobs["N=3 shift=0"]
    outcomes = run_pass([job])

    corrupted = copy.deepcopy(pinned)
    corrupted["window"][job.name]["dim"] += 1
    raising = workloads.Job("raises", lambda: 1 / 0, lambda r: r)
    battery_jobs = workloads.SETUP["battery"](0)
    battery_job = battery_jobs[0]
    command = workloads.CLI_COMMANDS[-1]
    proc = Runner().cli(command)[1]
    bad_cli = copy.deepcopy(pinned)
    bad_cli["cli"][command]["stdout_sha256"] = "0" * 64
    cli_true, cli_bad = Result(), Result()
    cli_true.check_cli(pinned, command, proc)
    cli_bad.check_cli(bad_cli, command, proc)

    cases = [
        ("true pinned answer", check(jobs, pinned, "window", outcomes), 1, False),
        ("corrupted pinned answer", check(jobs, corrupted, "window", outcomes), 1, True),
        ("job that raises", check({"raises": raising}, pinned, "window", run_pass([raising])), 1, True),
        (
            "failing property check",
            check({battery_job.name: battery_job}, pinned, "battery", [(battery_job.name, 0.0, "witness", None)]),
            1,
            True,
        ),
        ("true cli output", cli_true.failures, cli_true.attempted, False),
        ("cli output off its pinned digest", cli_bad.failures, cli_bad.attempted, True),
    ]
    ok = True
    for name, failures, attempted, should_fail in cases:
        ratio = fail_ratio(failures, attempted)
        passed = (ratio > 0) == should_fail
        ok = ok and passed
        print(f"{'ok  ' if passed else 'FAIL'} {name}: fail_ratio {ratio:g} {failures[:1]}")

    from homlie import battery

    name, alg = battery.lie_battery(max_dim=workloads.BATTERY_MAX_DIM)[0]
    suite = [(f"{a} {p}", failure) for a, p, failure in battery.run_property_suite([(name, alg)], seed=0)]
    per_check = [(j.name, j.run()) for j in battery_jobs[: len(suite)]]
    same = suite == per_check
    ok = ok and same
    print(f"{'ok  ' if same else 'FAIL'} per-check battery jobs give run_property_suite's rows on {name}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
