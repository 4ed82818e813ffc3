"""The benchmark's oracle reads the package through ``perfbench/workloads.py``
and compares every ladder and window job, and the exit code and stdout of
every cli command, with ``perfbench/pinned.json``; a change of
representation that breaks a job's summary or a pinned answer, or the
oracle itself, must fail here, not in a later benchmark run."""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from homlie import cli

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"
PINNED_CLI = json.loads((ROOT / "perfbench" / "pinned.json").read_text())["cli"]


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["ladder", "window"])
def test_every_job_matches_its_pinned_answer(workload):
    workloads = _workloads()
    pinned = workloads.load_pinned()[workload]
    got = {job.name: job.summarize(job.run()) for job in workloads.SETUP[workload](1)}
    assert got.keys() == pinned.keys()
    for name, summary in got.items():
        assert summary == pinned[name], name


@pytest.mark.parametrize("command", sorted(PINNED_CLI))
def test_every_cli_command_matches_its_pinned_output(capsys, monkeypatch, command):
    """Each pinned command run in-process from the root of the checkout, as
    the benchmark runs it in a fresh process: the same exit code and the
    same stdout, byte for byte."""
    monkeypatch.chdir(ROOT)
    code = cli.main(command.split())
    out = capsys.readouterr().out.encode()
    assert {"exit": code, "stdout_sha256": hashlib.sha256(out).hexdigest()} == PINNED_CLI[command]


def test_the_benchmark_oracle_passes_its_self_test():
    """``perfbench/selftest.py`` run as the benchmark runs it, from the root
    of the checkout: the oracle catches each planted failure and passes the
    true answers."""
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
