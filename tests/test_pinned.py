"""The benchmark's oracle reads the package through ``perfbench/workloads.py``
and compares every ladder and window job with ``perfbench/pinned.json``; a
change of representation that breaks a job's summary or a pinned answer
must fail here, not in a later benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


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
