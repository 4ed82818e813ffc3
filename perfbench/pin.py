"""Record the answers the oracle compares against.

    python3 perfbench/pin.py

Runs every ladder and window job and every cli command once and writes
their summaries to ``perfbench/pinned.json``.  Run it only on a commit
whose answers are trusted (they were pinned at the commit that added the
benchmark); a later change that alters an answer must fail the benchmark,
not re-pin it.
"""

import json
import sys

import workloads
from run import Runner, cli_summary


def main() -> int:
    sys.path.insert(0, str(workloads.HERE.parent / "src"))
    doc = {}
    for workload in ("ladder", "window"):
        doc[workload] = {job.name: job.summarize(job.run()) for job in workloads.SETUP[workload](0)}
    runner = Runner()
    doc["cli"] = {command: cli_summary(runner.cli(command)[1]) for command in workloads.CLI_COMMANDS}
    workloads.PINNED_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"pinned {sum(map(len, doc.values()))} answers to {workloads.PINNED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
