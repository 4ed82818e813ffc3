"""Run one ``homlie`` command in this process with tracing on.

    python3 perfbench/cli_traced.py SPANS_PATH solve --algebra sl5 --json

Prints what the command prints, exits with its exit code, and writes the
spans, the time of ``import homlie.cli`` and the time inside
``homlie.cli.main`` to SPANS_PATH.
"""

import sys
import time

from spans import Tracer


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import homlie.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        code = homlie.cli.main(argv)
    finally:
        main_s = time.perf_counter() - start
        tracer.uninstall()
        sys.stdout.flush()
        tracer.dump(path, import_s=import_s, main_s=main_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
