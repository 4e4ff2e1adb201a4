"""Traced stand-in for `python -m gainarr.cli`.

Usage: python3 bench/cli_boot.py <trace-out.json> <gainarr arguments...>

Imports gainarr.cli, installs the tracer, runs gainarr.cli.main on the
arguments, and writes the per-layer summary plus the clock reading taken
once the imports were done to <trace-out.json>.  Standard output and the
exit code are those of the CLI.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gainarr.cli  # noqa: E402

T_IMPORTED = time.perf_counter()

import tracer  # noqa: E402


def main(argv):
    tr = tracer.Tracer().install()
    code = gainarr.cli.main(argv[1:])
    sys.stdout.flush()
    doc = {"t_start": T_START, "t_imported": T_IMPORTED, "trace": tr.summary()}
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
