"""One repetition of a suite workload, in a fresh interpreter.

Usage: python3 bench/worker.py <workload> <seed> <trace 0|1> <tiny 0|1> [setup]

Imports gainarr from the checkout's src/, runs the workload's suites in
order with seed=<seed>, and prints one JSON line: clock readings, one
entry per suite report (passed flag, digests, instance count), the
process's peak RSS, and with trace 1 the per-layer summary.  With the
trailing word `setup` it stops once imports and inputs are ready.
"""

import time

T_START = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gainarr.verify  # noqa: E402

import workloads  # noqa: E402


def digest(doc):
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def fixed_part(report):
    """The report without its seed and its seeded checks."""
    doc = {k: v for k, v in report.items() if k not in ("seed", "version")}
    doc["checks"] = [
        c for c in report["checks"] if c["name"] not in workloads.SEEDED_CHECKS
    ]
    return doc


def main(argv):
    name, seed, trace, tiny = argv[0], int(argv[1]), argv[2] == "1", argv[3] == "1"
    plan = (workloads.TINY_SUITES if tiny else workloads.SUITES)[name]
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer().install()
    suites = [(getattr(gainarr.verify, fn), dict(kw, seed=seed)) for fn, kw in plan]
    t_ready = time.perf_counter()
    if argv[4:] == ["setup"]:
        print(json.dumps({"t_start": T_START, "t_ready": t_ready}))
        return 0
    reports = [suite(**kw) for suite, kw in suites]
    t_done = time.perf_counter()
    out = {
        "t_start": T_START,
        "t_ready": t_ready,
        "t_done": t_done,
        "reports": [
            {
                "suite": r["suite"],
                "passed": r["passed"],
                "digest": digest({k: v for k, v in r.items() if k != "version"}),
                "fixed_digest": digest(fixed_part(r)),
                "instances": sum(c["instances"] for c in r["checks"]),
                "failures": r["failures"][:3],
            }
            for r in reports
        ],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "gainarr_file": gainarr.verify.__file__,
        "trace": tracer.summary() if tracer else None,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
