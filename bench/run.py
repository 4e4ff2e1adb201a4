"""gainarr benchmark: end-to-end metrics per workload, per-layer with --trace 1.

Run from the root of a checkout:

    python3 bench/run.py --workload oracles --seed 1 --seconds 30 --trace 0

Workloads: oracles, sweep and lowdim run verification suites (see
bench/workloads.py); cli makes `python -m gainarr.cli` calls.  Every
repetition of a suite workload and every CLI call runs in a fresh
interpreter, so each one starts with cold memo caches.  Repetitions are
made until --seconds is used up, and the reported figures are medians
over them.

With --trace 0 the last line of standard output is a JSON object whose
metrics are the end-to-end ones; with --trace 1 untraced and traced
repetitions alternate, the metrics are the per-layer ones, and the traced
outputs must equal the untraced ones.  Outputs are checked on every run:
suite reports must pass and CLI calls exit 0; report and stdout digests
must repeat across fresh interpreters and match bench/digests.json (the
seed-independent part always, everything for the default seed).

--record rewrites the workload's entry of bench/digests.json from the
default seed instead of measuring.  --tiny runs the smallest sizes, for
the smoke test.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("oracles", "sweep", "lowdim", "cli")
E2E_UNITS = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SETUP_SAMPLES = 15  # cold starts of ~0.1 s each: many, so their median holds still
MIN_REPS = 2
HARD_LIMIT_S = 170.0  # no child is left running past this point of a run

clock = time.perf_counter


def canonical_digest(doc):
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def p90(values):
    """The 90th percentile, interpolated between closest ranks."""
    if len(values) < 2:
        return sum(values)
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def git_sha(root):
    """HEAD of the checkout if it is a git work tree, read from .git only."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Gate:
    """Correctness bookkeeping: every operation either passes or is a miss."""

    def __init__(self, recorded):
        self.recorded = recorded
        self.first = {}
        self.attempted = 0
        self.misses = []

    def op(self, name, problems):
        self.attempted += 1
        if problems:
            self.misses.append(f"{name}: {'; '.join(problems)}")

    def digest_problems(self, key, name, digest, fixed_digest, default):
        """Compare against the run's first reading of `key` and the digests
        recorded for `name`: the full one when `default` holds (the input is
        the default seed's), the seed-independent one always."""
        out = []
        if digest != self.first.setdefault(key, digest):
            out.append("output differs from the first run of this operation")
        rec = self.recorded
        if default and rec.get("default", {}).get(name, digest) != digest:
            out.append("digest differs from the one recorded for the default seed")
        if rec.get("fixed", {}).get(name, fixed_digest) != fixed_digest:
            out.append("seed-independent digest differs from the recorded one")
        return out


class Runner:
    def __init__(self, args):
        self.args = args
        self.t0 = clock()
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p
            ),
            PYTHONHASHSEED="0",
        )
        # children read the bytecode the warm-up import wrote, as an
        # installed package would, whatever the caller's environment says
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def remaining(self):
        return max(1.0, HARD_LIMIT_S - (clock() - self.t0))

    def spawn(self, cmd):
        """Run a child to completion; returns (seconds, exit code, stdout, stderr)."""
        t = clock()
        try:
            p = subprocess.run(
                cmd,
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                timeout=self.remaining(),
            )
        except subprocess.TimeoutExpired:
            return clock() - t, None, b"", b"timed out"
        return clock() - t, p.returncode, p.stdout, p.stderr


# ---------------------------------------------------------------------------
# suite workloads


def rep_seed(seed, rep):
    """Suite seed of repetition `rep`: each repetition draws its own samples,
    so the median over a run averages over several seeded draws."""
    return seed * 1000 + rep


def run_worker(runner, traced, rep, setup_only=False):
    a = runner.args
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        a.workload,
        str(rep_seed(a.seed, rep)),
        "1" if traced else "0",
        "1" if a.tiny else "0",
    ]
    if setup_only:
        cmd.append("setup")
    t_spawn = clock()
    secs, code, out, err = runner.spawn(cmd)
    if code != 0:
        return None, f"worker exit {code}: {err.decode(errors='replace')[-300:]}"
    doc = json.loads(out.decode().strip().splitlines()[-1])
    doc["setup"] = doc["t_ready"] - t_spawn
    doc["call"] = secs
    if not setup_only:
        doc["wall"] = doc["t_done"] - doc["t_ready"]
        doc["items"] = sum(r["instances"] for r in doc["reports"])
    return doc, None


def check_rep(gate, rep, err, label, index, default):
    if rep is None:
        gate.op(label, [err])
        return
    src = os.path.join(ROOT, "src")
    for r in rep["reports"]:
        problems = []
        if not rep["gainarr_file"].startswith(src):
            problems.append(f"gainarr imported from {rep['gainarr_file']}")
        if not r["passed"]:
            problems.append(f"report did not pass: {json.dumps(r['failures'])[:300]}")
        problems += gate.digest_problems(
            f"{r['suite']} rep {index}",
            r["suite"],
            r["digest"],
            r["fixed_digest"],
            default and index == 0,
        )
        gate.op(f"{label} {r['suite']}", problems)


def suite_workload(runner, gate):
    a = runner.args
    default = not a.tiny and a.seed == workloads.DEFAULT_SEED
    setups = []
    for _ in range(SETUP_SAMPLES):
        doc, err = run_worker(runner, False, 0, setup_only=True)
        if doc is None:
            gate.op("setup", [err])
        else:
            setups.append(doc["setup"])
    plain, traced = [], []
    start = clock()
    for index in itertools.count():
        rep, err = run_worker(runner, False, index)
        check_rep(gate, rep, err, f"rep {index}", index, default)
        if rep is not None:
            plain.append(rep)
            setups.append(rep["setup"])
        if a.trace:
            rep, err = run_worker(runner, True, index)
            check_rep(gate, rep, err, f"traced rep {index}", index, default)
            if rep is not None:
                traced.append(rep)
        reps = len(plain) + len(traced)
        done = clock() - start
        if reps >= MIN_REPS and done + done / reps * (2 if a.trace else 1) > a.seconds:
            break
        if rep is None or clock() - runner.t0 > HARD_LIMIT_S - 10:
            break
    print(f"# reps: {len(plain)} untraced, {len(traced)} traced")
    if not plain or not setups or (a.trace and not traced):
        return None
    walls = [r["wall"] for r in plain]
    if not a.trace:
        # a call is one fresh-interpreter run of the workload, spawn to exit
        calls = [r["call"] for r in plain]
        return {
            "wall_s": statistics.median(walls),
            "items_per_s": statistics.median([r["items"] / r["wall"] for r in plain]),
            "call_p50_ms": statistics.median(calls) * 1000,
            "call_p90_ms": p90(calls) * 1000,
            "peak_rss_mb": statistics.median([r["maxrss_kb"] for r in plain]) / 1024,
            "setup_s": statistics.median(setups),
        }
    overhead = statistics.median([r["wall"] for r in traced]) - statistics.median(walls)
    return per_layer([r["trace"] for r in traced], overhead, startup=0.0)


# ---------------------------------------------------------------------------
# cli workload


def write_inputs(directory, graphs):
    os.makedirs(directory)
    for name, text in graphs.items():
        with open(os.path.join(directory, name + ".txt"), "w", encoding="utf-8") as fh:
            fh.write(text)


def stdout_digest(out):
    """Digest of a CLI JSON document with its version field left out."""
    doc = json.loads(out)
    doc.pop("version", None)
    return canonical_digest(doc)


def run_cycle(runner, gate, calls, inputs, work, traced, label, default):
    """One pass over the call cycle; returns (seconds, latencies, trace docs)."""
    lat, docs = [], []
    c0 = clock()
    for k, call in enumerate(calls):
        argv = call[:-1] + [os.path.join(inputs, call[-1] + ".txt")]
        key = " ".join(call)
        if traced:
            trace_path = os.path.join(work, f"trace{k}.json")
            cmd = [sys.executable, os.path.join(HERE, "cli_boot.py"), trace_path] + argv
        else:
            cmd = [sys.executable, "-m", "gainarr.cli"] + argv
        t_spawn = clock()
        secs, code, out, err = runner.spawn(cmd)
        lat.append(secs)
        problems = []
        if code != 0:
            problems.append(f"exit {code}: {err.decode(errors='replace')[-300:]}")
        else:
            try:
                digest = stdout_digest(out)
                problems += gate.digest_problems(key, key, digest, digest, default)
            except ValueError as exc:
                problems.append(f"stdout is not JSON: {exc}")
            if traced:
                with open(trace_path, encoding="utf-8") as fh:
                    doc = json.load(fh)
                doc["startup"] = doc["t_imported"] - t_spawn
                docs.append(doc)
        gate.op(f"{label} call {key}", problems)
    return clock() - c0, lat, docs


def cli_workload(runner, gate):
    a = runner.args
    default = not a.tiny and a.seed == workloads.DEFAULT_SEED
    graphs, calls = workloads.cli_inputs(a.seed, a.tiny)
    work = os.path.join(ROOT, ".bench_work", f"cli-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        setups = []
        for i in range(SETUP_SAMPLES):
            t = clock()
            inputs = os.path.join(work, f"inputs{i}")
            write_inputs(inputs, graphs)
            _, code, _, err = runner.spawn([sys.executable, "-c", "import gainarr.cli"])
            setups.append(clock() - t)
            if code != 0:
                gate.op("setup", [f"import failed: {err.decode(errors='replace')[-300:]}"])
        min_calls = len(calls) if a.tiny else workloads.MIN_CLI_CALLS
        plain, traced, lat, docs = [], [], [], []
        start = clock()
        for index in itertools.count():
            secs, l, _ = run_cycle(
                runner, gate, calls, inputs, work, False, f"cycle {index}", default
            )
            plain.append(secs)
            lat += l
            if a.trace:
                secs, _, d = run_cycle(
                    runner, gate, calls, inputs, work, True, f"traced cycle {index}", default
                )
                traced.append(secs)
                docs.append(d)
            done = clock() - start
            cycles = len(plain) + len(traced)
            if a.trace:
                if done + done / cycles * 2 > a.seconds:
                    break
            elif len(lat) >= min_calls and done + done / cycles > a.seconds:
                break
            if clock() - runner.t0 > HARD_LIMIT_S - 10:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    print(f"# cycles of {len(calls)} calls: {len(plain)} untraced, {len(traced)} traced")
    if not a.trace:
        return {
            "wall_s": statistics.median(plain),
            "items_per_s": statistics.median([len(calls) / s for s in plain]),
            "call_p50_ms": statistics.median(lat) * 1000,
            "call_p90_ms": p90(lat) * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            "setup_s": statistics.median(setups),
        }
    # per-layer figures of one cycle: sum over its calls
    summaries = []
    for cycle in docs:
        total = {}
        for doc in cycle:
            for k, v in doc["trace"].items():
                total[k] = total.get(k, 0) + v
        summaries.append(total)
    startups = [doc["startup"] for cycle in docs for doc in cycle]
    if not startups:
        return None
    overhead = statistics.median(traced) - statistics.median(plain)
    return per_layer(summaries, overhead, statistics.median(startups))


# ---------------------------------------------------------------------------


def per_layer(summaries, overhead, startup):
    out = {}
    for name in tracer.per_layer_units():
        vals = [s[name] for s in summaries if name in s]
        out[name] = statistics.median(vals) if vals else 0
    adds = statistics.median([s["charpoly.poset_adds"] for s in summaries])
    out["charpoly.flats_per_add"] = out["charpoly.poset_flats"] / adds if adds else 0.0
    out["cli.startup_s"] = startup
    out["trace_overhead_s"] = overhead
    return out


def record(runner):
    """Digests of the default seed, and the seed-independent ones."""
    a = runner.args
    entry = {"default": {}, "fixed": {}}
    if a.workload == "cli":
        graphs, calls = workloads.cli_inputs(a.seed)
        work = os.path.join(ROOT, ".bench_work", f"record-{os.getpid()}")
        try:
            write_inputs(work, graphs)
            for call in calls:
                argv = call[:-1] + [os.path.join(work, call[-1] + ".txt")]
                _, code, out, err = runner.spawn([sys.executable, "-m", "gainarr.cli"] + argv)
                if code != 0:
                    raise SystemExit(f"cannot record {call}: {err.decode()}")
                key, digest = " ".join(call), stdout_digest(out)
                entry["default"][key] = digest
                if call[-1] in workloads.FIXED_GRAPHS:
                    entry["fixed"][key] = digest
        finally:
            shutil.rmtree(work, ignore_errors=True)
    else:
        rep, err = run_worker(runner, False, 0)
        if rep is None or not all(r["passed"] for r in rep["reports"]):
            raise SystemExit(f"cannot record {a.workload}: {err or rep['reports']}")
        for r in rep["reports"]:
            entry["default"][r["suite"]] = r["digest"]
            entry["fixed"][r["suite"]] = r["fixed_digest"]
    table = load_digests()
    table[a.workload] = entry
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(entry['default'])} digests for {a.workload} in {DIGESTS}")


def load_digests():
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--record", action="store_true")
    return p.parse_args(argv)


def main(argv=None):
    a = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gainarr", "__init__.py")):
        print(f"bench: no gainarr sources under {ROOT}/src", file=sys.stderr)
        return 2
    runner = Runner(a)
    # first interpreter in a fresh checkout compiles the bytecode: not timed
    _, code, _, err = runner.spawn([sys.executable, "-c", "import gainarr.cli, gainarr.verify"])
    if code != 0:
        print(f"bench: cannot import gainarr: {err.decode(errors='replace')}", file=sys.stderr)
        return 2
    if a.record:
        a.seed = workloads.DEFAULT_SEED
        record(runner)
        return 0
    print(
        f"# workload {a.workload} seed {a.seed} seconds {a.seconds:g} trace {a.trace}"
        f" | nproc {os.cpu_count()} | python {sys.version.split()[0]}"
        f" | git {git_sha(ROOT)}"
    )
    print(f"# {workloads.NOTES[a.workload]}")
    if a.workload == "cli":
        _, calls = workloads.cli_inputs(a.seed, a.tiny)
        print(f"# call mix: {'; '.join(' '.join(c) for c in calls)}")
    else:
        plan = (workloads.TINY_SUITES if a.tiny else workloads.SUITES)[a.workload]
        print(f"# suites: {'; '.join(f'{fn}{kw}' for fn, kw in plan)}")
    recorded = {} if a.tiny else load_digests().get(a.workload, {})
    gate = Gate(recorded)
    if a.workload == "cli":
        values = cli_workload(runner, gate)
    else:
        values = suite_workload(runner, gate)
    units = tracer.per_layer_units() if a.trace else E2E_UNITS
    if values is None:
        # nothing was measured: report the misses with zero readings
        values = dict.fromkeys(units, 0.0)
    for miss in gate.misses:
        print(f"FAIL {miss}")
    attempted = max(gate.attempted, 1)
    print(f"# fail_ratio {len(gate.misses)}/{attempted} = {len(gate.misses) / attempted:g}")
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    result = {
        "correct": not gate.misses,
        "attempted": attempted,
        "failed": len(gate.misses),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
