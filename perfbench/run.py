"""locpop benchmark: set-up, end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload {figures,verify,queries} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ./src.
Every unit of work runs in a fresh interpreter (worker.py), one at a
time, with BLAS/OpenMP pinned to one thread. The run first starts
SETUP_PROBES interpreters that only import locpop and build the CLI
parser (setup_probe.py), and reports their median as ``setup_s``. It
then starts units until S seconds have passed (at least one). With
``--trace 1`` units alternate between untraced and traced, and the
per-layer spans of the traced ones are reported instead of the
end-to-end metrics. End-to-end times are normalised to a reference CPU
speed by speed.py; per-layer times are not.

Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See perfbench/README.md for what each workload and metric means.
"""

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBE = Path(__file__).resolve().parent / "setup_probe.py"
WORKDIR = ROOT / ".perfbench_work"
WORKLOADS = ("figures", "verify", "queries")
SETUP_PROBES = 5
IMPORT_PROBES = 3
UNIT_TIMEOUT_S = 150

PER_LAYER = (
    # (metric, unit)
    ("model.enumerate_market_equilibria.calls", "count"),
    ("model.enumerate_market_equilibria.self_s", "s"),
    ("model.market_equilibrium_count.self_s", "s"),
    ("model.is_market_equilibrium.self_s", "s"),
    ("behaviors.best_deviation.searched.calls", "count"),
    ("behaviors.best_deviation.searched.self_s", "s"),
    ("behaviors.best_deviation.pessimistic.self_s", "s"),
    ("behaviors.deviation_payoff.self_s", "s"),
    ("behaviors.search_cache.hit_ratio", "ratio"),
    ("behaviors.is_nash.calls", "count"),
    ("behaviors.is_nash.self_s", "s"),
    ("behaviors.is_nash.ne_ratio", "ratio"),
    ("behaviors.pessimistic_nash_interval.self_s", "s"),
    ("behaviors.symmetric_pessimistic_nash_set.self_s", "s"),
    ("welfare.consumer_welfare.calls", "count"),
    ("welfare.consumer_welfare.self_s", "s"),
    ("welfare.ratio.self_s", "s"),
    ("oracle.oracle_market_equilibria.self_s", "s"),
    ("oracle.oracle_best_deviation.self_s", "s"),
    ("oracle.oracle_social_optimum.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_out", "bytes"),
    ("import.locpop_s", "s"),
    ("import.scipy_optimize_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


class BenchError(Exception):
    """The benchmark could not run the program at all."""


def child_env():
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _communicate(cmd, env, timeout):
    """Run ``cmd`` to completion; (exit code, stdout, stderr). Kills it on timeout."""
    with subprocess.Popen(
        cmd, cwd=ROOT, env=env, text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except BaseException as exc:
            proc.kill()
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"{' '.join(cmd[1:2])} did not finish within {timeout} s") from exc
            raise
    return proc.returncode, out, err


def setup_probe(env):
    """Normalised seconds from starting an interpreter until locpop and its parser are ready."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(SETUP_PROBE)], cwd=ROOT, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            out, err = proc.stdout.read(), proc.stderr.read()
            proc.wait()
        finally:
            watchdog.cancel()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up failed: {err.strip()[-2000:]}")
    probe = json.loads(out)
    return (elapsed - probe["stolen_s"]) * probe["scale"]


def import_probe(env):
    """Cumulative seconds of `import locpop` and of scipy.optimize, from -X importtime."""
    code, _, err = _communicate([sys.executable, "-X", "importtime", "-c", "import locpop"], env, 60)
    if code != 0:
        raise BenchError(f"import failed: {err.strip()[-2000:]}")
    cumulative = {}
    for line in err.splitlines():
        fields = line.partition("import time:")[2].split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            cumulative[fields[2].strip()] = int(fields[1]) / 1e6
    return cumulative.get("locpop", 0.0), cumulative.get("scipy.optimize")


def run_unit(env, spec):
    code, out, err = _communicate([sys.executable, str(WORKER), json.dumps(spec)], env, UNIT_TIMEOUT_S)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise BenchError(f"{spec['workload']} worker exited {code}: {err.strip()[-2000:]}")
    return json.loads(lines[-1])


def percentile(sorted_values, pct):
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(setup, units):
    """(metric -> (value, unit, samples), p99 latency in us).

    A unit's rate is its operations over its work time; ``queries_per_s``
    is the median rate, so one unit caught in a slow spell of the host
    does not move it. The p99 latency is printed but is not a metric: on
    a shared host it moved 12-19% between runs, too much to gate on.
    """
    work = [u["work_s"] * u["scale"] for u in units]
    rates = [len(u["latencies_s"]) / w for u, w in zip(units, work)]
    latencies = sorted(x * u["scale"] for u in units for x in u["latencies_s"])
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_s": (statistics.median(work), "s", len(work)),
        "queries_per_s": (statistics.median(rates), "1/s", len(rates)),
        "query_p50_us": (percentile(latencies, 50) * 1e6, "us", len(latencies)),
        "peak_rss_mb": (statistics.median(u["rss_mb"] for u in units), "MB", len(units)),
    }
    return metrics, percentile(latencies, 99) * 1e6


def per_layer(plain, traced, imports):
    """Per-layer metrics, each the mean over traced units; also the names reported as absent.

    Span times are as measured; only ``trace.overhead_frac`` compares
    normalised work times, since traced and untraced units ran at
    different moments.
    """
    n = len(traced)

    def mean(span, field):  # field 0: calls, 1: self seconds, 2: calls returning True
        return sum(u["trace"]["spans"].get(span, [0, 0.0, 0])[field] for u in traced) / n

    def normalised(units):
        return sum(u["work_s"] * u["scale"] for u in units)

    absent = []
    caches = [u["trace"]["cache"] for u in traced if u["trace"]["cache"] is not None]
    if caches:
        hits, misses = sum(c[0] for c in caches), sum(c[1] for c in caches)
        hit_ratio = hits / (hits + misses) if hits + misses else 0.0
    else:
        hit_ratio = 0.0
        absent.append("behaviors.search_cache.hit_ratio")
    scipy_s = [s for _, s in imports if s is not None]
    if not scipy_s:
        absent.append("import.scipy_optimize_s")
    nash_calls = mean("behaviors.is_nash", 0)

    values = {
        "behaviors.search_cache.hit_ratio": hit_ratio,
        "behaviors.is_nash.ne_ratio": mean("behaviors.is_nash", 2) / nash_calls if nash_calls else 0.0,
        "cli.bytes_out": sum(u["trace"]["bytes_out"] for u in traced) / n,
        "import.locpop_s": statistics.median(s for s, _ in imports),
        "import.scipy_optimize_s": statistics.median(scipy_s) if scipy_s else 0.0,
        "trace.overhead_frac": normalised(traced) / normalised(plain) - 1.0,
    }
    for name, _ in PER_LAYER:  # "<span>.calls" and "<span>.self_s"
        span, _, field = name.rpartition(".")
        if field in ("calls", "self_s"):
            values[name] = mean(span, 0 if field == "calls" else 1)
    return {name: (values[name], unit, n) for name, unit in PER_LAYER}, absent


def git_revision():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_revision": git_revision(),
        "threads": "OMP_NUM_THREADS=OPENBLAS_NUM_THREADS=MKL_NUM_THREADS=1",
    }


def run(args):
    env = child_env()
    if args.trace:
        setup, imports = [], [import_probe(env) for _ in range(IMPORT_PROBES)]
    else:
        setup, imports = [setup_probe(env) for _ in range(SETUP_PROBES)], []

    plain, traced = [], []
    modes = (False, True) if args.trace else (False,)
    start = time.perf_counter()
    unit = 0
    while unit == 0 or time.perf_counter() - start < args.seconds:
        for trace in modes:
            spec = {"workload": args.workload, "seed": args.seed, "unit": unit,
                    "trace": trace, "workdir": str(WORKDIR)}
            (traced if trace else plain).append(run_unit(env, spec))
        unit += 1
    units = plain + traced
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for key, value in provenance().items():
        print(f"  {key}: {value}")
    for problem in [p for u in units for p in u["problems"]][:10]:
        print(f"  FAILED {problem}")
    print(f"  error_rate: {failed / attempted:.6g} ({failed} of {attempted} operations)")
    scales = sorted(u["scale"] for u in plain)
    print(f"  speed scale of untraced units: {' '.join(f'{x:.4f}' for x in scales)}")
    if args.trace:
        metrics, absent = per_layer(plain, traced, imports)
    else:
        metrics, p99 = end_to_end(setup, plain)
        absent = []
        ops = sum(len(u["latencies_s"]) for u in plain)
        print(f"  query_p99_us (printed, not gated): {p99:.6g} us, n={ops}")
    for name, (value, unit_name, samples) in metrics.items():
        note = " (absent)" if name in absent else ""
        print(f"  {name:48s} {value:14.6g} {unit_name:6s} n={samples}{note}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_name}
                    for name, (value, unit_name, _) in metrics.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "locpop" / "__init__.py").is_file():
        print(f"error: no locpop sources under {ROOT / 'src'}; run from a locpop checkout",
              file=sys.stderr)
        return 2
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir()
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
