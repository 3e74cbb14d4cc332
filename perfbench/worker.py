"""One unit of a workload, run in a fresh interpreter by run.py.

    python3 perfbench/worker.py '{"workload": "figures", "seed": 0, "unit": 0,
                                  "trace": false, "workdir": ".perfbench_work"}'

A unit is one ``locpop figures`` run, one ``locpop verify --seed`` run,
or a closed loop of QUERIES_PER_UNIT API calls, all made in-process on
one thread. Set-up (import and parser) is done before the unit is timed.
The unit runs under the speed probe (speed.py); every time reported
excludes the probe's own time. The worker checks the unit's outputs
itself and prints one JSON line: work time, per-operation latencies, the
probe's scale, attempted and failed operations, the problems found, peak
RSS and, when traced, the per-layer spans.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
import types

import locpop
from locpop import cli

import queries
from speed import SpeedProbe
from tracing import Tracer

QUERIES_PER_UNIT = 1100  # 100 blocks of the eleven query kinds

# sha256 of `locpop figures --theta 1` output at the commit that defined
# this benchmark; figure data must stay byte-identical.
FIGURE_SHA256 = {
    "symmetric_equilibria.csv": "61c0040bd831d68dad0bfa9c8492ab6a38f6f0738e2986b4087087506a117a4a",
    "nash_region_a_half.csv": "d9662ea2f8648174768e466f6caf7df680f3766ef885e71b505d852af16f9e89",
    "neutral_efficiency.csv": "94f9ac50ea2a62b3b498376d033f0776139b8731d3e05b6787146106ae3e0d70",
    "pessimistic_poa.csv": "438d4ca9c7f17bbc935e586fb664049cebf8af7ad79bb42be8954eca2c5c29b4",
    "pessimistic_pos.csv": "f9cb5e10a07976155b49e9619dfcb089281e07636693212844eb3f190d3bc0c6",
}

VERIFY_SUITES = (
    "market-equilibria",
    "best-deviation",
    "social-optimum",
    "pessimistic-region",
    "mirror-symmetry",
    "neutral-region",
    "optimistic-region",
)


def _run_cli(probe, run_main, argv):
    """Run the CLI in-process: (exit code or exception text, stdout, seconds)."""
    buf = io.StringIO()
    start = time.perf_counter()
    stolen = probe.stolen_s
    try:
        with contextlib.redirect_stdout(buf):
            status = run_main(argv)
    except Exception as exc:  # a crash is a failed operation, not a dead benchmark
        status = f"raised {exc!r}"
    seconds = time.perf_counter() - start - (probe.stolen_s - stolen)
    return status, buf.getvalue(), seconds


# Each unit function times its work under ``probe`` and returns
# (seconds, per-operation latencies, operations attempted, check), where
# check() runs after timing and returns (problems found, bytes output).


def figures_unit(spec, probe, run_main):
    out = os.path.join(spec["workdir"], f"figures-{spec['unit']}")
    status, stdout, seconds = _run_cli(probe, run_main, ["figures", "--theta", "1", "--out", out])

    def check():
        problems = [] if status == 0 else [f"exit status {status}"]
        bytes_out = len(stdout.encode())
        for name, digest in FIGURE_SHA256.items():
            try:
                with open(os.path.join(out, name), "rb") as handle:
                    data = handle.read()
            except FileNotFoundError:
                problems.append(f"{name} not written")
                continue
            bytes_out += len(data)
            if hashlib.sha256(data).hexdigest() != digest:
                problems.append(f"{name} differs from the recorded output")
        shutil.rmtree(out, ignore_errors=True)
        return problems, bytes_out

    return seconds, [seconds], 1, check


def verify_unit(spec, probe, run_main):
    status, stdout, seconds = _run_cli(probe, run_main, ["verify", "--seed", str(spec["seed"])])

    def check():
        problems = [] if status == 0 else [f"exit status {status}"]
        lines = stdout.splitlines()
        passed = {line.split()[1].rstrip(":") for line in lines if line.startswith("ok ")}
        problems += [line for line in lines if line.startswith("FAIL")]
        problems += [f"suite {name} not reported ok" for name in VERIFY_SUITES if name not in passed]
        return problems, len(stdout.encode())

    return seconds, [seconds], 1, check


def queries_unit(spec, probe, lib):
    batch = queries.stream(spec["seed"], spec["unit"], QUERIES_PER_UNIT)
    clock = time.perf_counter
    results, latencies = [], []
    start = clock()
    unit_stolen = probe.stolen_s
    for query in batch:
        stolen = probe.stolen_s
        began = clock()
        try:
            result = queries.call(lib, query)
        except Exception as exc:  # counted as a failed query below
            result = exc
        latencies.append(clock() - began - (probe.stolen_s - stolen))
        results.append(result)
    seconds = clock() - start - (probe.stolen_s - unit_stolen)

    def check():
        problems = []
        for query, result in zip(batch, results):
            try:
                ok = not isinstance(result, Exception) and queries.correct(query, result)
            except Exception:  # a result of the wrong shape is a wrong answer
                ok = False
            if not ok:
                problems.append(f"{query}: {result!r}")
        return problems, 0

    return seconds, latencies, len(batch), check


def main():
    spec = json.loads(sys.argv[1])
    tracer = Tracer() if spec["trace"] else None
    run_main = cli.main
    lib = types.SimpleNamespace(**{name: getattr(locpop, name) for name in locpop.__all__})
    if tracer:
        tracer.install()
        tracer.wrap_namespace(lib)
        run_main = tracer.wrap(cli.main, "cli")

    workload = spec["workload"]
    with SpeedProbe() as probe:
        if workload == "queries":
            seconds, latencies, attempted, check = queries_unit(spec, probe, lib)
        elif workload == "figures":
            seconds, latencies, attempted, check = figures_unit(spec, probe, run_main)
        else:
            seconds, latencies, attempted, check = verify_unit(spec, probe, run_main)
    problems, bytes_out = check()

    result = {
        "work_s": seconds,
        "latencies_s": latencies,
        "scale": probe.scale,
        "attempted": attempted,
        "failed": min(len(problems), attempted),
        "problems": problems[:5],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        tracer.remove()
        cache = getattr(locpop.behaviors, "_cached_best_deviation", None)
        info = cache.cache_info() if hasattr(cache, "cache_info") else None
        result["trace"] = {
            "spans": tracer.stats,
            "cache": None if info is None else [info.hits, info.misses],
            "bytes_out": bytes_out,
        }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
