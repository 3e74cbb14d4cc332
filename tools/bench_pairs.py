"""Compare two checkouts on one benchmark workload in alternating pairs.

Runs ``perfbench/run.py`` in each checkout (as its working directory)
for the ``run_seconds`` of ``BENCHMARK.json``, in 10 pairs, seeds 1..10.
Pair k runs the parent first when k is odd and the change first when k
is even, so neither side always runs on a warmer host. Only the last line
of each run's stdout is read: the JSON result that run.py prints. For
each end-to-end metric of ``BENCHMARK.json`` that both sides report,
prints each side's median [q1, q3], how many pairs the change wins, and
whether a gain holds: at least 10 pairs, the change fails no more
operations than the parent, wins at least 90% of the pairs, and its
median is better than the parent's by more than the parent's
interquartile range. Needs the standard library only.

With ``--record PATH`` the summaries are also merged into the JSON file
at PATH (created if absent), under the workload's name, with the
provenance of the run: core count, Python and numpy versions, and each
side's git revision, the sha256 digest of its Python sources under
``src`` (which names the code measured where the checkout has no git
history) and whether it holds compiled bytecode
(``src/locpop/__pycache__``). Runs of other workloads already in the file
are kept, so one file can hold a trajectory point for every workload.
For each workload, ``--record`` also times one command as a whole
process, ``python -m locpop.cli`` with ``figures --out <tmp>``, ``verify
--seed <k>`` or, for ``queries``, the numpy-free single-point ``market-eq
--a 0.3 --x1 0.2 --x2 0.4``, in each checkout in 10 more alternating
pairs. Each side of a pair is the fastest of PROCESS_RUNS fresh
processes, run in turn with the other side's, so one slow start of the
host does not make a pair. ``process_s``, summarized and recorded as the
perfbench metrics are, takes in the interpreter's start and the imports
(numpy's among them) that perfbench's worker makes before it starts its
clock. A run that exits non-zero counts as a failed operation.
The recorded workload's medians are then printed against the change
medians of the newest earlier record beside PATH: the ``BENCH_<n>.json``
with the largest n below PATH's own (any n when PATH's name carries
none). That record is taken to have measured this run's parent as its
change, so the parent's move from it is the drift of the host and the
run's setup, not of the code, and the change's move is reported net of
that drift. A net move is flagged where it exceeds the metric's
``bound`` in ``BENCHMARK.json``, as a share of the earlier median;
``peak_rss_mb`` instead where it exceeds RSS_NOISE_MB, the move that
compiled bytecode and source size alone cause; ``process_s`` has no bound
and is never flagged.

Run from the repository root::

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload figures
    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload verify --record BENCH.json
"""

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
PAIRS = 10  # pairs run, and the fewest that can show a gain
WIN_SHARE = 0.9  # least share of pairs the change must win for a gain
# MB that peak_rss_mb moves by with .pyc files and source size alone
RSS_NOISE_MB = 0.6
# the locpop command a workload times as a whole process, for a pair's seed
# and an output directory that does not exist yet
PROCESS_ARGS = {
    "figures": lambda seed, out: ["figures", "--out", out],
    "verify": lambda seed, out: ["verify", "--seed", str(seed)],
    "queries": lambda seed, out: ["market-eq", "--a", "0.3", "--x1", "0.2", "--x2", "0.4"],
}
PROCESS_RUNS = 3  # fresh processes per side of a pair, of which the fastest counts


def quartiles(values):
    """(q1, median, q3) of ``values``, by the inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs, metrics, failed):
    """One summary per metric of ``metrics``, a list of (name, better) with
    better "lower" or "higher", that every side of ``pairs`` reports.

    ``pairs`` is a list of (parent, change), each a dict of metric name to
    value; ``failed`` maps "parent" and "change" to the operations that
    side failed over all its runs. A summary is a dict: ``name``,
    ``parent`` and ``change`` (each (q1, median, q3)), ``wins`` (pairs
    where the change is strictly better), ``pairs`` and ``gain`` (the rule
    of the module docstring)."""
    summaries = []
    for name, better in metrics:
        if not all(name in side for pair in pairs for side in pair):
            continue
        sign = 1 if better == "lower" else -1  # sign * (parent - change) > 0: the change is better
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        (q1, p_median, q3), c_quartiles = quartiles(parent), quartiles(change)
        gain = (len(pairs) >= PAIRS and failed["change"] <= failed["parent"]
                and wins >= WIN_SHARE * len(pairs)
                and sign * (p_median - c_quartiles[1]) > q3 - q1)
        summaries.append({"name": name, "parent": (q1, p_median, q3), "change": c_quartiles,
                          "wins": wins, "pairs": len(pairs), "gain": gain})
    return summaries


def summary_lines(summaries):
    """The printed lines of :func:`summarize`'s summaries, one per metric."""
    def spread(q):
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    return [f"{s['name']:16s} parent {spread(s['parent'])} -> change {spread(s['change'])}"
            f"  wins {s['wins']}/{s['pairs']}  gain {'yes' if s['gain'] else 'no'}"
            for s in summaries]


def provenance(parent, change):
    """Where a run's pairs run: the host's core count, the Python and numpy
    versions of this interpreter, which runs both sides, and per side
    (``parent`` and ``change``, two checkouts) the ``git rev-parse HEAD``
    revision, None outside a repository, the :func:`source_digest` of the
    checkout, and whether ``src/locpop/__pycache__`` is there."""
    def side(directory):
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=directory,
                              capture_output=True, text=True)
        return {"revision": head.stdout.strip() if head.returncode == 0 else None,
                "source_sha256": source_digest(directory),
                "pycache": (Path(directory) / "src" / "locpop" / "__pycache__").is_dir()}

    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(), "numpy": numpy,
            "parent": side(parent), "change": side(change)}


def source_digest(directory):
    """The sha256 hex digest of the ``*.py`` files under ``directory/src``
    (bytecode and other files aside): each file's path relative to ``src``
    and its bytes, length-prefixed, in path order. Two checkouts of the
    same code give the same digest, with or without git history."""
    root = Path(directory) / "src"
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py"), key=lambda path: path.relative_to(root).as_posix()):
        name, data = path.relative_to(root).as_posix().encode(), path.read_bytes()
        digest.update(b"%d %s %d\n" % (len(name), name, len(data)) + data)
    return digest.hexdigest()


def record(path, workload, summaries, run):
    """Merge one workload's :func:`summarize` summaries into the JSON file
    at ``path``, under ``workload``, replacing an earlier run of it and
    keeping the other workloads. ``run`` holds the rest of the entry (the
    provenance, seconds and failed operations)."""
    path = Path(path)
    runs = json.loads(path.read_text()) if path.exists() else {}
    metrics = {s["name"]: {key: value for key, value in s.items() if key != "name"}
               for s in summaries}
    runs[workload] = {**run, "metrics": metrics}
    path.write_text(json.dumps(runs, indent=2, sort_keys=True) + "\n")


def earlier_record(path):
    """The newest ``BENCH_<n>.json`` in the directory of ``path`` before it:
    the largest n below the n of ``path``'s own name, or the largest of
    all others if that name carries none; None if there is none."""
    def number(candidate):
        match = re.fullmatch(r"BENCH_(\d+)\.json", candidate.name)
        return int(match.group(1)) if match else None

    path = Path(path)
    own = number(path)
    found = [(n, candidate) for candidate in path.parent.glob("BENCH_*.json")
             if (n := number(candidate)) is not None and candidate.name != path.name
             and (own is None or n < own)]
    return max(found)[1] if found else None


def comparison_lines(summaries, earlier, bounds):
    """One line per summary whose metric ``earlier`` (one workload's entry of
    an earlier record, which measured this run's parent as its change)
    holds: the earlier change median, this run's parent median and its
    drift from the earlier one, this run's change median, and the change's
    move net of the parent's drift, (change - earlier) - (parent -
    earlier), each relative to the earlier median. A flag marks a net move
    beyond the metric's bound; ``bounds`` maps a metric name to its
    ``(better, bound)`` in BENCHMARK.json, and ``peak_rss_mb`` is flagged
    beyond RSS_NOISE_MB instead; a metric with no bound there, as
    ``process_s``, is never flagged."""
    lines = []
    for s in summaries:
        if s["name"] not in earlier["metrics"]:
            continue
        old = earlier["metrics"][s["name"]]["change"][1]
        parent, new = s["parent"][1], s["change"][1]
        net = new - parent  # (new - old) - (parent - old)
        better, bound = bounds.get(s["name"], (None, None))
        if s["name"] == "peak_rss_mb":
            limit = RSS_NOISE_MB
        else:
            limit = None if bound is None else bound * abs(old)

        def share(move):
            return f"{move / old:+.1%}" if old else "n/a"

        line = (f"{s['name']:16s} earlier {old:.6g} -> parent {parent:.6g} "
                f"{share(parent - old)} -> change {new:.6g}  net {share(net)}")
        if limit is not None and abs(net) > limit:
            worse = net > 0 if better == "lower" else net < 0
            line += f"  FLAG {'worse' if worse else 'better'}"
        lines.append(line)
    return lines


def run_side(directory, workload, seconds, seed):
    """The JSON result of one ``perfbench/run.py`` run in ``directory``."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=directory, capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def time_process(argv, directory):
    """``(seconds, ok)`` of one run of the command ``argv`` in ``directory``,
    with its ``src`` first on the import path: the wall time from start to
    exit, and whether it exited 0. Its output is discarded."""
    env = {**os.environ, "PYTHONPATH": str(Path(directory).resolve() / "src")}
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=directory, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start, done.returncode == 0


def process_pairs(parent, change, command):
    """Whole-process timings of two checkouts in PAIRS alternating pairs,
    seeds 1..PAIRS: ``(pairs, failed)`` as :func:`summarize` reads them,
    each side of a pair ``{"process_s": seconds}``, the fastest of its
    PROCESS_RUNS runs. A pair runs the two sides in turn PROCESS_RUNS
    times, the parent first in odd pairs. ``command(seed, out)`` gives a
    run's argv; ``out`` is a path in a fresh temporary directory, removed
    after the run. Every run that exits non-zero is a failed operation."""
    pairs, failed = [], {"parent": 0, "change": 0}
    for seed in range(1, PAIRS + 1):
        sides = [("parent", parent), ("change", change)]
        results = {"parent": math.inf, "change": math.inf}
        for _ in range(PROCESS_RUNS):
            for side, directory in sides if seed % 2 else sides[::-1]:
                with tempfile.TemporaryDirectory() as tmp:
                    seconds, ok = time_process(command(seed, os.path.join(tmp, "out")), directory)
                failed[side] += not ok
                results[side] = min(results[side], seconds)
        pairs.append(({"process_s": results["parent"]}, {"process_s": results["change"]}))
    return pairs, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--record", metavar="PATH",
                        help="merge the summaries into this JSON file, keyed by workload")
    args = parser.parse_args(argv)
    with open(BENCHMARK) as handle:
        benchmark = json.load(handle)
    metrics = [(m["name"], m["better"]) for m in benchmark["end_to_end"]]
    bounds = {m["name"]: (m["better"], m["bound"]) for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    # before the runs, which may write bytecode
    origin = provenance(args.parent, args.change) if args.record else None
    pairs, failed = [], {"parent": 0, "change": 0}  # failed operations per side
    for seed in range(1, PAIRS + 1):
        sides = [("parent", args.parent), ("change", args.change)]
        results = {}
        for side, directory in sides if seed % 2 else sides[::-1]:
            result = run_side(directory, args.workload, seconds, seed)
            failed[side] += result["failed"]
            results[side] = {k: v["value"] for k, v in result["metrics"].items()}
        pairs.append((results["parent"], results["change"]))
        print(f"seed {seed}: " + "  ".join(
            f"{name} {results['parent'][name]:.6g} -> {results['change'][name]:.6g}"
            for name, _ in metrics if name in results["parent"] and name in results["change"]),
            flush=True)
    print(f"workload={args.workload} seconds={seconds} pairs={PAIRS} "
          f"failed operations: parent {failed['parent']}, change {failed['change']}")
    summaries = summarize(pairs, metrics, failed)
    print("\n".join(summary_lines(summaries)))
    if args.record:
        run = {"provenance": origin, "seconds": seconds, "failed": failed}
        if args.workload in PROCESS_ARGS:
            cli_args = PROCESS_ARGS[args.workload]
            timed, run["process_failed"] = process_pairs(
                args.parent, args.change,
                lambda seed, out: [sys.executable, "-m", "locpop.cli", *cli_args(seed, out)])
            processes = summarize(timed, [("process_s", "lower")], run["process_failed"])
            print(f"whole processes, failed: parent {run['process_failed']['parent']}, "
                  f"change {run['process_failed']['change']}")
            print("\n".join(summary_lines(processes)))
            summaries += processes
        record(args.record, args.workload, summaries, run)
        earlier = earlier_record(args.record)
        runs = json.loads(earlier.read_text()) if earlier else {}
        if args.workload in runs:
            print(f"medians against the change of {earlier.name}, net of the parent's drift:")
            print("\n".join(comparison_lines(summaries, runs[args.workload], bounds)))
        else:
            print(f"no earlier record of {args.workload} beside {args.record}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
