"""The package namespace: one export list, gathered from the submodules,
a scalar core that runs without numpy, and per-call code that reads no enum
member through its class."""

import ast
import importlib.metadata
import importlib.util
import inspect
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import locpop
from locpop import cli, oracle

import scalar_corpus

PUBLIC_NAMES = [
    "BEST_NE_BREAKPOINT", "BehaviorKind", "DeviationReport", "EquilibriumCount",
    "EquilibriumProfile", "GameParams", "GridSpec", "Kind", "Locations", "MarketOutcome",
    "NE_TOL", "NashInterval", "NoEquilibriumError", "OptimumPoint", "ProfileWelfare",
    "RatioReport", "SHARE_TOL", "best_deviation", "best_ne_pessimistic", "consumer_utility",
    "consumer_welfare", "deviation_payoff", "distinct_shares",
    "enumerate_market_equilibria", "is_market_equilibrium", "is_nash",
    "market_equilibrium_count", "mirror_locations", "mirror_outcome", "mirror_profile",
    "nash_diameter_bounds_check", "nash_region_a_half", "neutral_nash",
    "oracle_best_deviation", "oracle_consumer_welfare", "oracle_market_equilibria",
    "oracle_ne_region_scan", "oracle_social_optimum", "pessimistic_nash_interval", "poa",
    "poa_minimizer_pessimistic", "pos", "social_optimum", "symmetric_pessimistic_nash_set",
    "verify_suites", "worst_ne_pessimistic",
]


def test_public_api_is_pinned():
    assert sorted(locpop.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 46
    for name in PUBLIC_NAMES:
        getattr(locpop, name)
    namespace = {}
    exec("from locpop import *", namespace)
    assert set(PUBLIC_NAMES) <= namespace.keys()
    assert locpop.__version__ == "0.1.0"


def test_exports_are_the_submodule_objects():
    for module in (locpop.model, locpop.behaviors, locpop.welfare, locpop.oracle):
        for name in module.__all__:
            assert getattr(locpop, name) is getattr(module, name)


def test_scalar_core_runs_without_numpy():
    """``import locpop`` and the CLI parser load neither numpy nor scipy
    (with numpy importable, so a guarded import shows too); with numpy
    blocked, ``model``, ``behaviors`` and ``welfare`` give the pinned corpus
    digest, the commands outside the numpy layer print their
    golden-manifest bytes, and the five figure tables, the region table from
    the cell-by-cell reference, match ``FIGURE_SHA256``. The checks are
    ``scalar_corpus.py``'s own."""
    done = subprocess.run([sys.executable, scalar_corpus.__file__],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"sha256 {scalar_corpus.PINNED_SHA256}"


def test_verify_imports_neither_numpy_random_nor_secrets():
    """``verify`` draws its instances from the stdlib generator, which the
    CLI has already loaded, so a fresh process running it never imports
    ``numpy.random``, nor ``secrets``, which ``numpy.random`` would bring."""
    src = Path(locpop.__file__).resolve().parent.parent
    script = ("import sys\n"
              "from locpop import cli\n"
              "code = cli.main(['verify', '--instances', '3', '--grid-shares', '3',"
              " '--grid-locations', '3'])\n"
              "print(code, sorted({'numpy.random', 'secrets'} & sys.modules.keys()))\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"


def test_records_load_no_dataclasses():
    """The records are slotted classes of the package's own, so a fresh
    process importing ``locpop.oracle`` (and with it numpy) never imports
    ``dataclasses``; ``tests/scalar_corpus.py`` checks the CLI parser."""
    src = Path(locpop.__file__).resolve().parent.parent
    script = "import sys\nimport locpop.oracle\nprint('dataclasses' in sys.modules)\n"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_no_enum_member_is_read_through_its_class_per_call():
    """No function or lambda body reads ``Kind.<MEMBER>`` or
    ``BehaviorKind.<MEMBER>``: on CPython <= 3.11 each such read runs the
    enum class's ``__getattr__``, so per-call code reads the members'
    module names. Module-level tables may spell them out."""
    members = {"Kind": set(locpop.Kind.__members__),
               "BehaviorKind": set(locpop.BehaviorKind.__members__)}
    sites = set()
    for module in (locpop.model, locpop.behaviors, locpop.welfare, oracle, cli):
        for scope in ast.walk(ast.parse(inspect.getsource(module))):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            bodies = [scope.body] if isinstance(scope, ast.Lambda) else scope.body
            sites.update(
                f"{module.__name__}:{node.lineno}:{node.col_offset} {node.value.id}.{node.attr}"
                for body in bodies for node in ast.walk(body)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.attr in members.get(node.value.id, ()))
    assert sorted(sites) == []


def test_code_line_count_skips_blank_comment_and_docstring_lines(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text('''"""Module docstring,
over two lines."""

import os  # a comment after code counts


def f(x):
    """Docstring."""
    # a comment line
    text = """a string that is
    not a docstring"""
    return (x +
            1)


class C:
    """Class docstring."""

    value = 1
''')
    script = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
    out = subprocess.run([sys.executable, str(script), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    # import, def, text (2 lines), return (2 lines), class, value
    assert out.splitlines() == [f"     8  {source}", "     8  total"]


def load_bench_pairs():
    path = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def test_bench_pairs_summary_counts_wins_and_the_gain_rule():
    bench_pairs = load_bench_pairs()
    # the parent reads 10..19 in every metric: quartiles 12.25, 14.5, 16.75
    # (inclusive method), so a gain needs its median moved by more than 4.5
    shifts = {
        "wall_s": [-5] * 10,  # 10 wins, medians 5 apart: a gain
        "setup_s": [-4] * 10,  # 10 wins, medians 4 apart: none
        "peak_rss_mb": [1, 1] + [-5] * 8,  # 8 wins: none
        "queries_per_s": [0] + [5] * 9,  # higher is better; a tie is no win: 9 wins, a gain
        "query_p50_us": [-5] * 10,  # absent from one run: no summary
    }
    pairs = [({name: 10 + k for name in shifts},
              {name: 10 + k + shift[k] for name, shift in shifts.items()}) for k in range(10)]
    del pairs[3][1]["query_p50_us"]
    metrics = [("wall_s", "lower"), ("setup_s", "lower"), ("peak_rss_mb", "lower"),
               ("queries_per_s", "higher"), ("query_p50_us", "lower")]
    even = {"parent": 0, "change": 0}  # failed operations per side
    summaries = bench_pairs.summarize(pairs, metrics, even)
    assert [(s["name"], s["wins"], s["pairs"], s["gain"]) for s in summaries] == [
        ("wall_s", 10, 10, True), ("setup_s", 10, 10, False),
        ("peak_rss_mb", 8, 10, False), ("queries_per_s", 9, 10, True)]
    # no gain where the change fails more operations, or over fewer than 10 pairs
    worse = bench_pairs.summarize(pairs, metrics, {"parent": 1, "change": 2})
    assert [s["gain"] for s in worse] == [False] * 4
    fewer = bench_pairs.summarize(pairs[:5], metrics[:1], even)
    assert (fewer[0]["wins"], fewer[0]["pairs"], fewer[0]["gain"]) == (5, 5, False)
    assert bench_pairs.summarize(pairs, metrics, {"parent": 2, "change": 1})[0]["gain"]
    assert summaries[0]["parent"] == (12.25, 14.5, 16.75)
    assert summaries[0]["change"] == (7.25, 9.5, 11.75)
    assert summaries[3]["change"] == (17.25, 19.5, 21.75)  # 10, 16, ..., 24
    assert bench_pairs.summary_lines(summaries[:1]) == [
        "wall_s           parent 14.5 [12.25, 16.75] -> change 9.5 [7.25, 11.75]"
        "  wins 10/10  gain yes"]
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_bench_pairs_records_each_workload_with_its_provenance(tmp_path):
    """Synthetic pairs of two workloads recorded into one file and read back;
    no benchmark runs."""
    bench_pairs = load_bench_pairs()
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side in (parent, change):
        (side / "src" / "locpop").mkdir(parents=True)
        (side / "src" / "locpop" / "model.py").write_text("A = 1\n")
        (side / "src" / "top.py").write_text("")
    # the same sources, with bytecode and a non-Python file beside them
    (change / "src" / "locpop" / "__pycache__").mkdir()
    (change / "src" / "locpop" / "__pycache__" / "model.cpython-311.pyc").write_bytes(b"\0")
    (change / "src" / "locpop" / "notes.txt").write_text("not code")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(parent)]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "parent"], check=True)
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True,
                          check=True).stdout.strip()
    origin = bench_pairs.provenance(parent, change)
    digest = bench_pairs.source_digest(parent)
    assert re.fullmatch(r"[0-9a-f]{64}", digest)
    assert origin == {
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "parent": {"revision": head, "source_sha256": digest, "pycache": False},
        "change": {"revision": None, "source_sha256": digest, "pycache": True}}
    # a changed byte, a renamed file or a moved boundary between two files
    # each change the digest
    (change / "src" / "locpop" / "model.py").write_text("A = 2\n")
    edited = bench_pairs.source_digest(change)
    (change / "src" / "locpop" / "model.py").rename(change / "src" / "locpop" / "other.py")
    renamed = bench_pairs.source_digest(change)
    (change / "src" / "locpop" / "other.py").write_text("A = 2")
    (change / "src" / "top.py").write_text("\n")
    moved = bench_pairs.source_digest(change)
    assert len({digest, edited, renamed, moved}) == 4
    even = {"parent": 0, "change": 0}
    metrics = [("wall_s", "lower"), ("peak_rss_mb", "lower")]
    path = tmp_path / "BENCH.json"
    for workload, step in (("verify", -1.0), ("figures", 0.5), ("verify", -2.0)):
        pairs = [({"wall_s": 10.0 + k, "peak_rss_mb": 30.0},
                  {"wall_s": 10.0 + k + step, "peak_rss_mb": 30.0}) for k in range(10)]
        summaries = bench_pairs.summarize(pairs, metrics, even)
        run = {"provenance": origin, "seconds": 20, "failed": even}
        bench_pairs.record(path, workload, summaries, run)
    # the second verify run replaced the first; figures was kept
    written = json.loads(path.read_text())
    assert sorted(written) == ["figures", "verify"]
    verify, figures = written["verify"], written["figures"]
    assert verify["provenance"] == figures["provenance"] == origin
    assert (verify["seconds"], verify["failed"]) == (20, even)
    assert verify["metrics"]["wall_s"] == {
        "parent": [12.25, 14.5, 16.75], "change": [10.25, 12.5, 14.75],
        "wins": 10, "pairs": 10, "gain": False}
    assert figures["metrics"]["wall_s"]["change"] == [12.75, 15.0, 17.25]
    assert figures["metrics"]["wall_s"]["wins"] == 0
    assert figures["metrics"]["peak_rss_mb"] == {
        "parent": [30.0, 30.0, 30.0], "change": [30.0, 30.0, 30.0],
        "wins": 0, "pairs": 10, "gain": False}


def test_bench_pairs_compares_with_the_newest_earlier_record(tmp_path):
    """Two synthetic records, and the medians of a new run against the newest
    earlier one's change medians, the change's move net of the parent's
    drift and flagged beyond each metric's bound; no benchmark runs."""
    bench_pairs = load_bench_pairs()
    assert bench_pairs.earlier_record(tmp_path / "BENCH_13.json") is None
    even = {"parent": 0, "change": 0}
    metrics = [("wall_s", "lower"), ("setup_s", "lower"), ("peak_rss_mb", "lower"),
               ("queries_per_s", "higher")]
    earlier = {"wall_s": 0.2, "setup_s": 0.1, "peak_rss_mb": 38.0, "queries_per_s": 100.0}
    for number, scale in ((3, 5.0), (12, 1.0), (20, 5.0)):  # 12 is the newest before 13
        pairs = [({name: value * scale for name, value in earlier.items()},) * 2] * 10
        bench_pairs.record(tmp_path / f"BENCH_{number}.json", "verify",
                           bench_pairs.summarize(pairs, metrics[:3], even), {})
    (tmp_path / "BENCH_notes.json").write_text("{}")
    assert bench_pairs.earlier_record(tmp_path / "BENCH_13.json") == tmp_path / "BENCH_12.json"
    assert bench_pairs.earlier_record(tmp_path / "BENCH_12.json") == tmp_path / "BENCH_3.json"
    assert bench_pairs.earlier_record(tmp_path / "BENCH.json") == tmp_path / "BENCH_20.json"
    runs = json.loads((tmp_path / "BENCH_12.json").read_text())
    bounds = {"wall_s": ("lower", 0.25), "setup_s": ("lower", 0.25),
              "peak_rss_mb": ("lower", 0.1), "queries_per_s": ("higher", 0.25)}
    # this run's parent is the code BENCH_12 measured as its change, but reads
    # wall_s 10% and peak_rss_mb 1 MB above it: the host's drift, which the
    # change's move is reported net of. Net of it, wall_s is 33% slower and
    # setup_s 40% faster, beyond their 25%: flagged; peak_rss_mb +0.3 MB,
    # inside RSS_NOISE_MB though 1.3 MB above the earlier median: not flagged
    parent = {"wall_s": 0.22, "setup_s": 0.1, "peak_rss_mb": 39.0, "queries_per_s": 50.0}
    now = {"wall_s": 0.286, "setup_s": 0.06, "peak_rss_mb": 39.3, "queries_per_s": 50.0}
    summaries = bench_pairs.summarize([(parent, now)] * 10, metrics, even)
    assert bench_pairs.comparison_lines(summaries, runs["verify"], bounds) == [
        "wall_s           earlier 0.2 -> parent 0.22 +10.0% -> change 0.286  net +33.0%"
        "  FLAG worse",
        "setup_s          earlier 0.1 -> parent 0.1 +0.0% -> change 0.06  net -40.0%"
        "  FLAG better",
        "peak_rss_mb      earlier 38 -> parent 39 +2.6% -> change 39.3  net +0.8%",
    ]  # queries_per_s is not in the earlier record
    # peak_rss_mb +0.7 MB net, beyond RSS_NOISE_MB though inside its 10% bound:
    # flagged; wall_s 20% slower net, inside its 25%: not
    now.update(peak_rss_mb=39.7, wall_s=0.26)
    summaries = bench_pairs.summarize([(parent, now)] * 10, metrics[:3], even)
    assert bench_pairs.comparison_lines(summaries, runs["verify"], bounds)[::2] == [
        "wall_s           earlier 0.2 -> parent 0.22 +10.0% -> change 0.26  net +20.0%",
        "peak_rss_mb      earlier 38 -> parent 39 +2.6% -> change 39.7  net +1.8%  FLAG worse",
    ]


STUB = '''import os, sys
seed, out = int(sys.argv[1]), sys.argv[2]
side = os.path.basename(os.getcwd())
assert os.environ["PYTHONPATH"] == os.path.join(os.getcwd(), "src")
assert os.path.isdir(os.path.dirname(out)) and not os.path.exists(out)
os.mkdir(out)
with open(sys.argv[3], "a") as log:
    log.write(f"{side} {seed} {out}\\n")
sys.exit(1 if (side, seed) == ("parent", 3) else 0)
'''


def test_bench_pairs_times_whole_processes_in_alternating_pairs(tmp_path, monkeypatch):
    """A stub command in two checkouts: ten pairs of PROCESS_RUNS turns each,
    the parent first in odd pairs, each run in its checkout with its ``src``
    on the path and a fresh output path that is gone afterwards; a non-zero
    exit is a failed operation. ``process_s`` has no bound, so a move of any size is not
    flagged."""
    bench_pairs = load_bench_pairs()
    log = tmp_path / "runs.log"
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "stub.py").write_text(STUB)
    pairs, failed = bench_pairs.process_pairs(
        tmp_path / "parent", tmp_path / "change",
        lambda seed, out: [sys.executable, "-S", "stub.py", str(seed), out, str(log)])
    runs = [line.split() for line in log.read_text().splitlines()]
    assert [(side, int(seed)) for side, seed, _ in runs] == [
        (side, seed) for seed in range(1, 11) for _ in range(bench_pairs.PROCESS_RUNS)
        for side in (("parent", "change") if seed % 2 else ("change", "parent"))]
    assert len({out for _, _, out in runs}) == len(runs) == 60
    assert not any(os.path.exists(os.path.dirname(out)) for _, _, out in runs)
    assert failed == {"parent": 3, "change": 0}  # each run of the failing side counts
    assert len(pairs) == 10
    assert all(set(side) == {"process_s"} and side["process_s"] > 0.0
               for pair in pairs for side in pair)
    # each side of a pair is the fastest of its runs
    runs = {"parent": [], "change": []}

    def scripted(argv, directory):
        side = Path(directory).name
        runs[side].append(argv)
        return {"parent": (0.3, 0.1, 0.2), "change": (0.2, 0.4, 0.5)}[side][
            (len(runs[side]) - 1) % 3], True

    monkeypatch.setattr(bench_pairs, "time_process", scripted)
    assert bench_pairs.process_pairs(tmp_path / "parent", tmp_path / "change",
                                     lambda seed, out: [seed]) == (
        [({"process_s": 0.1}, {"process_s": 0.2})] * 10, {"parent": 0, "change": 0})
    assert runs["parent"] == [[seed] for seed in range(1, 11) for _ in range(3)]
    [summary] = bench_pairs.summarize(pairs, [("process_s", "lower")], failed)
    assert summary["pairs"] == 10
    earlier = {"metrics": {"process_s": {"change": [0.1, 0.1, 0.1]}}}
    slower = bench_pairs.summarize([({"process_s": 0.1}, {"process_s": 0.5})] * 10,
                                   [("process_s", "lower")], failed)
    assert bench_pairs.comparison_lines(slower, earlier, {}) == [
        "process_s        earlier 0.1 -> parent 0.1 +0.0% -> change 0.5  net +400.0%"]
