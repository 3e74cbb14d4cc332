"""sha256 digests of CLI outputs, pinned in ``golden_outputs.json``, and of
the five figure files, pinned in ``perfbench/worker.py``.

Each invocation runs in-process through ``locpop.cli.main`` and its stdout
is hashed. ``mismatches`` is the one comparison with the manifest: tier-1's
``test_cli.py::test_outputs_match_the_golden_manifest`` runs it on every
command, and ``scalar_corpus.py`` on the commands outside the numpy layer
with numpy blocked. After an intended output change only, regenerate the
manifest with

    PYTHONPATH=src python tests/golden_outputs.py

``figure_mismatches`` is the one comparison with the figure digests, which
the benchmark's figures gate requires too: tier-1's
``test_cli.py::test_figures_writes_datasets`` runs it on the files of
``locpop figures``, and ``scalar_corpus.py`` on tables written with numpy
blocked.
"""

import ast
import contextlib
import hashlib
import io
import json
import pathlib
from itertools import zip_longest

from locpop.cli import main

MANIFEST = pathlib.Path(__file__).with_name("golden_outputs.json")
PERFBENCH_WORKER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"
BEHAVIORS = ("pessimistic", "neutral", "optimistic")
# the commands outside the numpy layer, which run on the stdlib alone
NUMPY_FREE_COMMANDS = ("market-eq", "nash-check", "welfare", "social-opt",
                       "symmetric-region", "poa-curve", "pos-curve")


def invocations():
    """The argv of every pinned invocation."""
    for a in ("0.3", "0.5"):
        for behavior in BEHAVIORS:
            for fmt in ("csv", "json"):
                yield ("nash-region", "--a", a, "--behavior", behavior,
                       "--grid-locations", "41", "--format", fmt)
    yield ("nash-region", "--a", "0.5", "--behavior", "pessimistic",
           "--grid-locations", "201", "--format", "json")
    for seed in ("0", "3", "7", "902", "1607"):
        yield ("verify", "--seed", seed)
    for fmt in ("csv", "json"):
        for behavior in BEHAVIORS:
            yield ("nash-check", "--a", "0.3", "--x1", "0.4", "--x2", "0.6", "--s1", "0.5",
                   "--behavior", behavior, "--format", fmt)
        yield ("market-eq", "--a", "0.5", "--x1", "0.333333", "--x2", "0.666667",
               "--format", fmt)
        for a in ("0.25", "0.75"):
            yield ("social-opt", "--a", a, "--format", fmt)
        yield ("welfare", "--a", "0.4", "--x1", "0.3", "--x2", "0.3", "--s1", "0.5",
               "--format", fmt)
        yield ("symmetric-region", "--a", "0.5", "--format", fmt)
        for curve in ("poa-curve", "pos-curve"):
            yield (curve, "--behavior", "pessimistic", "--format", fmt)
            yield (curve, "--behavior", "neutral", "--theta", "1.5", "--format", fmt)
    # edges of the tables' blocks: the smallest grids, the diagonal at the
    # largest externality of the figure sweep, a level of 8,243 rows that
    # eight blocks split, and a level whose tails threshold lies above its
    # ends threshold
    for fmt in ("csv", "json"):
        yield ("nash-region", "--a", "0.5", "--behavior", "pessimistic",
               "--grid-locations", "2", "--format", fmt)
    for a, n in (("0.5", "2"), ("0.5", "3"), ("0.995", "201"), ("0.9", "2001"),
                 ("0.9999999925669992", "2001")):
        for fmt in ("csv", "json"):
            yield ("symmetric-region", "--a", a, "--grid-locations", n, "--format", fmt)


def _chosen(argv, commands):
    return commands is None or argv[0] in commands


def digests(commands=None):
    """{invocation: sha256 of its stdout} for every pinned invocation of
    ``commands`` (default: all of them), each of which must exit 0."""
    result = {}
    for argv in invocations():
        if not _chosen(argv, commands):
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {code}")
        result[" ".join(argv)] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return result


def mismatches(commands=None):
    """One line per way the outputs of ``commands`` (default: every command)
    miss the manifest: a digest that differs, an invocation pinned but not
    run or run but not pinned, or no invocation selected at all."""
    pinned = {key: digest for key, digest in json.loads(MANIFEST.read_text()).items()
              if _chosen(key.split(), commands)}
    got = digests(commands)
    lines = [f"differs from the manifest: {key}" for key, digest in got.items()
             if key in pinned and digest != pinned[key]]
    lines += [f"pinned but not run: {key}" for key in pinned.keys() - got.keys()]
    lines += [f"run but not pinned: {key}" for key in got.keys() - pinned.keys()]
    if not pinned and not got:
        lines.append(f"no invocation of {commands} pinned or run")
    return sorted(lines)


def perfbench_literal(name):
    """The literal bound to ``name`` in perfbench/worker.py, whose gates
    require it: VERIFY_SUITES, the suites of the verify gate, or
    FIGURE_SHA256, the digests of the figures gate."""
    tree = ast.parse(PERFBENCH_WORKER.read_text())
    [value] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and [t.id for t in node.targets] == [name]]
    return ast.literal_eval(value)


def figure_mismatches(figures):
    """One line per way ``figures``, (file name, bytes) pairs in the order
    written, miss ``FIGURE_SHA256``: a file out of its order, missing or
    extra, or a digest that differs."""
    pinned = perfbench_literal("FIGURE_SHA256").items()
    got = [(name, hashlib.sha256(data).hexdigest()) for name, data in figures]
    return [f"figure (name, sha256) {g} where FIGURE_SHA256 has {p}"
            for g, p in zip_longest(got, pinned) if g != p]


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps(digests(), indent=2) + "\n")
    print(f"wrote {MANIFEST}")
