"""sha256 digests of CLI outputs, pinned in ``golden_outputs.json``.

Each invocation runs in-process through ``locpop.cli.main`` and its stdout
is hashed; ``test_cli.py::test_outputs_match_the_golden_manifest`` compares
the digests with the manifest. After an intended output change only,
regenerate the manifest with

    PYTHONPATH=src python tests/golden_outputs.py
"""

import contextlib
import hashlib
import io
import json
import pathlib

from locpop.cli import main

MANIFEST = pathlib.Path(__file__).with_name("golden_outputs.json")
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
    # edges of the tables' blocks: the smallest grids, and the diagonal at the
    # largest externality of the figure sweep
    for fmt in ("csv", "json"):
        yield ("nash-region", "--a", "0.5", "--behavior", "pessimistic",
               "--grid-locations", "2", "--format", fmt)
    for a, n in (("0.5", "2"), ("0.5", "3"), ("0.995", "201")):
        for fmt in ("csv", "json"):
            yield ("symmetric-region", "--a", a, "--grid-locations", n, "--format", fmt)


def digests(argvs=None):
    """{invocation: sha256 of its stdout} for each of ``argvs`` (default:
    every pinned invocation), each of which must exit 0."""
    result = {}
    for argv in invocations() if argvs is None else argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {code}")
        result[" ".join(argv)] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return result


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps(digests(), indent=2) + "\n")
    print(f"wrote {MANIFEST}")
