"""Set-up probe: import locpop and build the CLI parser in a fresh interpreter.

Prints "ready" as soon as set-up is done (run.py times the interpreter
from its start to that line), then one JSON line with the speed probe's
stolen time and scale. Nothing else is imported before locpop.
"""

from speed import SpeedProbe

with SpeedProbe() as probe:
    import locpop  # noqa: F401
    from locpop import cli

    cli.build_parser()
    stolen_s = probe.stolen_s
    print("ready", flush=True)

import json  # noqa: E402

print(json.dumps({"stolen_s": stolen_s, "scale": probe.scale}))
