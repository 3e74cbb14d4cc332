"""Per-layer spans recorded from outside the library.

``Tracer.install`` replaces, in each locpop module that imports them, the
bindings of the functions listed in ``SPANS`` with wrappers that time
every call: ``cli`` -> behaviors/model/oracle/welfare, ``oracle`` ->
behaviors/model, ``behaviors``/``welfare`` -> model. A module's calls to
its own functions are not wrapped, and neither is ``model._equilibria``
(called thousands of times per deviation search), so a span's self time
includes the module-internal work below it. ``wrap_namespace`` wraps a
namespace of the benchmark's own, so its direct API calls are spans too.

Self time is a span's duration minus the durations of the spans opened
while it ran. ``remove`` restores every binding it replaced.
"""

import importlib
import time

# defining module -> {function name: span name}
SPANS = {
    "model": {
        "enumerate_market_equilibria": "model.enumerate_market_equilibria",
        "market_equilibrium_count": "model.market_equilibrium_count",
        "is_market_equilibrium": "model.is_market_equilibrium",
    },
    "behaviors": {
        "best_deviation": None,  # named by the behavior argument, see _best_deviation_span
        "best_deviation_pessimistic": "behaviors.best_deviation.pessimistic",
        "_search_best_deviation": "behaviors.best_deviation.searched",
        "deviation_payoff": "behaviors.deviation_payoff",
        "is_nash": "behaviors.is_nash",
        "pessimistic_nash_interval": "behaviors.pessimistic_nash_interval",
        "symmetric_pessimistic_nash_set": "behaviors.symmetric_pessimistic_nash_set",
    },
    "welfare": {
        "consumer_welfare": "welfare.consumer_welfare",
        "poa": "welfare.ratio",
        "pos": "welfare.ratio",
    },
    "oracle": {
        "oracle_market_equilibria": "oracle.oracle_market_equilibria",
        "oracle_best_deviation": "oracle.oracle_best_deviation",
        "oracle_social_optimum": "oracle.oracle_social_optimum",
    },
}
IMPORT_SITES = ("cli", "oracle", "behaviors", "welfare")


def _best_deviation_span(args, kwargs):
    behavior = kwargs["behavior"] if "behavior" in kwargs else args[1]
    kind = "pessimistic" if behavior.value == "pessimistic" else "searched"
    return f"behaviors.best_deviation.{kind}"


def _bound(namespace, skip=None):
    """(name, function, span) for each SPANS function that ``namespace`` binds."""
    for owner, table in SPANS.items():
        if owner == skip:
            continue
        defining = importlib.import_module(f"locpop.{owner}")
        for fname, span in table.items():
            fn = getattr(defining, fname, None)
            if fn is not None and getattr(namespace, fname, None) is fn:
                yield fname, fn, span


class Tracer:
    """Aggregated spans: name -> [calls, self seconds, calls that returned True]."""

    def __init__(self):
        self.stats = {}
        self._open = []  # child time accumulated by each open span
        self._replaced = []

    def _entry(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0])

    def wrap(self, fn, name):
        """``fn`` timed as span ``name``; ``name=None`` picks it per call."""
        open_spans = self._open
        clock = time.perf_counter
        fixed = None if name is None else self._entry(name)
        entry_for = self._entry

        def traced(*args, **kwargs):
            entry = fixed or entry_for(_best_deviation_span(args, kwargs))
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                entry[0] += 1
                entry[1] += elapsed - open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
            if result is True:
                entry[2] += 1
            return result

        return traced

    def install(self):
        for site in IMPORT_SITES:
            module = importlib.import_module(f"locpop.{site}")
            for fname, fn, span in list(_bound(module, skip=site)):
                self._replaced.append((module, fname, fn))
                setattr(module, fname, self.wrap(fn, span))

    def wrap_namespace(self, namespace):
        """Wrap the SPANS functions bound in ``namespace`` (an object with attributes)."""
        for fname, fn, span in list(_bound(namespace)):
            setattr(namespace, fname, self.wrap(fn, span))

    def remove(self):
        for module, fname, fn in reversed(self._replaced):
            setattr(module, fname, fn)
        self._replaced.clear()
