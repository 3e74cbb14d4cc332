"""Two-firm location competition with popularity externalities.

Closed-form enumeration of market equilibria, Nash analysis under
pessimistic / neutral / optimistic firm behavior, consumer-welfare
optima with price-of-anarchy and price-of-stability ratios, and
brute-force grid oracles that cross-check every closed form.

The closed forms need the stdlib alone. ``oracle``, the numpy layer, and
its exports load on first use (module ``__getattr__``), so importing the
package does not import numpy.
"""

import importlib

from . import behaviors, model, welfare
from .behaviors import *  # noqa: F403
from .model import *  # noqa: F403
from .welfare import *  # noqa: F403

__version__ = "0.1.0"

# the exports of ``oracle``, which takes this tuple as its ``__all__``
_ORACLE_EXPORTS = (
    "GridSpec",
    "oracle_market_equilibria",
    "oracle_best_deviation",
    "oracle_social_optimum",
    "oracle_ne_region_scan",
    "oracle_consumer_welfare",
    "verify_suites",
)

__all__ = [*model.__all__, *behaviors.__all__, *welfare.__all__, *_ORACLE_EXPORTS]


def __getattr__(name):
    # only for ``oracle`` and its exports: ``from locpop import cli`` asks
    # for ``cli`` here before importing it, and must not load numpy
    if name == "oracle" or name in _ORACLE_EXPORTS:
        oracle = importlib.import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
