"""Two-firm location competition with popularity externalities.

Closed-form enumeration of market equilibria, Nash analysis under
pessimistic / neutral / optimistic firm behavior, consumer-welfare
optima with price-of-anarchy and price-of-stability ratios, and
brute-force grid oracles that cross-check every closed form.
"""

from . import behaviors, model, oracle, welfare
from .behaviors import *  # noqa: F403
from .model import *  # noqa: F403
from .oracle import *  # noqa: F403
from .welfare import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*model.__all__, *behaviors.__all__, *welfare.__all__, *oracle.__all__]
