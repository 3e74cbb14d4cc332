"""The package namespace: one export list, gathered from the submodules."""

import locpop

PUBLIC_NAMES = [
    "BEST_NE_BREAKPOINT", "BehaviorKind", "ConsumerPosition", "DeviationReport",
    "EquilibriumCount", "EquilibriumProfile", "GameParams", "GridSpec", "Kind",
    "Locations", "MarketOutcome", "NE_TOL", "NashInterval", "NoEquilibriumError",
    "OptimumPoint", "ProfileWelfare", "RatioReport", "SHARE_TOL", "best_deviation",
    "best_deviation_pessimistic", "best_ne_pessimistic", "consumer_utility",
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
    assert len(PUBLIC_NAMES) == 48
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
