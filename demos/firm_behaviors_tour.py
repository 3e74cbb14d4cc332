#!/usr/bin/env python3
"""Tour of firm behaviors: how attitude toward multiplicity shapes equilibrium.

A firm contemplating a move cannot know which market split the consumers
will coordinate on afterwards. Pessimists expect the split that hurts
them most, optimists the one that helps them most, neutrals average.
The stable location pairs differ drastically across the three attitudes.
"""

from locpop import (
    BehaviorKind,
    EquilibriumProfile,
    GameParams,
    Locations,
    deviation_payoff,
    enumerate_market_equilibria,
    is_nash,
    nash_region_a_half,
    neutral_nash,
    pessimistic_nash_interval,
    symmetric_pessimistic_nash_set,
)

print("=" * 66)
print("1. One deviation, three evaluations")
print("=" * 66)
params = GameParams(0.6)
print(f"  a={params.a}; firm 1 moves to 0.0 against an opponent at 0.5")
for behavior in BehaviorKind:
    rep = deviation_payoff(params, behavior, 1, 0.0, 0.5)
    shares = ", ".join(f"{o.s1:.4f}" for o in rep.outcomes_considered)
    print(f"    {behavior.value:<12s} payoff {rep.payoff:.4f}   over splits [{shares}]")

print("""
  The optimist books the monopoly split and is never satisfiable: any
  location within the externality band of the opponent admits a split
  where the deviator takes everything, so no profile survives.""")
profile = EquilibriumProfile(Locations(0.5, 0.5),
                             enumerate_market_equilibria(params, Locations(0.5, 0.5))[2])
print(f"    is_nash(optimistic, centered profile) = "
      f"{is_nash(params, BehaviorKind.OPTIMISTIC, profile)}")

print()
print("=" * 66)
print("2. Neutral firms: minimal differentiation up to a = 1/2")
print("=" * 66)
for a in (0.2, 0.5, 0.65):
    ne = neutral_nash(GameParams(a))
    desc = f"({ne.x1}, {ne.x2}) splitting evenly" if ne else "none"
    print(f"    a={a:<5} neutral NE: {desc}")
print("""
  Past a = 1/2 a neutral firm gains on average by stepping away from the
  center: the move kills the unfavorable tail split while keeping the
  favorable one, so the average beats 1/2 and the center unravels.""")
rep = deviation_payoff(GameParams(0.51), BehaviorKind.NEUTRAL, 1, 0.0, 0.5)
print(f"    a=0.51: moving to 0.0 averages {rep.payoff:.4f} > 0.5")

print()
print("=" * 66)
print("3. Pessimistic firms: an interval of supportable splits")
print("=" * 66)
params = GameParams(0.3)
for x1, x2 in ((0.4, 0.6), (0.45, 0.55), (0.2, 0.45)):
    interval = pessimistic_nash_interval(params, Locations(x1, x2))
    clamped = interval.clamped()
    body = f"s1 in [{clamped[0]:.4f}, {clamped[1]:.4f}]" if clamped else "none (empty interval)"
    print(f"    locations ({x1}, {x2}):  supportable {body}")
print("""
  Differentiated locations persist because moving close to the opponent
  risks the zero-share split. A split is a pessimistic NE exactly when
  it is a market split and lands in the interval above.""")

print()
print("=" * 66)
print("4. Symmetric pairs (x1, 1 - x1): three nested regimes")
print("=" * 66)
params = GameParams(0.5)
print(f"  a={params.a}: thresholds (1-a)/2={0.25}, (1-a^2)/2={0.375}, 1-a={0.5}")
for x1 in (0.2, 0.3, 0.42, 0.5):
    values = symmetric_pessimistic_nash_set(params, x1)
    print(f"    x1={x1:<5} NE shares {tuple(round(v, 4) for v in values)}")

print()
print("=" * 66)
print("5. The full NE map at a = 1/2 is non-convex")
print("=" * 66)
print("  kinds forming an NE along the column x1 = 0.3:")
for step in range(6, 17):
    x2 = step / 20
    kinds = sorted(k.value for k in nash_region_a_half(0.3, x2))
    marker = "*" if kinds else " "
    print(f"    x2={x2:.2f} {marker} {kinds}")
print("\n  Membership switches on, off, and on again: the kind IV pocket")
print("  below x2 = 0.4 detaches from the main region starting at 0.5.")
