"""Adversarial stream against the library's own update rule.

The adversary first serves the vertices of a regular simplex, then keeps
serving points on the boundary of the doubled outer ellipsoid (inside a
radius-R cage) until the outer volume matches a ball of radius R/2. Each
such point forces volume growth, and any monotone rule pays for it in
approximation factor.
"""

import math

from ellipstream import library_rule, run_adversary

d = 4
r_big = 32.0
trace = run_adversary(library_rule, d, r_big)

print(f"d={d}, cage radius R={r_big:g}, stop: {trace.stop_reason}")
print(f"simplex feed: {d + 1} points, shell feed: {trace.phase2_steps} points")
print(f"{'t':>3} {'kind':>8} {'1/alpha':>9} {'log vol':>9}")
for t, (k, a, p) in enumerate(zip(trace.step_kinds, trace.a_values,
                                  trace.p_values), start=1):
    print(f"{t:>3} {k:>8} {a:>9.3f} {p:>9.3f}")

target = d * math.log(r_big / 2.0)
print(f"volume target d*log(R/2) = {target:.3f}, reached {trace.p_values[-1]:.3f}")
ratios = [(a2 - a1) / (p2 - p1)
          for (a1, p1), (a2, p2) in zip(zip(trace.a_values, trace.p_values),
                                        zip(trace.a_values[1:], trace.p_values[1:]))
          if p2 > p1 + 1e-12]
print(f"min per-step ratio d(1/alpha)/d(log vol): {min(ratios):.3f} (always > 0)")
