"""Dense grid checks of the scalar inequalities behind the update rule.

Every per-step guarantee reduces to a handful of closed-form inequalities
in (gamma, alpha). This sweeps each one over a large grid and prints the
worst slack; all slacks must be nonnegative up to rounding.
"""

from ellipstream import inequality_suite
from ellipstream.adversary import reduced_case_grid

reports = inequality_suite()
width = max(len(r.claim_id) for r in reports)
print(f"{'claim':<{width}}  worst slack")
for r in reports:
    print(f"{r.claim_id:<{width}}  {r.worst_slack:+.3e}")

red = reduced_case_grid()
print()
print(f"reduced two-ellipse configuration: {red.n_points} grid cells")
print(f"min forced step ratio d(1/alpha)/d(log vol): {red.min_ratio:.4f}")
print(f"observed constant on the binding branch:     {red.c_observed:.4f}")
