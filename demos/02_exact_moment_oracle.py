"""The exact trace-moment oracle.

E tr{(ZZ' - E ZZ')^q} for a Gaussian matrix expands over closed walks on a
bipartite graph; every edge contributes an exact integer Gaussian moment
E G^alpha (G^2 - 1)^beta.  The oracle evaluates that expansion exactly and
verifies the comparison inequalities used to turn it into norm bounds.
"""

import numpy as np

from hetwishart import (
    VarianceProfile,
    check_diagonal_deletion,
    check_gaussian_comparison,
    check_paired_moment,
    check_variance_contraction,
    exact_trace_moment,
    gaussian_moment,
    heavy_tail_moment,
)
from hetwishart.moment_oracle import cycle_count

# centered Gaussian moments are exact integers
print("E G^a (G^2-1)^b:")
for a, b in [(0, 0), (2, 0), (4, 0), (0, 1), (2, 1), (0, 2), (6, 3)]:
    print(f"  ({a}, {b}) -> {gaussian_moment(a, b)}")

# the heavy-tail analogue G|H|^(b-1) interpolates away from the Gaussian
print("\nE F^2 - 1 for F = G|H|^(b-1):")
for b in (1.0, 1.5, 2.0, 3.0):
    print(f"  b = {b}: {heavy_tail_moment(0, 1, b):+.6f}")

# exact moments over all (p1 p2)^q cycles, summed shape by shape; at q = 2
# the closed form is E tr A^2 = sum_{i != i'} sum_j s_ij^2 s_i'j^2 + 2 sum_ij s_ij^4
prof = VarianceProfile(np.array([[1.0, 0.5], [0.25, 0.75]]))
var = prof.variances()
col = var.sum(axis=0)
closed = float(np.sum(col**2 - (var**2).sum(axis=0)) + 2.0 * np.sum(var**2))
print()
for q in (1, 2, 3):
    cycles = cycle_count(prof.p1, prof.p2, q)
    line = f"q = {q}: {cycles:3d} cycles, E tr(A^q) = {exact_trace_moment(prof, q):.10f}"
    print(line + (f"  (closed form {closed:.10f})" if q == 2 else ""))

# the three comparison inequalities, verified exactly at desk scale
print("\ncomparison checks (lhs <= rhs):")
res = check_gaussian_comparison(prof, 2)
print(f"  vs standard Wishart block: {res.lhs:.4f} <= {res.rhs:.4f}  holds={res.holds}")
three_rows = VarianceProfile(np.array([[1.0, 0.5], [0.75, 0.25], [0.5, 1.0]]))
res = check_variance_contraction(three_rows, 2)
print(f"  merge last two rows:       {res.lhs:.4f} <= {res.rhs:.4f}  holds={res.holds}")
res = check_diagonal_deletion(three_rows, 2)
print(f"  diagonal-deleted Gram:     {res.lhs:.4f} <= {res.rhs:.4f}  holds={res.holds}")
res = check_paired_moment(2, 2, 1, 0, 2)
print(f"  paired moments:            {res.lhs:.4f} <= {res.rhs:.4f}  holds={res.holds}")
