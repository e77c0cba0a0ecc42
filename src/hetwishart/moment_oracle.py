"""Exact combinatorial engine behind the trace-moment method.

For a p1-by-p2 Gaussian matrix Z with independent N(0, sigma_ij^2) entries,
the centered Gram trace moment expands over closed walks on the complete
bipartite graph [p1] x [p2]:

    E tr{(ZZ' - E ZZ')^q}
        = sum over cycles c of  prod_k sigma_{u_k,v_k} sigma_{u_{k+1},v_k}
          * prod_{(i,j)} E G^{alpha_ij(c)} (G^2-1)^{beta_ij(c)},

where a cycle is u_1 -> v_1 -> u_2 -> ... -> u_q -> v_q -> u_1, alpha_ij
counts steps visiting edge (i, j) exactly once, beta_ij counts back-and-forth
steps u_k = u_{k+1}, and G is standard normal.  Everything here evaluates that
expansion exactly: Gaussian moments in exact integer arithmetic, cycles grouped
by edge multiset, found by one pruned walk that merges its prefixes, and summed
over their labelings in numpy blocks, sums by compensated (exactly rounded) summation.

The comparison checks at the bottom verify, at desk scale, the inequalities
this machinery is used to prove: the homoskedastic comparison, variance
contraction under row merging, diagonal-deletion comparison, and the paired
moment inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

from .errors import ParameterError, SizeGuardError
from .profiles import _REL_SLACK, VarianceProfile, _ceil_tol, _finite, _integer

__all__ = [
    "MAX_GAUSSIAN_ORDER",
    "ENUMERATION_GUARD",
    "double_factorial",
    "gaussian_moment",
    "heavy_tail_moment",
    "cycle_count",
    "exact_trace_moment",
    "exact_deleted_diagonal_trace_moment",
    "ComparisonResult",
    "check_gaussian_comparison",
    "check_variance_contraction",
    "check_diagonal_deletion",
    "check_paired_moment",
]

MAX_GAUSSIAN_ORDER = 64      # guard on alpha + 2*beta for exact integer moments
ENUMERATION_GUARD = 10**8    # max labelings one general-profile trace moment sums

_COMPARISON_SLACK = 1e-9     # lhs <= rhs * (1 + slack) absorbs float roundoff


def double_factorial(k: int) -> int:
    """k!! = k (k-2) (k-4) ... with the conventions (-1)!! = 1, (-3)!! = -1."""
    if k == -1:
        return 1
    if k == -3:
        return -1
    if k < -3:
        raise ParameterError(f"double factorial undefined for k = {k}")
    result = 1
    while k > 1:
        result *= k
        k -= 2
    return result


@lru_cache(maxsize=None)
def gaussian_moment(alpha: int, beta: int) -> int:
    """Exact E G^alpha (G^2 - 1)^beta for standard normal G.

    Expanding the binomial and using E G^d = (d-1)!! for even d gives

        sum_{j=0}^{beta} (-1)^j C(beta, j) (alpha + 2 beta - 2j - 1)!!,

    an exact integer.  Zero for odd alpha, and for (alpha, beta) = (0, 1).
    Satisfies the sandwich (alpha+2beta-3)!!(alpha+beta-1) <= value
    <= (alpha+2beta-1)!! for even alpha with alpha + 2 beta >= 2.
    """
    alpha, beta = _integer(alpha, "alpha", 0), _integer(beta, "beta", 0)
    if alpha + 2 * beta > MAX_GAUSSIAN_ORDER:
        raise SizeGuardError(
            f"alpha + 2*beta = {alpha + 2 * beta} exceeds the exact-arithmetic guard {MAX_GAUSSIAN_ORDER}"
        )
    if alpha % 2 == 1:
        return 0
    return sum(
        (-1) ** j * math.comb(beta, j) * double_factorial(alpha + 2 * beta - 2 * j - 1)
        for j in range(beta + 1)
    )


def heavy_tail_moment(alpha: int, beta: int, b: float) -> float:
    """E F^alpha (F^2 - 1)^beta for F = G |H|^(b-1), G, H independent N(0,1).

    For even x, E F^x = (x-1)!! * 2^((b-1)x/2) * Gamma(((b-1)x + 1)/2) / sqrt(pi),
    and the result is the alternating binomial sum over x_j = alpha + 2 beta - 2j.
    F has a stretched-exponential tail with Orlicz exponent 2/b; b = 1 is the
    Gaussian case and is returned exactly from ``gaussian_moment``.  A value,
    or a term of the sum, that overflows a float raises SizeGuardError.
    """
    alpha, beta = _integer(alpha, "alpha", 0), _integer(beta, "beta", 0)
    b = _finite(b, "b", 1.0)
    order = alpha + 2 * beta
    if order > MAX_GAUSSIAN_ORDER:  # the exact-integer guard its (x-1)!! terms live under
        raise SizeGuardError(
            f"alpha + 2*beta = {order} exceeds the exact-arithmetic guard {MAX_GAUSSIAN_ORDER}"
        )
    if alpha % 2 == 1:
        return 0.0
    if b == 1.0:
        return float(gaussian_moment(alpha, beta))
    sqrt_pi = math.sqrt(math.pi)
    try:
        terms = []
        for j in range(beta + 1):
            x = order - 2 * j
            exact = (-1) ** j * math.comb(beta, j) * double_factorial(x - 1)
            scale = 2.0 ** ((b - 1.0) * x / 2.0) * math.gamma(((b - 1.0) * x + 1.0) / 2.0) / sqrt_pi
            terms.append(exact * scale)
        if all(map(math.isfinite, terms)):
            return math.fsum(terms)  # raises OverflowError if the sum overflows
    except OverflowError:
        pass
    raise SizeGuardError(
        f"heavy-tail moment for b = {b}, alpha + 2*beta = {order} overflows a float"
    )


def cycle_count(p1: int, p2: int, q: int) -> int:
    """Number of closed walks u_1 -> v_1 -> ... -> v_q -> u_1 on [p1] x [p2]."""
    return (p1 * p2) ** q


# ---------------------------------------------------------------- shape engine
#
# A raw cycle is its canonical shape (u, v) -- two restricted-growth strings,
# u with L <= p1 left blocks and v with R <= p2 right blocks -- composed with
# one injective labeling of the L left and R right blocks by vertices.  A shape
# enters only through its edge multiset, the ((i, j), alpha, beta) of its edges:
#
#     E tr{(ZZ' - E ZZ')^q} = sum over edge multisets of M * sum over labelings
#                             of prod_{(i,j)} sigma_ij^(alpha_ij + 2 beta_ij),
#
# M = (its shape count) * prod E G^alpha (G^2-1)^beta, zero when an edge is defective
# (odd alpha, or (alpha, beta) = (0, 1)); for the all-ones profile the inner sum is
# (p1)_L (p2)_R.  A step changes at most two edges, so the walk recounts defects on
# those alone and cuts every prefix with more than twice the steps left.  Its time
# tracks the edge cells of the states it creates, and its memory those of one depth,
# so it refuses itself once their total over all depths passes _WALK_GUARD.

_BLOCK = 1 << 14  # labelings per numpy block in the general-profile route
_WALK_GUARD = 1 << 19  # edge cells, summed over the new states of every depth


@lru_cache(maxsize=None)
def _shapes(q: int, blocks1: int, blocks2: int, deleted: bool) -> tuple:
    """Records (edges, L, R, count), one per edge multiset with a non-zero moment
    product: ``edges`` sorted ((i, j), alpha, beta), ``count`` its shapes; ``deleted``
    keeps the shapes with u_k != u_{k+1} at every step.  The walk grows the shapes'
    strings (u_q = u_0 = 0) a step u_k -> v_k -> u_{k+1} at a time, all prefixes at
    once, merging those that reach one state: they have the same futures."""
    states = {(0, 1, 0, 0, ()): 1}  # (u_k, L, R, defective edges, edges) -> prefixes
    cells = 0
    for k in range(q):
        grown: dict[tuple, int] = {}
        while states:  # popped as the next depth grows, so about one depth is held
            (u, n_left, n_right, defects, edges), count = states.popitem()
            counts = {edge[0]: edge for edge in edges}
            for y in range(min(n_right + 1, blocks2)):
                for x in range(min(n_left + 1, blocks1)) if k < q - 1 else (0,):
                    if deleted and x == u:
                        continue
                    # a back-and-forth step adds a beta to (u_k, v_k), any other step an
                    # alpha to each of (u_k, v_k) and (u_{k+1}, v_k); gaussian_moment
                    # refuses an edge past MAX_GAUSSIAN_ORDER, which bounds the loop
                    bad, visited = defects, {}
                    for i in {u, x}:
                        _, a, b = counts.get((i, y), (None, 0, 0))
                        bad -= gaussian_moment(a, b) == 0
                        a, b = (a, b + 1) if x == u else (a + 1, b)
                        bad += gaussian_moment(a, b) == 0
                        visited[i, y] = ((i, y), a, b)
                    if bad <= 2 * (q - k - 1):
                        grown_edges = tuple(sorted((counts | visited).values()))
                        key = (x, max(n_left, x + 1), max(n_right, y + 1), bad, grown_edges)
                        merged = grown.get(key, 0)
                        if not merged:
                            cells += len(grown_edges)
                        grown[key] = merged + count
            if cells > _WALK_GUARD:
                raise SizeGuardError(f"walk states at step {k + 1} of q = {q} pass the guard "
                                     f"of {_WALK_GUARD} edge cells")
        states = grown
    return tuple((edges, n_left, n_right, count)
                 for (_, n_left, n_right, _, edges), count in states.items())


def _labelings(n: int, k: int, index: np.ndarray) -> np.ndarray:
    """Rows ``index`` of the injective k-tuples from range(n), in the order of
    itertools.permutations(range(n), k), decoded digit by digit."""
    out = np.empty((index.size, k), dtype=np.intp)
    for i in range(k):
        digit = index // math.perm(n - i - 1, k - i - 1) % (n - i)
        for taken in np.sort(out[:, :i], axis=1).T:
            digit += digit >= taken
        out[:, i] = digit
    return out


def _labeled_sum(sigma: np.ndarray, edges, n_left: int, n_right: int) -> float:
    """Exactly rounded sum, over the injective labelings of one edge multiset,
    of prod_{(i,j)} sigma_{i,j}^(alpha + 2 beta), in blocks of _BLOCK labelings."""
    p1, p2 = sigma.shape
    flat = sigma.ravel()
    left, right = zip(*(edge for edge, _, _ in edges))
    powers = [a + 2.0 * b for _, a, b in edges]  # float exponents: power() needs no cast buffer
    rights = math.perm(p2, n_right)
    total = math.perm(p1, n_left) * rights

    def blocks():
        for start in range(0, total, _BLOCK):
            index = np.arange(start, min(start + _BLOCK, total))
            rows = _labelings(p1, n_left, index // rights) * p2
            cols = _labelings(p2, n_right, index % rights)
            yield np.prod(flat[rows[:, left] + cols[:, right]] ** powers, axis=1).tolist()

    return math.fsum(chain.from_iterable(blocks()))


def _trace_moment(q: int, p1: int, p2: int, sigma: np.ndarray | None = None,
                  deleted: bool = False) -> float:
    """E tr{(ZZ' - E ZZ')^q}, or E tr{(D(ZZ'))^q} when ``deleted``, by edge multisets.

    A record's M is its shape count times its edges' Gaussian moments.  ``sigma``
    None (or all ones) is the all-ones p1 x p2 profile, whose moment is the exact
    integer sum of M (p1)_L (p2)_R.  Otherwise each record's labelings go into one
    fsum, which M multiplies, and an outer fsum adds the records.  The walk guards
    its own states; ENUMERATION_GUARD bounds the labelings summed.
    """
    q = _integer(q, "q", 1)
    records = [(edges, nl, nr, count * math.prod(gaussian_moment(a, b) for _, a, b in edges))
               for edges, nl, nr, count in _shapes(q, min(p1, q), min(p2, q), deleted)]
    if sigma is None or (sigma == 1.0).all():
        return float(sum(m * math.perm(p1, nl) * math.perm(p2, nr) for _, nl, nr, m in records))
    labelings = sum(math.perm(p1, nl) * math.perm(p2, nr) for _, nl, nr, _ in records)
    if labelings > ENUMERATION_GUARD:
        raise SizeGuardError(f"labelings = {labelings} exceeds the guard {ENUMERATION_GUARD}")
    return math.fsum(m * _labeled_sum(sigma, edges, nl, nr) for edges, nl, nr, m in records)


def exact_trace_moment(profile: VarianceProfile, q: int) -> float:
    """Exact E tr{(ZZ' - E ZZ')^q} for independent Gaussian entries.

    Sums the bipartite-cycle expansion grouped by edge multiset, with exact
    integer Gaussian moments and exactly rounded (fsum) sums, so the result is
    independent of summation order.  q = 1 gives exactly 0 (the matrix is
    centered).
    """
    return _trace_moment(q, profile.p1, profile.p2, profile.sigma)


def exact_deleted_diagonal_trace_moment(profile: VarianceProfile, q: int) -> float:
    """Exact E tr{(D(ZZ'))^q} where D zeroes the diagonal of the (uncentered) Gram.

    Only shapes with u_k != u_{k+1} at every step contribute; they have no
    back-and-forth step, so the edge factors are E G^alpha = (alpha-1)!!.
    """
    return _trace_moment(q, profile.p1, profile.p2, profile.sigma, deleted=True)


@dataclass(frozen=True)
class ComparisonResult:
    """Both sides of a comparison and whether lhs <= rhs holds up to roundoff.

    ``cycles_enumerated`` counts the bipartite cycles (p1 p2)^q covered on
    both sides, the size of the expansion the check verifies; the shape engine
    sums far fewer terms.
    """

    lhs: float
    rhs: float
    holds: bool
    cycles_enumerated: int


def _compared(lhs: float, rhs: float, q: int, *sides: tuple[int, int]) -> ComparisonResult:
    """lhs <= rhs up to roundoff, covering the (p1 p2)^q cycles of each (p1, p2) side."""
    return ComparisonResult(lhs, rhs, lhs <= rhs * (1.0 + _COMPARISON_SLACK),
                            sum(cycle_count(p1, p2, q) for p1, p2 in sides))


def check_gaussian_comparison(profile: VarianceProfile, q: int) -> ComparisonResult:
    """Verify the heteroskedastic-vs-standard Wishart trace-moment comparison.

    With m1 = ceil(sigma_C^2) + q - 1, m2 = ceil(sigma_R^2) + q - 1 and H an
    m1-by-m2 standard Gaussian matrix,

        E tr{(ZZ' - E ZZ')^q} <= (p1/m1 ^ p2/m2) E tr{(HH' - E HH')^q}.

    Requires sigma_* <= 1 (the comparison is stated in entrywise-normalized
    scale; the ceilings make it non-equivariant under rescaling).
    """
    var = profile.variances()
    sigma_star = float(profile.sigma.max())
    if sigma_star > 1.0 + _REL_SLACK:
        raise ParameterError("comparison requires sigma_* <= 1; rescale the profile first")
    m1 = _ceil_tol(float(var.sum(axis=0).max())) + q - 1
    m2 = _ceil_tol(float(var.sum(axis=1).max())) + q - 1
    m1 = max(m1, 1)
    m2 = max(m2, 1)
    lhs = exact_trace_moment(profile, q)
    rhs = min(profile.p1 / m1, profile.p2 / m2) * _trace_moment(q, m1, m2)
    return _compared(lhs, rhs, q, (profile.p1, profile.p2), (m1, m2))


def merge_last_rows(profile: VarianceProfile) -> VarianceProfile:
    """Replace the last two rows by one row with summed variances."""
    if profile.p1 < 2:
        raise ParameterError("need p1 >= 2 to merge the last two rows")
    var = profile.variances()
    merged = np.vstack([var[:-2], var[-2] + var[-1]])
    return VarianceProfile(np.sqrt(merged))


def check_variance_contraction(profile: VarianceProfile, q: int) -> ComparisonResult:
    """Verify that merging the last two rows cannot decrease the trace moment.

    The merged matrix has one fewer row; its last row's variance is the sum of
    the two merged rows' variances.  Checked in expectation (both sides via
    the exact oracle).
    """
    merged = merge_last_rows(profile)
    lhs = exact_trace_moment(profile, q)
    rhs = exact_trace_moment(merged, q)
    return _compared(lhs, rhs, q, (profile.p1, profile.p2), (merged.p1, merged.p2))


def check_diagonal_deletion(profile: VarianceProfile, q: int) -> ComparisonResult:
    """Verify the diagonal-deleted comparison against a standard Gaussian block.

    Column bounds sigma_j = max_i sigma_ij (requires sigma_* <= 1); with
    m = ceil(sum_j sigma_j^4) + q - 1 and H a p1-by-m standard Gaussian matrix,

        E tr{(D(ZZ'))^q} <= E tr{(D(HH'))^q}.
    """
    sigma_star = float(profile.sigma.max())
    if sigma_star > 1.0 + _REL_SLACK:
        raise ParameterError("diagonal-deletion comparison requires sigma_* <= 1")
    col_bounds = profile.sigma.max(axis=0)
    m = max(1, _ceil_tol(float(np.sum(col_bounds**4))) + q - 1)
    lhs = exact_deleted_diagonal_trace_moment(profile, q)
    rhs = _trace_moment(q, profile.p1, m, deleted=True)
    return _compared(lhs, rhs, q, (profile.p1, profile.p2), (profile.p1, m))


def check_paired_moment(x1: int, x2: int, x3: int, x4: int, x5: int) -> ComparisonResult:
    """Verify the paired-moment inequality for independent standard normals:

        |E Z1^(x1+x5) (Z1^2-1)^x3| * |E Z2^(x2+x5) (Z2^2-1)^x4|
            <= E G^(x1+x2) (G^2-1)^(x3+x4+x5).
    """
    x1, x2, x3, x4, x5 = (_integer(x, f"x{k}", 0) for k, x in enumerate((x1, x2, x3, x4, x5), 1))
    # exact integers; the right side's order bounds both left orders, so its
    # guard (MAX_GAUSSIAN_ORDER) covers the whole check
    rhs = gaussian_moment(x1 + x2, x3 + x4 + x5)
    lhs = abs(gaussian_moment(x1 + x5, x3) * gaussian_moment(x2 + x5, x4))
    return ComparisonResult(float(lhs), float(rhs), lhs <= rhs, 0)
