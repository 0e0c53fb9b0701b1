"""Cardinality and rate bounds for grain-correcting codes.

Rates are in bits per symbol as functions of the normalized grain
budget tau = t/n in (0, 1/2].  Cardinality bounds are exact integers
(Python bigints / fractions), safe up to n = 128 and beyond; the
error-vector count they divide by is here too, so this module needs
no numpy.  Each quantity has one implementation: the curves in
rate_curves read the same functions as the scalar calls, and the
argument checks read errors._integer.

Bounds implemented:

* Gilbert-Varshamov style lower bound 1 - h(2 tau) (distance-2t+1
  codes also correct t grain errors);
* the fixed-budget upper bound (2^n/n^t)(t! 2^t + 2), valid up to a
  vanishing term, reported as the asymptotic form;
* the run-count asymptotic upper bound h((1-x*)/2) where x* is the
  smallest positive root of h((1-x)/2) + ((1-x)/4) h(4 tau/(1-x)) = 1,
  valid for tau <= 0.0706;
* clique-partition upper bounds chi^floor(t/s) 2^(n - m floor(t/s)),
  their rate form 1 - tau (m/s - log2(chi)/s), and its minimum over a
  chi table (Corollary 2), which clique_rate_min and rate_curves share;
* the list-decoding existence lower bound and its rate form, which
  subtracts the error-vector count's rate (1-tau) h(tau/(1-tau));
* lower bounds for grain locations known to the decoder (greedy
  packing) or to the encoder (good-family existence), with the shared
  rate curve max(1/2, 1 - (1-tau) h(tau/(1-tau))) and the
  one-bit-per-grain upper bound 1 - tau.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import PreconditionError, _integer

#: validity edge of the rate forms that rely on the error-vector count
#: being dominated by its top binomial term: tau <= 1/2 - sqrt(5)/10
INFORMED_TAU_MAX = 0.5 - math.sqrt(5) / 10

#: clique-partition sizes found by computer search (upper bounds on the
#: minimum clique-partition size of the confusability graph), bundled
#: as reference data for the rate curves; keys are (m, s)
REFERENCE_PARTITION_SIZES: dict[tuple[int, int], int] = {
    (2, 1): 2, (3, 1): 4, (4, 1): 6, (5, 1): 10, (6, 1): 18, (7, 1): 36,
    (8, 1): 66, (9, 1): 122, (10, 1): 236, (11, 1): 428, (12, 1): 834,
    (13, 1): 1574, (14, 1): 3008, (15, 1): 5716, (16, 1): 11014,
    (4, 2): 4, (5, 2): 8, (6, 2): 12, (7, 2): 18, (8, 2): 30, (9, 2): 54,
    (10, 2): 92, (11, 2): 162, (12, 2): 284, (13, 2): 530, (14, 2): 948,
    (15, 2): 1730, (16, 2): 3210,
    (6, 3): 8, (7, 3): 16, (8, 3): 24, (9, 3): 34, (10, 3): 56, (11, 3): 88,
    (12, 3): 138, (13, 3): 238, (14, 3): 418, (15, 3): 716, (16, 3): 1266,
    (8, 4): 16, (9, 4): 32, (10, 4): 44, (11, 4): 64, (12, 4): 98,
    (13, 4): 156, (14, 4): 248, (15, 4): 392, (16, 4): 662,
}


def binary_entropy(q: float) -> float:
    """h(q) = -q log2 q - (1-q) log2 (1-q), with h(0) = h(1) = 0."""
    if not -1e-12 <= q <= 1 + 1e-12:
        raise PreconditionError(f"entropy argument {q} outside [0, 1]")
    return _h2(q)


def _h2(q: float) -> float:
    """binary_entropy without the range check, for loops whose arguments
    lie in [0, 1] by construction (the SIR series terms)."""
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def iroot(value: int, k: int) -> int:
    """floor(value ** (1/k)) for non-negative integers, exactly."""
    if not (_integer(value) and _integer(k)) or value < 0 or k < 1:
        raise PreconditionError("need integers value >= 0 and k >= 1")
    if value == 0:
        return 0
    r = 1 << (value.bit_length() // k + 1)
    while True:
        nr = ((k - 1) * r + value // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r ** k > value:
        r -= 1
    return r


def count_error_vectors(n: int, t: int) -> int:
    """Number of error vectors of length n and weight <= t, exactly.

    Placing i non-adjacent 1s in positions 2..n can be done in C(n-i, i)
    ways, so the count is sum_{i=0..t} C(n-i, i).  Terms with n-i < i
    vanish, which clamps t past floor((n-1)/2) automatically.
    """
    if not (_integer(n) and _integer(t)) or n < 1 or t < 0:
        raise PreconditionError("need integers n >= 1 and t >= 0")
    return sum(math.comb(n - i, i) for i in range(0, t + 1) if n - i >= i)


# ---------------------------------------------------------------------------
# scalar bounds
# ---------------------------------------------------------------------------


def gv_lower_rate(tau: float) -> float:
    """Gilbert-Varshamov lower bound 1 - h(2 tau), clamped at 0."""
    if not 0 <= tau <= 0.25:
        raise PreconditionError("tau outside [0, 1/4]")
    return max(0.0, 1.0 - binary_entropy(2.0 * tau))


def fixed_budget_upper(n: int, t: int) -> int:
    """Upper bound (2^n / n^t) (t! 2^t + 2) on the maximum code size.

    Asymptotic form: a vanishing correction term has been dropped, so
    treat this as a reference curve rather than a certified finite-n
    bound.  For t = 0 the formula degenerates to 3 * 2^n and is not
    meaningful (the true maximum is 2^n).
    """
    if not (_integer(n) and _integer(t)) or n < 1 or t < 0:
        raise PreconditionError("need integers n >= 1 and t >= 0")
    if t > 6:
        raise PreconditionError("fixed-budget form is for small t (<= 6)")
    value = Fraction(2**n * (math.factorial(t) * 2**t + 2), n**t)
    return math.ceil(value)


#: tau <= 0.0706 is where the run-count asymptotic upper bound applies
ASYMPTOTIC_UPPER_TAU_MAX = 0.0706


def _root_equation(x: float, tau: float) -> float:
    return (
        binary_entropy((1.0 - x) / 2.0)
        + ((1.0 - x) / 4.0) * binary_entropy(4.0 * tau / (1.0 - x))
        - 1.0
    )


def asymptotic_upper_root(tau: float) -> float:
    """Smallest positive root x* of h((1-x)/2) + ((1-x)/4) h(4tau/(1-x)) = 1.

    The equation balances the two regimes of the run-count argument; a
    root in (0, 1-8 tau] exists exactly when h(4 tau) + 2 tau <= 1,
    i.e. for tau <= 0.0706.

    The left side f is strictly decreasing on [0, 1-8 tau], so its first
    sign change is its only one.  The term h((1-x)/2) falls because
    (1-x)/2 falls within [4 tau, 1/2], where h rises.  With
    a = 4 tau/(1-x), which rises with x, the second term is
    tau h(a)/a, and h(a)/a falls because h is concave with h(0) = 0.
    So bisection over the indices of the grid 0, step, ..., steps*step
    (step 1e-4, then 1-8 tau if the grid stops short) finds the same
    bracketing grid points as a scan from 0 would; a bisection of that
    bracket to 1e-10 follows.

    f(0) = h(4 tau)/4 > 0 for every tau > 0, but 1 + h(4 tau)/4 rounds
    to 1 in floats once tau falls below about 1e-18.  There the float
    f(0) is not positive and the root returned is 0: the rate h(1/2) = 1
    is then the true rate to float precision, and still an upper bound.
    """
    if not 0 < tau <= ASYMPTOTIC_UPPER_TAU_MAX:
        raise PreconditionError(f"tau outside (0, {ASYMPTOTIC_UPPER_TAU_MAX}]")
    scan_step, tol = 1e-4, 1e-10
    hi = 1.0 - 8.0 * tau
    if _root_equation(0.0, tau) <= 0:
        return 0.0
    steps = int(hi / scan_step)
    last = steps + 1 if steps == 0 or steps * scan_step < hi else steps

    def grid(i: int) -> float:
        return hi if i > steps else i * scan_step

    if _root_equation(grid(last), tau) > 0.0:
        raise PreconditionError(f"no sign change in (0, {hi:.6g}]: tau outside validity")
    lo_i, hi_i = 0, last
    while hi_i - lo_i > 1:
        mid = (lo_i + hi_i) // 2
        if _root_equation(grid(mid), tau) > 0.0:
            lo_i = mid
        else:
            hi_i = mid
    lo, hi = grid(lo_i), grid(hi_i)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _root_equation(mid, tau) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def asymptotic_upper_rate(tau: float) -> float:
    """Run-count upper bound h((1-x*)/2) on the asymptotic rate,
    valid for tau <= 0.0706."""
    return binary_entropy((1.0 - asymptotic_upper_root(tau)) / 2.0)


def clique_upper(n: int, t: int, m: int, s: int, chi: int) -> int:
    """Cardinality bound chi^floor(t/s) * 2^(n - m floor(t/s)).

    chi must be a valid upper bound on the minimum clique-partition
    size for (m, s); requires t/n <= s/m.  With t < s the product is
    empty and the bound degenerates to 2^n.
    """
    if not all(map(_integer, (n, t, m, s, chi))) or n < 1 or m < 1 or s < 1 or t < 0 or chi < 1:
        raise PreconditionError("need integers n,m,s >= 1, t >= 0, chi >= 1")
    if t * m > s * n:
        raise PreconditionError(f"t/n = {t}/{n} exceeds s/m = {s}/{m}")
    reps = t // s
    return chi**reps * 2 ** (n - m * reps)


def clique_rate_upper(tau: float, m: int, s: int, chi: int) -> float:
    """Rate form 1 - tau (m/s - log2(chi)/s), valid for 0 <= tau <= s/m; chi may be real."""
    if not (_integer(m) and _integer(s)) or m < 1 or s < 1 or chi < 1:
        raise PreconditionError("need integers m, s >= 1 and chi >= 1")
    if not 0 <= tau <= s / m:
        raise PreconditionError(f"tau={tau} outside [0, s/m={s / m}]")
    return _clique_rate(tau, m, s, chi)


def _clique_rate(tau: float, m: int, s: int, chi: float) -> float:
    return 1.0 - tau * (m / s - math.log2(chi) / s)


def list_decoding_lower(n: int, t: int, list_size: int) -> Fraction:
    """Existence bound: some list-decodable code has at least
    2^(nL/(L+1)) / #error-vectors codewords.

    Evaluated exactly; a fractional exponent is floored via an integer
    root, which only weakens the bound (and by less than one part in
    2^n).
    """
    if not all(map(_integer, (n, t, list_size))) or n < 1 or t < 0 or list_size < 1:
        raise PreconditionError("need integers n >= 1, t >= 0, list size >= 1")
    numerator = iroot(2 ** (n * list_size), list_size + 1)
    return Fraction(numerator, count_error_vectors(n, t))


def _error_vector_rate(tau: float) -> float:
    """(1-tau) h(tau/(1-tau)), the exponent of the error-vector count's
    top binomial term, for tau in [0, INFORMED_TAU_MAX], where that term
    dominates the count."""
    if not 0 <= tau <= INFORMED_TAU_MAX + 1e-12:
        raise PreconditionError(f"tau={tau} outside [0, {INFORMED_TAU_MAX:.4f}]")
    ratio = tau / (1.0 - tau) if tau > 0 else 0.0
    return (1.0 - tau) * binary_entropy(ratio)


def list_decoding_rate(tau: float, list_size: int) -> float:
    """Rate form L/(L+1) - (1-tau) h(tau/(1-tau)), valid while the
    error-vector count is dominated by its top term (tau <= 0.2764)."""
    if not _integer(list_size) or list_size < 1:
        raise PreconditionError("list size must be an integer >= 1")
    return list_size / (list_size + 1) - _error_vector_rate(tau)


def decoder_informed_lower(n: int, t: int) -> Fraction:
    """Greedy packing guarantee 2^n / #error-vectors when the decoder
    knows the grain locations."""
    if n < 1 or t < 0:
        raise PreconditionError("need n >= 1 and t >= 0")
    return Fraction(2**n, count_error_vectors(n, t))


def encoder_informed_lower(n: int, t: int) -> Fraction:
    """Existence bound when the encoder knows the locations: the
    decoder-informed bound divided by 2n (good-family counting)."""
    return decoder_informed_lower(n, t) / (2 * n)


def informed_rate_bounds(tau: float) -> tuple[float, float]:
    """(lower, upper) asymptotic rates when either side knows the
    pattern: lower = max(1/2, 1 - (1-tau) h(tau/(1-tau))) (the
    bit-doubling code stays viable), upper = 1 - tau (one bit per
    grain)."""
    return max(0.5, 1.0 - _error_vector_rate(tau)), 1.0 - tau


# ---------------------------------------------------------------------------
# curve generation
# ---------------------------------------------------------------------------


def _partition_rows(chi_entries) -> list[tuple[float, int, int, float]]:
    """(s / m, m, s, parts) per entry of chi_entries (the reference table
    when None); every entry needs integers m, s >= 1 and parts >= 1."""
    rows = []
    for (m, s), chi in (REFERENCE_PARTITION_SIZES if chi_entries is None else chi_entries).items():
        if not (_integer(m) and _integer(s)) or m < 1 or s < 1 or chi < 1:
            raise PreconditionError(
                f"table entry m={m}, s={s}, parts={chi}: need integers m, s >= 1 and parts >= 1"
            )
        rows.append((s / m, m, s, chi))
    return rows


def _cor2_min(tau: float, rows) -> float:
    """Minimum of 1 and _clique_rate over the checked _partition_rows
    admissible at tau (tau <= s/m).  A tau for which tau >= 0 is false,
    NaN included, is refused with the first row's s/m."""
    if not tau >= 0:
        edge = rows[0][0] if rows else math.inf
        raise PreconditionError(f"tau={tau} outside [0, s/m={edge}]")
    return min([1.0, *(_clique_rate(tau, m, s, chi) for top, m, s, chi in rows if tau <= top)])


def clique_rate_min(tau: float, chi_entries=None) -> float:
    """Corollary 2's minimum: min of 1 and the clique-partition rate
    bounds over the table entries admissible at tau (tau <= s/m).

    Every entry is checked first, then tau: any tau >= 0 has an answer
    (1.0 past every entry's s/m, or with an empty table), and a negative
    or NaN tau is refused whatever the table.  rate_curves computes its
    cor2_min column with the same minimum.
    """
    return _cor2_min(tau, _partition_rows(chi_entries))


def rate_curves(taus, chi_entries=None, list_size: int = 1) -> list[tuple]:
    """Rows (tau, gv_lower, prop2_upper, cor2_min, rn_lower, list_rate,
    informed_lower, informed_upper) for each grid point in (0, 1/2].

    gv_lower is 0 past tau = 1/4; prop2_upper (the run-count asymptotic
    upper bound) is empty (None) past its 0.0706 validity edge;
    cor2_min is the minimum clique-partition rate bound; rn_lower is
    the constant 1/2 achieved by the bit-doubling code.  list_rate (for
    lists of list_size words) and the informed pair are empty past
    INFORMED_TAU_MAX.  chi_entries is checked once, at the first row; each
    row then reads the minimum clique_rate_min reads.
    """
    if not _integer(list_size) or list_size < 1:
        raise PreconditionError("list size must be an integer >= 1")
    rows, table = [], None
    for tau in taus:
        if not 0 < tau <= 0.5:
            raise PreconditionError(f"tau={tau} outside (0, 1/2]")
        gv = gv_lower_rate(tau) if tau <= 0.25 else 0.0
        upper = (
            asymptotic_upper_rate(tau) if tau <= ASYMPTOTIC_UPPER_TAU_MAX else None
        )
        if tau <= INFORMED_TAU_MAX:
            list_rate = list_decoding_rate(tau, list_size)
            informed = informed_rate_bounds(tau)
        else:
            list_rate, informed = None, (None, None)
        table = _partition_rows(chi_entries) if table is None else table
        rows.append((tau, gv, upper, _cor2_min(tau, table), 0.5, list_rate, *informed))
    return rows
