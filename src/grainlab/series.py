"""The SIR series and the closed-form channel rates, without numpy.

The grains channel (see channel) is bracketed by two rates.  Above:
the no-adjacent-erasures companion, of which it is a degraded version,
has capacity 1/(1+p).  Below: the rate-1/2 bit-doubling code survives
every realization, and the symmetric information rate (SIR), the
information rate under i.i.d. uniform inputs, is the difference T - S
of two convergent series.  T, the output entropy rate, sums over the
zero runs of the output, a renewal process with hazards b_j; S, the
error-entropy rate given the input, sums the closed-form indicator
law P(u_j = 0 | u_1 = 0).  Both are truncated at a depth J with
2 <= J <= DEPTH_MAX.

Each public function checks p and the depth once, where they enter,
and returns Python floats; the series loops behind them
(_output_entropy_partial, _error_entropy_partial, and _sir_fields,
which sir and capacity_curves share) take the checked values and run
unchecked: their hazards and stay probabilities lie in [0, 1] by
construction, so each term reads bounds._h2, binary_entropy without
its range check.  So a 201-point capacity curve checks each grid point
once, not each term.

Everything here is scalar float or rational arithmetic, so the
commands that need only these numbers (sir, capacity, fig3,
zero-error) never import numpy.  channel checks the series against
exact finite-n oracles and re-exports three names, sir,
capacity_curves and output_entropy_series, because the benchmark reads
them off channel; everything else is imported from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from numbers import Integral, Real

from .bounds import _h2, binary_entropy
from .errors import PreconditionError

#: deepest series truncation.  The terms fall at least by half every two
#: steps (see SirResult), so past J = 2160 every term of both series and
#: both truncation bounds underflow to 0.0 for every p in [0, 1]: a
#: deeper series returns the same floats, at a cost linear in J.
DEPTH_MAX = 4096


def _real(v) -> bool:
    """Whether v is a real number: a float, tested first as the common
    and the fast case, or any other numbers.Real (an int, a Fraction, a
    numpy float)."""
    return type(v) is float or isinstance(v, Real)


def _check(p: float, depth: int | None = None) -> float:
    """Reject a grain probability that is not a real in [0, 1], and a
    series depth outside 2..DEPTH_MAX when one is given.  Return p as a
    Python float, so that a float32 p computes in float64."""
    if not _real(p):
        raise PreconditionError(f"p must be a real number, got {p!r}")
    if not 0.0 <= p <= 1.0:
        raise PreconditionError(f"p={p} outside [0, 1]")
    if depth is not None:
        _check_depth(depth)
    return float(p)


def _check_depth(depth: int) -> None:
    """Reject a series depth outside 2..DEPTH_MAX."""
    if not isinstance(depth, Integral) or depth < 2:
        raise PreconditionError(f"depth must be an integer >= 2, got {depth!r}")
    if depth > DEPTH_MAX:
        raise PreconditionError(
            f"depth {depth} exceeds {DEPTH_MAX}: the deeper terms underflow to 0"
        )


def _stationary_weights(p: float) -> tuple[float, float]:
    return 1.0 / (1.0 + p), p / (1.0 + p)


# ---------------------------------------------------------------------------
# the SIR series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunHazards:
    """Hazard probabilities of the output's zero-run renewal process.

    values[j-2] is the probability that the next output is 1 given the
    last j-1 outputs were 0 preceded by a 1.  The recursion is
    b_2 = (1-p)/2, b_j = (1 - (1+p) b_{j-1}) / (2 (1 - b_{j-1})), with
    closed form 2(t-^j - t+^j) / ((3+B+p) t-^j - (3-B+p) t+^j) where
    B = sqrt(p^2 + 6p + 1) and t± = 1 - (1 ∓ B)/p.  The closed form is
    cross-checked against the recursion for every p > 0, on first read
    of a closed_form_* property; the recursion is authoritative.
    """

    p: float
    depth: int
    values: tuple[float, ...]

    def value(self, j: int) -> float:
        if not 2 <= j <= self.depth:
            raise PreconditionError(f"index {j} outside 2..{self.depth}")
        return self.values[j - 2]

    @cached_property
    def _closed_form_devs(self) -> tuple[float, ...]:
        closed = (_hazard_closed_form(self.p, j) for j in range(2, self.depth + 1))
        return tuple(abs(c - b) for c, b in zip(closed, self.values) if c is not None)

    @property
    def closed_form_checked(self) -> int:
        return len(self._closed_form_devs)

    @property
    def closed_form_max_dev(self) -> float:
        return max(self._closed_form_devs, default=0.0)

    @property
    def closed_form_agrees(self) -> bool:
        return self.closed_form_max_dev <= 1e-9


def _hazard_closed_form(p: float, j: int) -> float | None:
    """Closed form for the hazard, or None at p = 0, where t± are
    undefined.

    Divided by t-^j, the denominator is (3+B+p) - (3-B+p) r^j with
    r = t+/t- = -(B+p-1)/(B+1-p).  For p in (0, 1] it is at least 2:
    B >= 1+p (as 4p >= 0) and B < 3+p (as 1 < 9), so 0 < 3-B+p <= 2;
    0 < B+p-1 <= B+1-p, so |r| <= 1; hence the denominator is at least
    (3+B+p) - (3-B+p) = 2B >= 2.
    """
    if p < 1e-12:
        return None
    b_disc = math.sqrt(p * p + 6.0 * p + 1.0)
    theta_plus = 1.0 - (1.0 - b_disc) / p
    theta_minus = 1.0 - (1.0 + b_disc) / p
    rj = (theta_plus / theta_minus) ** j
    return 2.0 * (1.0 - rj) / ((3.0 + b_disc + p) - (3.0 - b_disc + p) * rj)


def _hazards(p: float, depth: int) -> list[float]:
    """b_2, ..., b_J by the recursion, for a checked p and depth."""
    b = 0.5 * (1.0 - p)
    values = [b]
    rise = 1.0 + p
    for _ in range(3, depth + 1):
        b = 0.5 * (1.0 - rise * b) / (1.0 - b)
        values.append(b)
    return values


def run_hazards(p: float, depth: int) -> RunHazards:
    p = _check(p, depth)
    return RunHazards(p, depth, tuple(_hazards(p, int(depth))))


def _stay_probs(p: float, first: int, last: int) -> list[float]:
    """P(u_j = 0 | u_1 = 0) = (1 - (-p)^j)/(1 + p) for j = first..last,
    with the alternating power computed sign-tracked; p is checked."""
    rise = 1.0 + p
    return [
        (1.0 - (p**j if j % 2 == 0 else -(p**j))) / rise
        for j in range(first, last + 1)
    ]


def _output_entropy_partial(p: float, depth: int) -> tuple[float, float]:
    """T_J and the survival product S_{J+1} = prod_{i=2}^{J} (1 - b_i)
    left over after its last term, for a checked float p and int depth."""
    terms = []
    survival = 1.0
    for b in _hazards(p, depth):
        terms.append(_h2(b) * survival)
        survival *= 1.0 - b
    return math.fsum(terms) / (2.0 * (1.0 + p)), survival


def _error_entropy_partial(p: float, depth: int) -> float:
    """S_J for a checked float p and int depth."""
    terms = [
        math.ldexp(_h2(q), -j)
        for j, q in enumerate(_stay_probs(p, 2, depth), 2)
    ]
    return math.fsum(terms) * (1.0 + p / 2.0) / (1.0 + p)


def output_entropy_series(p: float, depth: int) -> float:
    """Partial sum T_J of the output entropy rate: each term is the
    entropy of one hazard weighted by the zero-run survival product,
    scaled by the probability (4(1+p))^-1 of the run's '10' prefix
    (doubled for the complementary symbol)."""
    return _output_entropy_partial(_check(p, depth), int(depth))[0]


def error_entropy_series(p: float, depth: int) -> float:
    """Partial sum S_J of the error-sequence entropy rate given the
    input: ((1 + p/2)/(1 + p)) sum_j 2^-j h((1 - (-p)^j)/(1 + p))."""
    return _error_entropy_partial(_check(p, depth), int(depth))


def _truncation_error(p: float, depth: int) -> float:
    """truncation_error for a checked float p and int depth."""
    return (
        (1.0 + p / 2.0) * math.ldexp(1.0, -depth)
        + math.ldexp(1.0, -((depth + 1) // 2))
    ) / (1.0 + p)


def truncation_error(p: float, depth: int) -> float:
    """Reported truncation-error bound for the SIR series at depth J,
    the paper's formula, not certified:
    (1/(1+p)) [(1 + p/2) 2^-J + 2^-floor((J+1)/2)].

    Caution: the geometric-tail constant in the second term is
    optimistic.  On a 0.01 grid of p, with the tail taken from depth
    400, the actual tail exceeds this value for p >= 0.55 at J = 8,
    p >= 0.59 at J = 15, p >= 0.75 at J = 20 and p >= 0.82 at J = 30.
    At p = 1 the hazards alternate 0, 1/2 and the tail at J = 15 is
    exactly 2^-8, while this formula gives 0.00198.  SirResult's
    certified_bound is the proven bound.
    """
    return _truncation_error(_check(p, depth), int(depth))


@dataclass(frozen=True)
class SirResult:
    """The SIR series truncated at depth J, with two truncation bounds.

    error_bound is truncation_error(p, J), the paper's formula, not
    certified: the true tail exceeds it for large p.

    certified_bound is a proven bound on |sir_inf - sir|, the distance
    from the truncated SIR to its limit, computed a posteriori from the
    hazards b_j of the truncated series:
        max(2 S_{J+1} / (1+p), (1 + p/2) 2^-J / (1+p)),
    with S_{J+1} = prod_{i=2}^{J} (1 - b_i) the survival product left
    over after T_J's last term.  Proof:
    (i) every hazard lies in [0, 1/2]: b_2 = (1-p)/2, and the map
        b -> (1 - (1+p) b) / (2 (1-b)) has derivative -p / (2 (1-b)^2)
        <= 0, so it sends [0, 1/2] onto [(1-p)/2, 1/2];
    (ii) the recursion gives the pair identity
        (1 - b_j)(1 - b_{j+1}) = (1 - b_j) - (1 - (1+p) b_j) / 2
                               = (1 - (1-p) b_j) / 2 <= 1/2;
    (iii) the T tail is sum_{k>=0} h(b_{J+1+k}) S_{J+1+k} / (2 (1+p)).
        By (i) a single factor 1 - b is at most 1 and by (ii) a pair is
        at most 1/2, so S_{J+1+k} <= 2^-floor(k/2) S_{J+1}; with h <= 1
        and sum_{k>=0} 2^-floor(k/2) = 4 the tail lies in
        [0, 2 S_{J+1} / (1+p)];
    (iv) each S-series term 2^-j h(.) is at most 2^-j, so the S tail
        lies in [0, (1 + p/2) 2^-J / (1+p)];
    (v) sir_inf - sir is the T tail minus the S tail, two non-negative
        numbers, so its absolute value is at most the larger bound.
    Since S_{J+1} <= 2^-floor((J-1)/2), certified_bound never exceeds
    its a-priori worst case (1/(1+p)) [(1+p/2) 2^-J + 4 * 2^-floor((J+1)/2)].
    (Exact arithmetic; float rounding adds ~1e-16 per term.)
    """

    p: float
    depth: int
    output_entropy: float   # T_J
    error_entropy: float    # S_J
    sir: float              # T_J - S_J
    error_bound: float      # the paper's formula, not certified
    certified_bound: float  # proven bound on the truncation error
    capacity_lower: float   # max(1/2, sir)
    capacity_upper: float   # 1/(1+p)


def sir(p: float, depth: int = 64) -> SirResult:
    """Symmetric information rate of the grains channel, truncated at
    the given depth, with capacity bounds.

    The rate-1/2 bit-doubling code survives every realization, so the
    capacity lower bound is max(1/2, SIR); the NAE degradation gives
    the upper bound 1/(1+p).
    """
    return SirResult(*_sir_fields(_check(p, depth), int(depth)))


def _sir_fields(p: float, depth: int) -> tuple:
    """SirResult's fields, in order, for a checked float p and int depth."""
    t_j, survival = _output_entropy_partial(p, depth)
    s_j = _error_entropy_partial(p, depth)
    value = t_j - s_j
    certified = max(2.0 * survival, (1.0 + p / 2.0) * math.ldexp(1.0, -depth))
    return (
        p,
        depth,
        t_j,
        s_j,
        value,
        _truncation_error(p, depth),
        certified / (1.0 + p),
        max(0.5, value),
        _stationary_weights(p)[0],
    )


def erasure_capacity(p: float) -> float:
    """Capacity 1/(1+p) of the NAE channel: one minus the stationary
    erasure frequency p/(1+p)."""
    return _stationary_weights(_check(p))[0]


def nonadjacent_error_capacity(p: float) -> float:
    """Capacity 1 - h(p)/(1+p) of the companion channel that flips
    (rather than erases or copies) at indicator positions.

    Not a valid bound for the grains channel in either direction; it is
    reported for reference only and flagged as such by the CLI.
    """
    p = _check(p)
    return 1.0 - binary_entropy(p) / (1.0 + p)


def indicator_stay_prob(j: int, p: float) -> float:
    """Closed form P(u_j = 0 | u_1 = 0) = (1 - (-p)^j)/(1 + p)."""
    if not isinstance(j, Integral) or j < 1 or not _real(p) or not 0.0 <= p <= 1.0:
        raise PreconditionError("need an integer j >= 1 and p in [0, 1]")
    return _stay_probs(float(p), int(j), int(j))[0]


# ---------------------------------------------------------------------------
# indecomposability and zero-error behavior
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndecomposabilityResult:
    p: float
    indecomposable: bool
    witness: float  # min over initial states of reaching (u=0, x_1)


def indecomposability_check(p: float) -> IndecomposabilityResult:
    """Single-step check that the initial state washes out: the state
    (0, x_1) is reached in one step with probability min_u0 P(u_1=0|u0)
    = 1 - p from every initial state, positive exactly when p < 1."""
    p = _check(p)
    witness = 1.0 - p
    return IndecomposabilityResult(p, witness > 0.0, witness)


def zero_error_rate(n: int, initial: str | int = "stationary") -> Fraction:
    """Best zero-error information rate at block length n (for p > 0).

    If the first indicator can fire (any initial convention except a
    forced grain boundary at cell 0, i.e. u0 = 1), the adversarial
    realization pins the odd positions and only floor(n/2)/n is
    achievable (and achieved by the bit-doubling code).  With u0 = 1
    the first cell is also safe: ceil(n/2)/n.  Either way -> 1/2.
    """
    if not isinstance(n, Integral) or n < 1:
        raise PreconditionError("need an integer n >= 1")
    if initial == "stationary" or initial == 0:
        first_can_fire = True
    elif initial == 1:
        first_can_fire = False
    else:
        raise PreconditionError("initial must be 'stationary', 0, or 1")
    if first_can_fire:
        return Fraction(n // 2, n)
    return Fraction((n + 1) // 2, n)


# ---------------------------------------------------------------------------
# capacity curves
# ---------------------------------------------------------------------------


def capacity_curves(
    p_values, depth: int = 15
) -> tuple[list[tuple[float, float, float, float, float]], float | None]:
    """Rows (p, sir, capacity_lower, capacity_upper, error_bound) plus
    the first grid point where the SIR limit is certified below 1/2,
    sir + certified_bound < 1/2 (there the SIR stops being the binding
    lower bound whatever the truncation error), or None.  Each grid
    point is reported as the Python float the SIR was computed at."""
    _check_depth(depth)
    depth = int(depth)
    rows = []
    crossing = None
    for p in p_values:
        p, _, _, _, value, error_bound, certified, lower, upper = _sir_fields(
            _check(p), depth
        )
        rows.append((p, value, lower, upper, error_bound))
        if crossing is None and value + certified < 0.5:
            crossing = p
    return rows, crossing
