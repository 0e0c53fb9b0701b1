"""The grains channel and its no-adjacent-erasures companion.

The medium is modeled as a binary-output channel driven by a hidden
indicator chain u: u_i = 1 means a length-2 grain ends at cell i, in
which case the recorded bit copies the previous input bit.  The chain
is first-order Markov with P(1|0) = p and P(1|1) = 0 (grains cannot
overlap), so indicator 1s are never adjacent.  The channel state is
the pair (u_i, x_i); the stationary indicator law is (1/(1+p), p/(1+p)).

Replacing "copy the previous bit" by an erasure symbol gives the
no-adjacent-erasures (NAE) channel, whose capacity is exactly 1/(1+p).
Filling each erasure with the previous channel output turns the NAE
channel back into the grains channel, so 1/(1+p) is an upper bound on
the grains-channel capacity.  The exact degradation oracle follows
that cascade literally on packed ints: the NAE output is the kept bits
plus the erasure mask, and one fill, shared with cascade_fill, turns
it into a grains output without seeing the input.  The lower bound is
the symmetric information rate (SIR), a difference of two convergent
series.  The series and the closed-form rates live in series, which
needs no numpy; this module keeps the simulation and the exact oracles
that check them, and re-exports three series names (sir,
capacity_curves, output_entropy_series) only because the benchmark
reads them off channel.

Under uniform input the output needs only the indicator as state:
given the outputs so far, u_i = 0 forces x_i = y_i, and u_i = 1 leaves
x_i a fresh uniform bit that no later output reads (y_{i+1} = x_{i+1}).
So the derivative z_i = y_i ^ y_{i-1}, y_0 = x0, is emitted by a chain
on u alone: from u = 0 to u' = 0 with z = 0 or 1, (1-p)/2 each, or to
u' = 1 with z = 0, p; from u = 1 to u' = 0 with z = 0 or 1, 1/2 each.

The indicators u_1..u_n are an error vector of the word x0 x_1..x_n,
so model's kernel serves: every output is its grain operator on x0 x,
x0 dropped.  The exact finite-n oracles check the series by enumeration
at desk scale: the output laws, mutual information and error entropy
read _indicator_law (model's masks of length n + 1 with closed-form laws),
the output-entropy bracket and P(y^n = 0^n) read _derivative_matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .config import check_cap
from .errors import PreconditionError
from .model import Word, _apply_mask, _error_masks
from .series import _check, _stationary_weights
# re-exported only because the benchmark reads them off channel
from .series import capacity_curves, output_entropy_series, sir  # noqa: F401

ERASURE = "e"
_STAR_LEAF = 9  # axes one numpy pass of _star_entropy expands: 3^9 floats


def _check_n(n: int, p: float, least: int = 1) -> None:
    """Reject n above channel_exact_n, then n < least or p outside [0, 1]."""
    check_cap("n", n, "channel_exact_n")
    if n < least or not 0.0 <= p <= 1.0:
        raise PreconditionError(f"need n >= {least} and p in [0, 1]")


# ---------------------------------------------------------------------------
# the indicator chain
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _indicator_rows(n: int) -> np.ndarray:
    """Rows (u, ones): model's error vectors of x0 x_1..x_n, ascending,
    and their weights; sorted once per n, for the laws of every p."""
    rows = _error_masks(n + 1, n)
    rows = rows[:, np.argsort(rows[0])]
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=128)
def _indicator_law(n: int, p: float, u0: int) -> tuple[np.ndarray, np.ndarray]:
    """The law of u_1..u_n given u0: every valid mask (as in
    _indicator_rows) with its probability, zero included.

    Each step from u_{i-1} = 0 contributes p for u_i = 1 and 1 - p for
    u_i = 0; each step from u_{i-1} = 1 is forced to 0 (factor 1) and
    impossible to 1.  With k ones in the mask, the steps from state 1
    number u0 + k - u_n (the 1s among u_0..u_{n-1}), so the steps from
    state 0 number n - u0 - k + u_n, of which k go to 1:
        q = p^k (1-p)^(n - u0 - 2k + u_n),
    and q = 0 when u0 = 1 = u_1.  Only that excluded case makes the
    exponent negative; it is clamped to 0 there so that p = 1 does not
    raise 0 to a negative power.
    """
    p = float(p)
    masks, ones = _indicator_rows(n)
    free = n - u0 - 2 * ones + (masks & 1)
    probs = p**ones * (1.0 - p) ** np.maximum(free, 0)
    if u0:
        probs[masks >> (n - 1) == 1] = 0.0
    probs.setflags(write=False)
    return masks, probs


# ---------------------------------------------------------------------------
# channel specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelSpec:
    """Grain probability p and initial-state convention.

    initial is either the string "stationary" (indicator drawn from its
    stationary law, previous bit x0 uniform) or an explicit pair
    (u0, x0).
    """

    p: float
    initial: str | tuple[int, int] = "stationary"

    def __post_init__(self):
        _check(self.p)
        if self.initial != "stationary":
            u0, x0 = self.initial  # type: ignore[misc]
            if u0 not in (0, 1) or x0 not in (0, 1):
                raise PreconditionError("explicit initial state must be bit pair")

    @property
    def stationary_weights(self) -> tuple[float, float]:
        """(P(u=0), P(u=1)) under the stationary indicator law."""
        return _stationary_weights(self.p)

    def initial_states(self) -> list[tuple[int, int, float]]:
        """(u0, x0, probability) triples of the initial state."""
        if self.initial == "stationary":
            weights = enumerate(self.stationary_weights)
            return [(u0, x0, w / 2.0) for u0, w in weights if w > 0.0 for x0 in (0, 1)]
        u0, x0 = self.initial  # type: ignore[misc]
        return [(u0, x0, 1.0)]


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream).

    Philox is used so that identical (seed, stream) pairs reproduce the
    same sequence on every platform, and distinct streams are
    statistically independent.
    """
    if seed < 0 or stream < 0:
        raise PreconditionError("seed and stream must be non-negative")
    key = (stream << 64) | (seed & ((1 << 64) - 1))
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def _draw_initial(spec: ChannelSpec, rng: np.random.Generator) -> tuple[int, int]:
    if spec.initial == "stationary":
        u0 = 1 if rng.random() < spec.stationary_weights[1] else 0
        x0 = int(rng.integers(2))
        return u0, x0
    return spec.initial  # type: ignore[return-value]


def sample_indicator(
    n: int, spec: ChannelSpec, rng: np.random.Generator
) -> tuple[np.ndarray, int, int]:
    """Draw (u_1..u_n, u0, x0).  After a 1 the next indicator is forced
    to 0; otherwise it is Bernoulli(p).  So inside each maximal run of
    uniforms below p (hits) the indicators alternate 1, 0, 1, ...; u0 = 1
    counts as a hit in front of position 1."""
    u0, x0 = _draw_initial(spec, rng)
    hit = np.empty(n + 1, dtype=bool)
    hit[0] = u0 == 1
    np.less(rng.random(n), spec.p, out=hit[1:])
    starts = hit.copy()
    starts[1:] &= ~hit[:-1]
    idx = np.arange(n + 1, dtype=np.int32 if n < 2**31 - 1 else np.int64)
    run_start = np.where(starts, idx, 0)
    np.maximum.accumulate(run_start, out=run_start)
    idx -= run_start
    u = hit[1:] & ((idx[1:] & 1) == 0)
    return u.view(np.uint8), u0, x0


def simulate_grains(x: Word, spec: ChannelSpec, seed: int, stream: int = 0) -> Word:
    """One pass of x through the grains channel: y_i = x_i when
    u_i = 0, otherwise the previous input bit (x0 at i = 1)."""
    rng = make_rng(seed, stream)
    u, _, x0 = sample_indicator(x.n, spec, rng)
    y = _apply_mask((x0 << x.n) | x.value, Word.from_array(u).value)
    return Word(x.n, y & ((1 << x.n) - 1))


def simulate_erasures(x: Word, spec: ChannelSpec, seed: int, stream: int = 0) -> str:
    """One pass through the NAE channel: positions with u_i = 1 are
    erased.  The output never contains two adjacent erasures."""
    rng = make_rng(seed, stream)
    u, _, _ = sample_indicator(x.n, spec, rng)
    out = np.frombuffer(x.render().encode("ascii"), dtype=np.uint8).copy()
    out[u == 1] = ord(ERASURE)
    return out.tobytes().decode("ascii")


def _fill(kept, erased, n: int, y0: int):
    """Fill the packed NAE output (kept bits, 0 where erased; erasure
    mask) of length n, ints or int arrays: each erasure copies the bit
    to its left, y0 left of position 1.  Adjacent erasures would copy
    an erasure."""
    if np.any(erased & (erased >> 1)):
        raise PreconditionError("adjacent erasures cannot be filled")
    return _apply_mask((y0 << n) | kept, erased) & ((1 << n) - 1)


def cascade_fill(y: str | Sequence[str], y0: int) -> Word:
    """Fill each erasure with the previous raw symbol (y0 before the
    first).  Sound for NAE outputs, where erasures are never adjacent;
    adjacent erasures would leave a non-binary symbol and are rejected.
    """
    if y0 not in (0, 1):
        raise PreconditionError("fill bit y0 must be 0 or 1")
    kept = erased = 0
    for c in y:
        if c not in ("0", "1", ERASURE):
            raise PreconditionError(f"bad channel symbol {c!r}")
        kept = (kept << 1) | (c == "1")
        erased = (erased << 1) | (c == ERASURE)
    return Word(len(y), _fill(kept, erased, len(y), y0))


def simulation_stats(n: int, p: float, seed: int, stream: int = 0) -> dict:
    """Empirical statistics of one indicator/grains run on a random
    uniform input of length n (used by the CLI and the convergence
    tests)."""
    if n < 1:
        raise PreconditionError("need n >= 1")
    spec = ChannelSpec(p)
    rng = make_rng(seed, stream)
    xbits = rng.integers(0, 2, size=n, dtype=np.uint8)
    u, u0, x0 = sample_indicator(n, spec, rng)
    prev = np.insert(xbits[:-1], 0, x0)
    z = (u == 1) & (prev != xbits)
    full = np.insert(u, 0, u0)
    counts = np.bincount(2 * full[:-1] + full[1:], minlength=4)
    trans = {f"{k >> 1}{k & 1}": int(c) for k, c in enumerate(counts)}
    return {
        "n": n,
        "p": p,
        "seed": seed,
        "stream": stream,
        "indicator_rate": float(u.mean()),
        "error_rate": float(z.mean()),
        "transitions": trans,
        "adjacent_indicator_pairs": trans["11"],
    }


# ---------------------------------------------------------------------------
# exact output laws (degradation oracle)
# ---------------------------------------------------------------------------


def _output_law(x: Word, spec: ChannelSpec, channel) -> dict[Word, float]:
    """Exact output law when channel(masks, x0) maps every indicator
    sequence to its packed output, mixed over the initial states."""
    outputs, weights = [], []
    for u0, x0, w in spec.initial_states():
        masks, probs = _indicator_law(x.n, spec.p, u0)
        outputs.append(channel(masks, x0))
        weights.append(w * probs)
    ys, inverse = np.unique(np.concatenate(outputs), return_inverse=True)
    law = np.bincount(inverse, weights=np.concatenate(weights))
    live = law > 0.0  # the kernel keeps every output in 0 .. 2^n - 1
    return dict(zip(Word._unchecked(x.n, ys[live].tolist()), law[live].tolist()))


def grains_output_law(x: Word, spec: ChannelSpec) -> dict[Word, float]:
    """Exact output distribution of the grains channel for input x."""
    cells = (1 << x.n) - 1
    return _output_law(x, spec, lambda u, x0: _apply_mask((x0 << x.n) | x.value, u) & cells)


def cascaded_erasure_output_law(x: Word, spec: ChannelSpec) -> dict[Word, float]:
    """Exact output distribution of the NAE channel followed by
    erasure filling, with the fill bit matched to the initial state's
    previous bit.  Computed along the literal two-stage route so the
    result can be compared against grains_output_law; the fill sees
    only the NAE output (kept bits and erasure mask), never x."""
    return _output_law(x, spec, lambda u, x0: _fill(x.value & ~u, u, x.n, x0))


def total_variation(law1: dict[Word, float], law2: dict[Word, float]) -> float:
    keys = set(law1) | set(law2)
    return 0.5 * sum(abs(law1.get(k, 0.0) - law2.get(k, 0.0)) for k in keys)


# ---------------------------------------------------------------------------
# exact finite-n oracles
# ---------------------------------------------------------------------------


def erasure_mi_exact(n: int, p: float) -> float:
    """Exact I(x^n; y^n | u0)/n of the NAE channel under i.i.d. uniform
    input and stationary u0, by enumeration over indicator sequences.

    For each u0, I = H(y|u0) - H(y|x,u0); the erasure pattern of y
    reveals u exactly, so H(y|x,u0) = H(u|u0), and conditioned on u the
    non-erased outputs are uniform.  Comes out to 1/(1+p) for every n.
    """
    _check_n(n, p)
    kept = n - _indicator_rows(n)[1]  # non-erased positions
    mi = 0.0
    for u0, w in enumerate(_stationary_weights(p)):
        q = _indicator_law(n, p, u0)[1]
        live = q > 0.0
        q, log_q = q[live], np.log2(q[live])
        h_u = -(q * log_q).sum()
        h_y = (q * (kept[live] - log_q)).sum()
        mi += w * float(h_y - h_u)
    return mi / n


def _derivative_matrices(p: float) -> tuple[np.ndarray, np.ndarray]:
    """D[z][u, u'] = P(next indicator u', derivative z | indicator u),
    the chain of the module docstring."""
    half = (1.0 - p) / 2.0
    return np.array([[half, p], [0.5, 0.0]]), np.array([[half, 0.0], [0.5, 0.0]])


def _entropy(q: np.ndarray) -> float:
    """Sum of -q log2 q over the positive entries of q, as +0.0 (never
    -0.0) when no entry contributes."""
    q = q[q > 0.0]
    terms = np.log2(q)
    terms *= q
    return 0.0 - float(terms.sum())


def _prefix_masses(p: float, n: int, u0: int) -> tuple[np.ndarray, np.ndarray]:
    """P(z^{n-1}) and P(z^n) of the derivative chain from indicator u0,
    indexed by the prefix read MSB-first.  A forward sweep keeps alpha
    over (prefix, u): row i of alpha @ [D0 | D1] holds prefix i extended
    by 0, then by 1, so reshaping keeps the prefixes ascending.  The last
    step needs only alpha(z^{n-1}) D_b 1, one product with the row sums
    of D0 and D1, so no 2^n x 2 array is built."""
    d0, d1 = _derivative_matrices(p)
    d01 = np.hstack((d0, d1))
    alpha = np.eye(2)[u0 : u0 + 1]
    for _ in range(n - 1):
        alpha = (alpha @ d01).reshape(-1, 2)
    shorter = alpha[:, 0] + alpha[:, 1]
    longer = alpha @ np.column_stack((d0.sum(axis=1), d1.sum(axis=1)))
    return shorter, longer.ravel()


def output_entropy_bracket(n: int, p: float) -> tuple[float, float]:
    """(lower, upper) bracket for the output entropy rate:
    H(y_n | y^{n-1}, s0) <= rate <= H(y_n | y^{n-1}), both exact under
    the stationary initial state.  The output-entropy series partial
    sums converge inside this bracket.

    Both ends come from two sweeps of the derivative chain, with a_u the
    prefix masses from u0 = u.  Lower end: given s0 = (u0, x0), y^n ->
    z^n is a bijection and z^n's law depends on u0 alone, so
        lower = sum_u w_u (H(a_u at n) - H(a_u at n-1)).
    Upper end: y^n -> (y_1, z_2..z_n) is a bijection.  y_1 (x_1 or x0)
    is uniform whatever u_1, z_2..z_n is emitted from u_1 without
    reading y_1, and u_1 is stationary; so H(y^n) = 1 + H(b) with
    b = sum_u w_u a_u at n - 1, and H(y^{n-1}) = 1 + H(b'), b' the
    pairwise sums of b (the last z summed out): upper = H(b) - H(b')."""
    _check_n(n, p, least=2)
    lower = b = 0.0
    for u, w in enumerate(_stationary_weights(p)):
        if w > 0.0:
            shorter, longer = _prefix_masses(p, n, u)
            lower += w * (_entropy(longer) - _entropy(shorter))
            b = b + w * shorter
            del shorter, longer  # before the next sweep, whose arrays set the peak
    return lower, _entropy(b) - _entropy(b[0::2] + b[1::2])


def all_zero_output_prob(n: int, p: float) -> float:
    """Exact P(y^n = 0^n) under stationary start and uniform input;
    bounded by (3/4)^floor(n/2) since each 00 output pair rules out an
    11 input pair.  It is P(y_1 = 0, z_2..z_n = 0) = (1/2) w D0^(n-1) 1,
    w the stationary indicator law (as in output_entropy_bracket)."""
    if n < 1 or not 0.0 <= p <= 1.0:
        raise PreconditionError("need n >= 1 and p in [0, 1]")
    d0 = _derivative_matrices(p)[0]
    return 0.5 * float(np.sum(_stationary_weights(p) @ np.linalg.matrix_power(d0, n - 1)))


def _star_entropy(f: np.ndarray, k: int) -> float:
    """Sum of -q log2 q over the star transform of f (k binary axes,
    MSB-first): f at every string in {0, 1, *}^k, a * summing its axis.
    Recurses on (f|0, f|1, f|0 + f|1) above 3^_STAR_LEAF floats.

    Zero half.  If f|1 = 0, the strings led by 1 carry only zeros and
    those led by * carry f|0 + 0 = f|0, the same values as those led by
    0, so the sum is exactly 2 * (the sum for f|0), in floats too.  The
    indicator law has no adjacent 1s, so f|1 on one axis has a zero
    half on the next, and the shortcut repeats down the recursion."""
    if k > _STAR_LEAF:
        lo, hi = np.split(f, 2)
        if not hi.any():
            return 2.0 * _star_entropy(lo, k - 1)
        return sum(_star_entropy(g, k - 1) for g in (lo, hi, lo + hi))
    g = f.reshape(1, -1)
    for _ in range(k):
        g = g.reshape(len(g), 2, -1)
        g = np.concatenate([g, g[:, :1] + g[:, 1:]], axis=1).reshape(3 * len(g), -1)
    return _entropy(g)


def error_entropy_exact(n: int, p: float) -> float:
    """Exact H(z^n | x^n) with z the error indicator sequence, the
    input uniform, and the initial state (u0, x0) hidden stationary.

    Identity.  z = u & c, c_i = [x_i != x_{i-1}] the change pattern of
    x0 x^n, u independent of the input.  c_2..c_n is a function of x^n
    and c_1 is uniform and independent of it (x0 is), so H(z|x) is
    2^-(n-1) times the sum over tails c_2..c_n of H(Z|c), c_1 mixed at
    1/2.  On positions 2..n each pair (c, z <= c) is one string over
    {0, 1, *}, * where c_i = 0, and P(z|c) is the law f of u_1..u_n
    summed over u_i at every *; so that sum is the sum of -g log2 g
    over the star transform g of f on axes 2..n.  Axis 1 mixes c_1:
    z_1 = 0 has f|0 + f|1 / 2 and z_1 = 1 has f|1 / 2.  f holds every
    valid mask of _indicator_law with its closed-form probability, so
    this is a brute-force enumeration, independent of the series it
    checks, whose limit the successive differences approach."""
    _check_n(n, p)
    w0, w1 = _stationary_weights(p)
    masks, q0 = _indicator_law(n, p, 0)
    f = np.zeros(1 << n)
    f[masks] = w0 * q0 + w1 * _indicator_law(n, p, 1)[1]
    f0, f1 = np.split(f, 2)
    total = _star_entropy(f0 + 0.5 * f1, n - 1) + _star_entropy(0.5 * f1, n - 1)
    return total / (1 << (n - 1))


def indicator_transition_matrix(p: float) -> np.ndarray:
    return np.array([[1.0 - p, p], [1.0, 0.0]])
