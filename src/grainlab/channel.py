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
plus the erasure mask, and one pure fill, shared with cascade_fill,
turns it into a grains output without seeing the input; the erasure
masks are checked for adjacent erasures where they enter, once per
parsed string or cached mask table, not per fill.  The lower bound is
the symmetric information rate (SIR), a difference of two convergent
series.  The series and the closed-form rates live in series, which
needs no numpy; this module keeps the simulation and the exact oracles
that check them, and re-exports three series names (sir,
capacity_curves, output_entropy_series) only because the benchmark
reads them off channel.

The simulation walks the indicator chain in blocks of _SIM_BLOCK
symbols through one kernel, _indicator_blocks, which sample_indicator
and simulation_stats share.  A block is one packed int, on which
u_i = hit_i and not u_(i-1) takes a few bit operations and carries only
the last indicator across a block edge; a double takes one 64-bit word
of the stream, so the blocks draw what one rng.random(n) draws and a
seed gives the same run at any block size.  The statistics count each
block with int.bit_count: they hold the n input bytes and one block.

Under uniform input the output needs only the indicator as state:
given the outputs so far, u_i = 0 forces x_i = y_i, and u_i = 1 leaves
x_i a fresh uniform bit that no later output reads (y_{i+1} = x_{i+1}).
So the derivative z_i = y_i ^ y_{i-1}, y_0 = x0, is emitted by a chain
on u alone: from u = 0 to u' = 0 with z = 0 or 1, (1-p)/2 each, or to
u' = 1 with z = 0, p; from u = 1 to u' = 0 with z = 0 or 1, 1/2 each.

The indicators u_1..u_n are an error vector of the word x0 x_1..x_n,
so model's kernel serves: every output is its grain operator on x0 x,
x0 dropped.  The exact finite-n oracles check the series at desk
scale.  The mutual information reads _indicator_law (model's masks of
length n + 1 with closed-form laws), which keeps no cache, since no
caller reads a row twice; the output laws read it through
_start_table, cached per (n, spec): it merges the initial states into
one weight row per fill bit x0, so each law is one broadcast pass of
its channel over (x0, mask) pairs.  A law is keyed by packed outputs,
plain ints in ascending order, and builds no Word: one dense bincount
over the 2^n possible outputs adds the weights in the pass's order, and
its live bins are the keys.  The error entropy is a forward recursion
on indicator_transition_matrix.  The output-entropy bracket and
P(y^n = 0^n) read _derivative_matrices.  A z = 1 step always lands
in u' = 0, so the chain resets at every 1: a prefix's mass is a product
of one factor per run of 0s, and the bracket's entropies follow from a
recursion over the position of the last 1, O(n^2) float steps in place
of a sweep over 2^(n-1) prefixes.  Every oracle reads p as a Python
float, so a float32 p is computed in float64 like any other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .config import check_cap
from .errors import PreconditionError
from .model import Word, _apply_mask, _error_masks, _integer
from .series import _check, _real, _stationary_weights
# re-exported only because the benchmark reads them off channel
from .series import capacity_curves, output_entropy_series, sir  # noqa: F401

ERASURE = "e"
#: indicators one block of the simulation walk draws; a seed gives the
#: same run at any size.  At 10^6 symbols 2^14 took 9.8 ms with 0.16 MB
#: of block temporaries over the n input bytes, 2^16 9.2 ms with 0.64 MB
_SIM_BLOCK = 1 << 14


def _check_n(n: int, p: float, least: int = 1) -> float:
    """Reject a non-integer n, then n above channel_exact_n, then
    n < least or p not a real in [0, 1]; return p as a Python float, so
    that a float32 p computes in float64."""
    if _integer(n):
        check_cap("n", n, "channel_exact_n")
    if not _integer(n) or n < least or not _real(p) or not 0.0 <= p <= 1.0:
        raise PreconditionError(f"need an integer n >= {least} and p in [0, 1]")
    return float(p)


# ---------------------------------------------------------------------------
# the indicator chain
# ---------------------------------------------------------------------------


def _indicator_law(n: int, p: float, u0: int) -> tuple[np.ndarray, np.ndarray]:
    """The law of u_1..u_n given u0: every valid mask, model's error
    vectors of x0 x_1..x_n in their order, with its probability, zero
    included.  Uncached: no caller reads a row twice, and _start_table
    caches the sums the output laws read.

    Each step from u_{i-1} = 0 contributes p for u_i = 1 and 1 - p for
    u_i = 0; each step from u_{i-1} = 1 is forced to 0 (factor 1) and
    impossible to 1.  With k ones in the mask, the steps from state 1
    number u0 + k - u_n (the 1s among u_0..u_{n-1}), so the steps from
    state 0 number n - u0 - k + u_n, of which k go to 1:
        q = p^k (1-p)^(n - u0 - 2k + u_n),
    and q = 0 when u0 = 1 = u_1.  Only that excluded case makes the
    exponent negative; it is clamped to 0 there so that p = 1 does not
    raise 0 to a negative power.  k = np.bitwise_count(mask) is a uint8, so
    the sum starts from the int64 u_n = mask & 1 and cannot wrap there.
    """
    p = float(p)
    masks = _error_masks(n + 1, n)
    ones = np.bitwise_count(masks)
    free = (masks & 1) + (n - u0) - 2 * ones
    probs = p**ones * (1.0 - p) ** np.maximum(free, 0)
    if u0:
        probs[masks >> (n - 1) == 1] = 0.0
    return masks, probs


# ---------------------------------------------------------------------------
# channel specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelSpec:
    """Grain probability p and initial-state convention.

    initial is either the string "stationary" (indicator drawn from its
    stationary law, previous bit x0 uniform) or an explicit pair
    (u0, x0) of integer bits, stored as Python ints; p as a Python float.
    """

    p: float
    initial: str | tuple[int, int] = "stationary"

    def __post_init__(self):
        object.__setattr__(self, "p", _check(self.p))
        pair = self.initial
        if pair == "stationary":
            return
        if not (isinstance(pair, tuple) and len(pair) == 2) or not all(
            _integer(b) and b in (0, 1) for b in pair
        ):
            raise PreconditionError("explicit initial state must be bit pair")
        object.__setattr__(self, "initial", (int(pair[0]), int(pair[1])))

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
    """Counter-based generator keyed by (seed, stream), each an integer
    in [0, 2^64): the Philox key is stream * 2^64 + seed, so a larger
    seed would alias a smaller one and a larger stream would overflow
    the 128-bit key.  The CLI's simulate draws its random input word
    from stream + 1, so there the stream must stay below 2^64 - 1.

    Philox is used so that identical (seed, stream) pairs reproduce the
    same sequence on every platform, and distinct streams are
    statistically independent.
    """
    if not (_integer(seed) and _integer(stream)) or not (
        0 <= seed < 1 << 64 and 0 <= stream < 1 << 64
    ):
        raise PreconditionError(
            f"seed and stream must be non-negative integers below 2^64: {seed!r}, {stream!r}"
        )
    key = (int(stream) << 64) | int(seed)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def _draw_initial(spec: ChannelSpec, rng: np.random.Generator) -> tuple[int, int]:
    if spec.initial == "stationary":
        return int(rng.random() < spec.stationary_weights[1]), int(rng.integers(2))
    return spec.initial  # type: ignore[return-value]


@lru_cache(maxsize=8)
def _even_bits(blocks: int) -> int:
    """The 0x55... mask: every even bit below blocks * _SIM_BLOCK."""
    return int.from_bytes(b"\x55" * (blocks * _SIM_BLOCK // 8), "little")


def _alternate(h: int) -> int:
    """u_i = h_i and not u_(i-1) on packed bits: each run of set bits
    keeps its 1st, 3rd, ... bit.  A run's first bit, added, carries
    through the run, so h & ((h + s) ^ h), s the even-bit starts, is the
    runs that start at an even bit: those keep their even bits."""
    even = _even_bits(h.bit_length() // _SIM_BLOCK + 1)
    starts = h & ~(h << 1)
    even_runs = h & ((h + (starts & even)) ^ h)
    return h & (even ^ h ^ even_runs)


def _indicator_blocks(n: int, p: float, u0: int, rng: np.random.Generator):
    """Yield u_1..u_n as (k, w) per block of k <= _SIM_BLOCK indicators:
    the int w holds the indicator in front (u0 before the first block)
    at bit 0 and u_i at bit i.  After a 1 the next indicator is forced
    to 0, otherwise it is Bernoulli(p): u_i = hit_i and not u_(i-1),
    hit_i = (uniform_i < p), which _alternate computes with the indicator
    in front as a hit; bit k is all the next block carries.  A double
    takes one 64-bit word of the stream: the draws are one rng.random(n)."""
    u_prev = u0
    for start in range(0, n, _SIM_BLOCK):
        k = min(_SIM_BLOCK, n - start)
        hit = np.packbits(rng.random(k) < p, bitorder="little")
        w = _alternate(int.from_bytes(hit, "little") << 1 | u_prev)
        u_prev = w >> k
        yield k, w


def sample_indicator(
    n: int, spec: ChannelSpec, rng: np.random.Generator
) -> tuple[np.ndarray, int, int]:
    """Draw (u_1..u_n, u0, x0): the initial state, then the indicators
    of _indicator_blocks, unpacked from their joined bytes (each block
    but the last fills whole bytes: _SIM_BLOCK is a multiple of 8)."""
    u0, x0 = _draw_initial(spec, rng)
    blocks = _indicator_blocks(n, spec.p, u0, rng)
    packed = b"".join((w >> 1).to_bytes(-(-k // 8), "little") for k, w in blocks)
    u = np.unpackbits(np.frombuffer(packed, np.uint8), count=n, bitorder="little")
    return u, u0, x0


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


def _check_erasures(erased) -> None:
    """Reject an erasure mask (an int or an int array) with two adjacent
    erasures: the fill would copy an erasure."""
    if np.any(erased & (erased >> 1)):
        raise PreconditionError("adjacent erasures cannot be filled")


def _fill(kept, erased, n: int, y0: int):
    """Fill the packed NAE output (kept bits, 0 where erased; erasure
    mask) of length n, ints or int arrays: each erasure copies the bit
    to its left, y0 left of position 1 (an int, or a column of fill bits
    that broadcasts against the masks).  The pure fill: it trusts the
    mask to hold no adjacent erasures, which its callers check once,
    cascade_fill on the mask it parses and _start_table on the masks it
    caches."""
    return _apply_mask((y0 << n) | kept, erased) & ((1 << n) - 1)


def cascade_fill(y: str | Sequence[str], y0: int) -> Word:
    """Fill each erasure with the previous raw symbol (y0 before the
    first).  Sound for NAE outputs, where erasures are never adjacent;
    the erasure mask parsed from y is checked before the fill, so
    adjacent erasures, which would leave a non-binary symbol, are
    rejected.
    """
    if y0 not in (0, 1):
        raise PreconditionError("fill bit y0 must be 0 or 1")
    kept = erased = 0
    for c in y:
        if c not in ("0", "1", ERASURE):
            raise PreconditionError(f"bad channel symbol {c!r}")
        kept = (kept << 1) | (c == "1")
        erased = (erased << 1) | (c == ERASURE)
    _check_erasures(erased)
    return Word(len(y), _fill(kept, erased, len(y), y0))


def simulation_stats(n: int, p: float, seed: int, stream: int = 0) -> dict:
    """Empirical statistics of one indicator/grains run on a random
    uniform input of length n (used by the CLI and the convergence
    tests).

    The stream is read in sample_indicator's order after the input: the
    n input bits in one draw, then (u0, x0), then the indicators, walked
    in blocks of _indicator_blocks.  Each block packs its inputs like its
    indicators, x_prev at bit 0, and bit-counts its ones, its errors u_i
    and (x_(i-1) != x_i), and each of its four transitions
    (u_(i-1), u_i), so "11" checks the sampler.  It holds the n input
    bytes and one block; each rate is count / n, the 0/1 array's mean."""
    if not _integer(n) or n < 1:
        raise PreconditionError(f"need n >= 1, an integer: n={n!r}")
    spec = ChannelSpec(p)
    rng = make_rng(seed, stream)
    xbits = rng.integers(0, 2, size=n, dtype=np.uint8)
    u0, x_prev = _draw_initial(spec, rng)
    ones = errors = at = 0
    counts = [0, 0, 0, 0]
    for k, w in _indicator_blocks(n, spec.p, u0, rng):
        x = np.packbits(xbits[at : at + k], bitorder="little")
        x = int.from_bytes(x, "little") << 1 | x_prev
        mask = (1 << k) - 1
        prev, u = w & mask, w >> 1  # u_(i-1) and u_i at bit i - 1
        ones += u.bit_count()
        errors += (u & (x ^ (x >> 1))).bit_count()
        for code, pair in enumerate((mask & ~(prev | u), u & ~prev, prev & ~u, prev & u)):
            counts[code] += pair.bit_count()
        x_prev, at = x >> k, at + k
    trans = {f"{k >> 1}{k & 1}": c for k, c in enumerate(counts)}
    return {
        "n": n,
        "p": p,
        "seed": seed,
        "stream": stream,
        "indicator_rate": ones / n,
        "error_rate": errors / n,
        "transitions": trans,
        "adjacent_indicator_pairs": trans["11"],
    }


# ---------------------------------------------------------------------------
# exact output laws (degradation oracle)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=128)
def _start_table(n: int, spec: ChannelSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(masks, x0s, weights) for the output laws of length-n words:
    every indicator mask, the column of fill bits x0 the start uses, and
    per x0 one read-only weight row, the sum over u0 of w(u0, x0) times
    _indicator_law's row for u0.  Neither depends on the word, so one
    table serves every x of length n; stationary starts merge their four
    states into two rows, which carry the same weights.  The masks are
    checked for adjacent 1s here, once per cached table, so the
    cascade's fill, which reads them as erasure masks, need not check
    them per word."""
    rows: dict[int, np.ndarray] = {}
    for u0, x0, w in spec.initial_states():
        masks, probs = _indicator_law(n, spec.p, u0)
        rows[x0] = rows.get(x0, 0.0) + w * probs
    _check_erasures(masks)
    x0s = np.array(list(rows), dtype=np.int64)[:, None]
    weights = np.stack(list(rows.values()))
    x0s.setflags(write=False)
    weights.setflags(write=False)
    return masks, x0s, weights


def _output_law(x: Word, spec: ChannelSpec, channel) -> dict[int, float]:
    """Exact output law {packed output: mass}, ascending, when
    channel(masks, x0s) maps every indicator sequence and fill bit to its
    packed output, mixed over the initial states.  It enumerates all
    F(n + 2) indicator masks, so n is checked against channel_exact_n
    first.  One call broadcasts the masks against the column of fill bits
    of _start_table to a (rows, F) array, and one dense bincount over the
    2^n possible outputs adds the cached weight rows into their bins in
    ravel order; the live bins, ascending, are the keys.  The bins cost
    8 * 2^n bytes for one call: a few kB at the n <= 10 that the
    degradation checks read, 8 MB at n = channel_exact_n = 20, where a
    law takes a few ms."""
    _check_n(x.n, spec.p)
    masks, x0s, weights = _start_table(x.n, spec)
    ys = channel(masks, x0s).ravel()  # the kernel keeps outputs in 0 .. 2^n - 1
    law = np.bincount(ys, weights=weights.ravel(), minlength=1 << x.n)
    keys = np.flatnonzero(law > 0.0)
    return dict(zip(keys.tolist(), law[keys].tolist()))


def grains_output_law(x: Word, spec: ChannelSpec) -> dict[int, float]:
    """Exact output distribution of the grains channel for input x,
    keyed by the packed output value (Word packing), ascending."""
    cells = (1 << x.n) - 1
    return _output_law(x, spec, lambda u, x0s: _apply_mask((x0s << x.n) | x.value, u) & cells)


def cascaded_erasure_output_law(x: Word, spec: ChannelSpec) -> dict[int, float]:
    """Exact output distribution of the NAE channel followed by
    erasure filling, with the fill bit matched to the initial state's
    previous bit, keyed like grains_output_law.  Computed along the
    literal two-stage route so the result can be compared against
    grains_output_law; the fill sees only the NAE output (kept bits and
    erasure mask), never x."""
    return _output_law(x, spec, lambda u, x0s: _fill(x.value & ~u, u, x.n, x0s))


def total_variation(law1: dict[int, float], law2: dict[int, float]) -> float:
    """Half the L1 distance of two laws keyed by packed outputs."""
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
    n - np.bitwise_count(u) non-erased outputs are uniform (a uint8 count,
    >= 0 as n <= 62).  Comes out to 1/(1+p) for every n.
    """
    p = _check_n(n, p)
    kept = n - np.bitwise_count(_error_masks(n + 1, n))  # non-erased positions
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


def _xlog2(x: float) -> float:
    """x log2 x, as 0.0 at x = 0."""
    return x * math.log2(x) if x > 0.0 else 0.0


def _run_factors(p: float, n: int) -> tuple[list[list[float]], list[list[float]]]:
    """(c, tau), c[u][a] = e_u D0^a v and tau[u][a] = e_u D0^a 1 for
    a = 0..n, v the first column of D1: the mass of a run of a 0s from
    indicator u that a 1 ends (c) or that ends the prefix (tau)."""
    d0, d1 = _derivative_matrices(p)
    (d00, d01), (d10, d11) = d0.tolist()
    v0, v1 = d1[:, 0].tolist()
    c, tau = [[], []], [[], []]
    for u, (r0, r1) in enumerate(((1.0, 0.0), (0.0, 1.0))):
        for _ in range(n + 1):
            c[u].append(r0 * v0 + r1 * v1)
            tau[u].append(r0 + r1)
            r0, r1 = r0 * d00 + r1 * d10, r0 * d01 + r1 * d11
    return c, tau


def _run_entropies(first, alone, gap, tail, n: int) -> tuple[float, float]:
    """-sum m log2 m over the prefixes z^n, then z^(n-1), when
    0^a0 1 0^a1 1 ... 1 0^ar has mass first[a0] gap[a1] ... tail[ar] and
    0^L has alone[L].  Per position k of the last 1 it carries A = sum P
    and B = sum P log2 P over the prefixes z^k that end in 1: 0^(k-1) 1,
    of mass first[k - 1], and each one that ends in 1 at j < k, extended
    by a factor phi = gap[k - 1 - j] that maps (A, B) to (phi A,
    phi B + A phi log2 phi), 0 at phi = 0.  The lists run newest first,
    so the entry at index i is extended by gap[i].  A tail tau adds
    tau B + A tau log2 tau: n (n + 1) / 2 steps, not 2^n prefixes."""
    gap_log = [_xlog2(g) for g in gap]
    tail_log = [_xlog2(t) for t in tail]
    big_a, big_b = [], []
    for f in first[:n]:
        a, b = f, _xlog2(f)
        for phi, phi_log, a_j, b_j in zip(gap, gap_log, big_a, big_b):
            a += phi * a_j
            b += phi * b_j + phi_log * a_j
        big_a.insert(0, a)
        big_b.insert(0, b)
    sums = []
    for skip in (0, 1):  # length n, then n - 1, which has no 1 at position n
        terms = zip(tail, tail_log, big_a[skip:], big_b[skip:])
        sums.append(sum((t * b + t_log * a for t, t_log, a, b in terms), _xlog2(alone[n - skip])))
    return 0.0 - sums[0], 0.0 - sums[1]


def output_entropy_bracket(n: int, p: float) -> tuple[float, float]:
    """(lower, upper) bracket for the output entropy rate:
    H(y_n | y^{n-1}, s0) <= rate <= H(y_n | y^{n-1}), both exact under
    the stationary initial state.  The output-entropy series partial
    sums converge inside this bracket.  a_u(z^L) = e_u D_z1 ... D_zL 1 is
    the mass of z^L from u0 = u.

    Lower end: given s0 = (u0, x0), y^n -> z^n is a bijection and z^n's
    law depends on u0 alone: lower = sum_u w_u (H(a_u at n) - H(a_u at
    n - 1)).  Upper end: y^n -> (y_1, z_2..z_n) is a bijection.  y_1
    (x_1 or x0) is uniform whatever u_1, z_2..z_n is emitted from u_1
    without reading y_1, and u_1 is stationary; so H(y^L) = 1 + H(b) at
    L - 1, b = sum_u w_u a_u: upper = H(b at n - 1) - H(b at n - 2).

    The rank-one step.  z_i = 1 means y_i != y_(i-1), which a grain
    (y_i = x_(i-1) = y_(i-1)) rules out: every z = 1 step lands in
    u = 0, so D1 = v e_0^T, v its first column.  For z^L =
    0^a0 1 0^a1 1 ... 1 0^ar, then
        a_u(z^L) = (e_u D0^a0 v) (e_0 D0^a1 v) ... (e_0 D0^ar 1),
    the factors of _run_factors, and 0^L has mass e_u D0^L 1.  The
    mixture b changes only the first factors, to sum_u w_u c_u and
    sum_u w_u tau_u, so _run_entropies gives all six entropies."""
    p = _check_n(n, p, least=2)
    c, tau = _run_factors(p, n)
    weights = _stationary_weights(p)
    lower = 0.0
    for u, w in enumerate(weights):
        longer, shorter = _run_entropies(c[u], tau[u], c[0], tau[0], n)
        lower += w * (longer - shorter)
    w0, w1 = weights
    mixed = ([w0 * f0 + w1 * f1 for f0, f1 in zip(*pair)] for pair in (c, tau))
    h_b, h_shorter = _run_entropies(*mixed, c[0], tau[0], n - 1)
    return lower, h_b - h_shorter


def all_zero_output_prob(n: int, p: float) -> float:
    """Exact P(y^n = 0^n) under stationary start and uniform input;
    bounded by (3/4)^floor(n/2) since each 00 output pair rules out an
    11 input pair.  It is P(y_1 = 0, z_2..z_n = 0) = (1/2) w D0^(n-1) 1,
    w the stationary indicator law (as in output_entropy_bracket)."""
    if not _integer(n) or n < 1 or not _real(p) or not 0.0 <= p <= 1.0:
        raise PreconditionError("need an integer n >= 1 and p in [0, 1]")
    p = float(p)
    d0 = _derivative_matrices(p)[0]
    return 0.5 * float(np.sum(_stationary_weights(p) @ np.linalg.matrix_power(d0, n - 1)))


def error_entropy_exact(n: int, p: float) -> float:
    """Exact H(z^n | x^n) with z the error indicator sequence, the
    input uniform, and the initial state (u0, x0) hidden stationary.

    Identity.  z = u & c, c_i = [x_i != x_{i-1}] the change pattern of
    x0 x^n, u independent of the input.  c_2..c_n is a function of x^n
    and c_1 is uniform and independent of it (x0 is), so H(z|x) is
    2^-(n-1) times the sum over tails c_2..c_n of H(Z|c), c_1 mixed at
    1/2.  On positions 2..n each pair (c, z <= c) is one string s over
    {0, 1, *}, * where c_i = 0, and P(z|c) is the law of u summed over
    u_i at every *; mixing c_1 weighs u_1 by c = (1, 1/2) in the z_1 = 0
    half and by c = (0, 1/2) in the z_1 = 1 half.  If s holds a_1..a_r at
    its fixed positions i_1 < ... < i_r, u being Markov gives
        g(s) = alpha(i_1, a_1) prod_j P^(i_(j+1) - i_j)(a_j, a_(j+1)),
        alpha(i, a) = sum_u c(u) mu(u) P^(i-1)(u, a),
    mu the stationary law, P indicator_transition_matrix(p); trailing
    stars contribute a factor 1, as P is stochastic.

    Recursion.  Per last fixed position and value (i, a), carry A = sum g
    and B = sum g log2 g.  A string starts at (i, a) with g = alpha(i, a)
    or extends one ending at (j, b), j < i, by phi = P^(i-j)(b, a), which
    maps (A, B) to (phi A, phi (B + A log2 phi)); phi = 0 is skipped.  The
    all-star string has g = G0 = sum c mu, so a half sums to -(G0 log2 G0
    + sum B): 4 C(n-1, 2) steps, not 3^(n-1) star strings.  The tests
    check it against those enumerations, which are independent of the
    series whose limit the successive differences approach."""
    p = _check_n(n, p)
    (p00, p01), (p10, p11) = indicator_transition_matrix(p).tolist()
    powers = [((1.0, 0.0), (0.0, 1.0))]  # P^k for k = 0 .. n - 1
    for _ in range(n - 1):
        powers.append(tuple((r0 * p00 + r1 * p10, r0 * p01 + r1 * p11) for r0, r1 in powers[-1]))
    w0, w1 = _stationary_weights(p)
    total = 0.0
    for start in ((w0, 0.5 * w1), (0.0, 0.5 * w1)):  # c mu per half
        g0 = start[0] + start[1]
        total += g0 * math.log2(g0) if g0 > 0.0 else 0.0
        ends: list[tuple[int, int, float, float]] = []  # (i, a, A, B)
        for i in range(2, n + 1):
            grown = []
            for a in (0, 1):
                big_a = start[0] * powers[i - 1][0][a] + start[1] * powers[i - 1][1][a]
                big_b = big_a * math.log2(big_a) if big_a > 0.0 else 0.0
                for j, b, a_j, b_j in ends:
                    phi = powers[i - j][b][a]
                    if phi > 0.0:
                        big_a += phi * a_j
                        big_b += phi * (b_j + a_j * math.log2(phi))
                grown.append((i, a, big_a, big_b))
                total += big_b
            ends += grown
    return 0.0 - total / (1 << (int(n) - 1))


def indicator_transition_matrix(p: float) -> np.ndarray:
    """P[u, u'] = P(u_i = u' | u_(i-1) = u), p checked like every entry."""
    p = _check(p)
    return np.array([[1.0 - p, p], [1.0, 0.0]])
