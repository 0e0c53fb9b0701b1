import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from grainlab.bounds import binary_entropy
from grainlab.channel import (
    _STAR_LEAF,
    ChannelSpec,
    _indicator_law,
    _prefix_masses,
    _star_entropy,
    all_zero_output_prob,
    cascade_fill,
    cascaded_erasure_output_law,
    erasure_mi_exact,
    error_entropy_exact,
    grains_output_law,
    indicator_transition_matrix,
    make_rng,
    output_entropy_bracket,
    sample_indicator,
    simulate_erasures,
    simulate_grains,
    simulation_stats,
    total_variation,
)
from grainlab.config import caps_override
from grainlab.errors import CapExceeded, PreconditionError
from grainlab.model import Word
from grainlab.series import (
    DEPTH_MAX,
    IndecomposabilityResult,
    capacity_curves,
    erasure_capacity,
    error_entropy_series,
    indecomposability_check,
    indicator_stay_prob,
    nonadjacent_error_capacity,
    output_entropy_series,
    run_hazards,
    sir,
    truncation_error,
    zero_error_rate,
)

#: slack for comparing depth-64 series values against exact finite-n
#: quantities: the series tail past depth 64 (< 4 * 2^-32) plus float noise
SERIES_TAIL_64 = 5e-9


def words(n):
    return [Word(n, v) for v in range(1 << n)]


# ---------------------------------------------------------------------------
# rational-arithmetic oracle for the error-entropy computation
# ---------------------------------------------------------------------------


def error_entropy_rational(n: int, p: Fraction) -> float:
    """H(z^n | x^n) with every probability computed in exact rationals;
    entropy evaluated in floats from the exact fractions."""

    def u_prob(mask, u0):
        prob = Fraction(1)
        prev = u0
        for i in range(n):
            b = (mask >> (n - 1 - i)) & 1
            if prev == 1:
                if b == 1:
                    return Fraction(0)
            else:
                prob *= p if b else (1 - p)
            prev = b
        return prob

    masks = []

    def rec(i, mask, prev):
        if i == n:
            masks.append(mask)
            return
        rec(i + 1, mask, 0)
        if prev == 0:
            rec(i + 1, mask | (1 << (n - 1 - i)), 1)

    rec(0, 0, 0)
    w0, w1 = Fraction(1, 1) / (1 + p), p / (1 + p)
    law_u = {}
    for mask in masks:
        q = w0 * u_prob(mask, 0) + w1 * u_prob(mask, 1)
        if q:
            law_u[mask] = q

    total = 0.0
    for x in range(1 << n):
        law_z: dict[int, Fraction] = {}
        for x0 in (0, 1):
            shifted = (x >> 1) | (x0 << (n - 1))
            d = x ^ shifted
            for mask, q in law_u.items():
                z = mask & d
                law_z[z] = law_z.get(z, Fraction(0)) + q / 2
        assert sum(law_z.values()) == 1
        total += -sum(float(q) * math.log2(float(q)) for q in law_z.values() if q)
    return total / (1 << n)


# ---------------------------------------------------------------------------
# spec and RNG
# ---------------------------------------------------------------------------


class TestChannelSpec:
    def test_stationary_weights_sum_to_one(self):
        spec = ChannelSpec(0.3)
        assert sum(spec.stationary_weights) == pytest.approx(1.0)
        assert sum(w for _, _, w in spec.initial_states()) == pytest.approx(1.0)

    def test_explicit_initial(self):
        spec = ChannelSpec(0.3, initial=(1, 0))
        assert spec.initial_states() == [(1, 0, 1.0)]

    def test_validation(self):
        with pytest.raises(PreconditionError):
            ChannelSpec(1.5)
        with pytest.raises(PreconditionError):
            ChannelSpec(0.5, initial=(2, 0))


class TestRng:
    def test_reproducible(self):
        a = make_rng(7).random(5)
        b = make_rng(7).random(5)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = make_rng(7, 0).random(5)
        b = make_rng(7, 1).random(5)
        assert not np.array_equal(a, b)

    def test_counter_based_generator(self):
        assert make_rng(1).bit_generator.__class__.__name__ == "Philox"


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: make_rng(-1), "non-negative"),
        (lambda: cascade_fill("0e", 2), "fill bit"),
        (lambda: all_zero_output_prob(3, 1.5), r"p in \[0, 1\]"),
        (lambda: erasure_mi_exact(5, 1.5), r"p in \[0, 1\]"),
    ],
    ids=["rng-seed", "fill-bit", "all-zero-p", "erasure-mi-p"],
)
def test_library_preconditions_raise(call, match):
    with pytest.raises(PreconditionError, match=match):
        call()


# ---------------------------------------------------------------------------
# simulators
# ---------------------------------------------------------------------------


class TestSimulators:
    def test_p0_identity(self):
        x = Word.parse("0110100111")
        assert simulate_grains(x, ChannelSpec(0.0), seed=3) == x
        assert simulate_erasures(x, ChannelSpec(0.0), seed=3) == str(x)

    def test_p1_deterministic_both_initials(self):
        xbits = "01101001"
        x = Word.parse(xbits)
        # grain boundary before cell 1: indicators 0,1,0,1,... duplicate odd bits
        y = simulate_grains(x, ChannelSpec(1.0, initial=(1, 0)), seed=5)
        assert str(y) == "00111100" == "".join(
            xbits[i if i % 2 == 0 else i - 1] for i in range(8)
        )
        # no boundary: indicators 1,0,1,0,... expose x0 then duplicate even bits
        # y = x0, x2, x2, x4, x4, x6, x6, x8
        for x0 in (0, 1):
            y = simulate_grains(x, ChannelSpec(1.0, initial=(0, x0)), seed=5)
            expected = f"{x0}" + "".join(
                xbits[i] for i in (1, 1, 3, 3, 5, 5, 7)
            )
            assert str(y) == expected == f"{x0}1100001"

    def test_seed_determinism_and_stream_split(self):
        x = Word.parse("0101010101")
        spec = ChannelSpec(0.5)
        assert simulate_grains(x, spec, seed=11) == simulate_grains(x, spec, seed=11)
        outputs = {str(simulate_grains(x, spec, seed=11, stream=s)) for s in range(8)}
        assert len(outputs) > 1

    def test_no_adjacent_erasures_long_run(self):
        x = Word(20000, 0)
        out = simulate_erasures(x, ChannelSpec(0.9), seed=2)
        assert "ee" not in out

    def test_indicator_never_adjacent(self):
        spec = ChannelSpec(0.8)
        u, u0, _ = sample_indicator(10000, spec, make_rng(4))
        full = np.concatenate(([u0], u))
        assert int(((full[:-1] == 1) & (full[1:] == 1)).sum()) == 0

    def test_empirical_transition_frequencies(self):
        n = 1_000_000
        p = 0.3
        stats = simulation_stats(n, p, seed=12)
        trans = stats["transitions"]
        from_zero = trans["00"] + trans["01"]
        # binomial 4-sigma band around p for P(1 | 0)
        sigma = math.sqrt(p * (1 - p) / from_zero)
        assert trans["01"] / from_zero == pytest.approx(p, abs=4 * sigma)
        assert trans["11"] == 0
        assert stats["adjacent_indicator_pairs"] == 0

    def test_empirical_error_rate(self):
        n = 1_000_000
        p = 0.4
        stats = simulation_stats(n, p, seed=9)
        q = p / (1 + p) / 2  # stationary indicator rate times input-change rate
        sigma = math.sqrt(q * (1 - q) / n)
        assert stats["error_rate"] == pytest.approx(q, abs=3 * sigma)

    @pytest.mark.parametrize("n", [0, -3])
    def test_simulation_stats_rejects_an_empty_run(self, n):
        with pytest.raises(PreconditionError, match="need n >= 1"):
            simulation_stats(n, 0.3, seed=1)


INITIALS = ["stationary", (0, 0), (0, 1), (1, 0), (1, 1)]


def sample_indicator_loop(n, spec, rng):
    """Per-symbol reference sampler: the same draws in the same order,
    and a 1 only after a 0, when the uniform is below p."""
    if spec.initial == "stationary":
        u0 = 1 if rng.random() < spec.stationary_weights[1] else 0
        x0 = int(rng.integers(2))
    else:
        u0, x0 = spec.initial
    uni = rng.random(n)
    u = np.zeros(n, dtype=np.uint8)
    prev = u0
    for i in range(n):
        if prev == 0 and uni[i] < spec.p:
            u[i] = 1
            prev = 1
        else:
            prev = 0
    return u, u0, x0


class TestIndicatorKernel:
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("initial", INITIALS)
    def test_sampler_matches_per_symbol_loop(self, p, initial):
        spec = ChannelSpec(p, initial=initial)
        for seed in range(20):
            for n in (0, 1, 2, 3, 257):
                u, u0, x0 = sample_indicator(n, spec, make_rng(seed, 1))
                ref, ref_u0, ref_x0 = sample_indicator_loop(n, spec, make_rng(seed, 1))
                assert (u0, x0) == (ref_u0, ref_x0)
                assert u.dtype == np.uint8 and np.array_equal(u, ref), (seed, n)

    @pytest.mark.parametrize("u0", [0, 1])
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.9, 1.0])
    def test_law_matches_sequential_product(self, p, u0):
        for n in range(1, 13):
            ref_masks = [m for m in range(1 << n) if not m & (m >> 1)]
            ref_probs = []
            for mask in ref_masks:
                prob, prev = 1.0, u0
                for i in range(n):
                    b = (mask >> (n - 1 - i)) & 1
                    prob *= (0.0 if b else 1.0) if prev else (p if b else 1.0 - p)
                    prev = b
                ref_probs.append(prob)
            masks, probs = _indicator_law(n, p, u0)
            assert masks.tolist() == ref_masks
            ref_probs = np.array(ref_probs)
            assert np.array_equal(probs == 0.0, ref_probs == 0.0)
            np.testing.assert_allclose(
                probs, ref_probs, rtol=n * np.finfo(float).eps, atol=0.0
            )

    @pytest.mark.parametrize("initial", INITIALS)
    def test_simulators_match_per_bit_reference(self, initial):
        spec = ChannelSpec(0.4, initial=initial)
        for seed in range(5):
            n = 257
            xb = "".join(map(str, make_rng(seed, 9).integers(0, 2, size=n)))
            x = Word.parse(xb)
            u, _, x0 = sample_indicator(n, spec, make_rng(seed, 3))
            prev = str(x0) + xb[:-1]
            grains = "".join(prev[i] if u[i] else xb[i] for i in range(n))
            erasures = "".join("e" if u[i] else xb[i] for i in range(n))
            assert str(simulate_grains(x, spec, seed, stream=3)) == grains
            assert simulate_erasures(x, spec, seed, stream=3) == erasures

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_stats_transitions_match_pair_count(self, p):
        n, seed = 3000, 21
        stats = simulation_stats(n, p, seed)
        rng = make_rng(seed)
        rng.integers(0, 2, size=n, dtype=np.uint8)
        u, u0, _ = sample_indicator(n, ChannelSpec(p), rng)
        full = [u0] + u.tolist()
        ref = {a + b: 0 for a in "01" for b in "01"}
        for a, b in zip(full[:-1], full[1:]):
            ref[f"{a}{b}"] += 1
        assert stats["transitions"] == ref
        assert all(type(c) is int for c in stats["transitions"].values())
        assert stats["adjacent_indicator_pairs"] == ref["11"] == 0


class TestCascadeFill:
    def test_identity_without_erasures(self):
        assert cascade_fill("0101", 1) == Word.parse("0101")

    def test_rule_example(self):
        assert cascade_fill("e0e1", 1) == Word.parse("1001")

    def test_leading_erasure_uses_fill_bit(self):
        assert cascade_fill("e1", 0) == Word.parse("01")

    def test_adjacent_erasures_rejected(self):
        with pytest.raises(PreconditionError):
            cascade_fill("0ee1", 0)

    def test_bad_symbol_rejected(self):
        with pytest.raises(PreconditionError):
            cascade_fill("01x", 0)


# ---------------------------------------------------------------------------
# degradation: exact law equality
# ---------------------------------------------------------------------------


class TestDegradation:
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.9])
    def test_exact_law_equality_small(self, p):
        spec = ChannelSpec(p)
        for n in (1, 2, 3, 4, 5, 6):
            for x in words(n):
                law_g = grains_output_law(x, spec)
                law_c = cascaded_erasure_output_law(x, spec)
                assert total_variation(law_g, law_c) <= 1e-12

    def test_law_normalization(self):
        law = grains_output_law(Word.parse("0110101"), ChannelSpec(0.37))
        assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)

    def test_explicit_initial_state_matches_too(self):
        spec = ChannelSpec(0.6, initial=(0, 1))
        x = Word.parse("010011")
        assert (
            total_variation(
                grains_output_law(x, spec), cascaded_erasure_output_law(x, spec)
            )
            <= 1e-12
        )


# ---------------------------------------------------------------------------
# hazards and series
# ---------------------------------------------------------------------------


class TestRunHazards:
    def test_first_value(self):
        assert run_hazards(0.5, 8).value(2) == pytest.approx(0.25)

    def test_one_recursion_step_by_hand(self):
        # b3 = (1 - 1.5 * 0.25) / (2 * (1 - 0.25)) = 5/12
        assert run_hazards(0.5, 8).value(3) == pytest.approx(5 / 12)

    def test_p0_fixed_point_half(self):
        hz = run_hazards(0.0, 30)
        assert all(v == pytest.approx(0.5) for v in hz.values)

    def test_p1_alternates(self):
        hz = run_hazards(1.0, 9)
        assert [round(v, 12) for v in hz.values] == [0.0, 0.5, 0.0, 0.5, 0.0, 0.5, 0.0, 0.5]

    def test_values_in_unit_half_interval(self):
        for p in (0.01, 0.3, 0.7, 0.99, 1.0):
            hz = run_hazards(p, 50)
            assert all(0.0 <= v <= 0.5 for v in hz.values)

    @pytest.mark.parametrize("p", [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0])
    def test_closed_form_matches_recursion(self, p):
        hz = run_hazards(p, 50)
        assert hz.closed_form_checked > 0
        assert hz.closed_form_max_dev <= 1e-9
        assert hz.closed_form_agrees

    def test_p0_closed_form_skipped(self):
        hz = run_hazards(0.0, 20)
        assert hz.closed_form_checked == 0  # degenerate at p=0: fallback only


class TestSeries:
    def test_output_series_p0_approaches_one(self):
        assert output_entropy_series(0.0, 64) == pytest.approx(1.0, abs=1e-12)

    def test_error_series_p0_zero(self):
        assert error_entropy_series(0.0, 64) == 0.0

    def test_error_series_p1_zero(self):
        # arguments hit h(0) and h(1) exactly
        assert error_entropy_series(1.0, 64) == 0.0

    def test_error_series_uniform_bound(self):
        for p in (0.1, 0.5, 0.9):
            assert error_entropy_series(p, 200) <= (1 + p / 2) / (2 * (1 + p))

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=2, max_value=40))
    def test_output_series_monotone_in_depth(self, p, depth):
        assert output_entropy_series(p, depth + 1) >= output_entropy_series(p, depth) - 1e-15

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=2, max_value=40))
    def test_error_series_monotone_in_depth(self, p, depth):
        assert error_entropy_series(p, depth + 1) >= error_entropy_series(p, depth) - 1e-15


class TestSir:
    def test_depth15_reported_bound_below_0004(self):
        worst = max(truncation_error(k / 100, 15) for k in range(101))
        assert worst < 0.004

    def test_p0_endpoint(self):
        r = sir(0.0, 64)
        assert r.sir >= 1 - 1e-6
        assert r.capacity_upper == 1.0

    def test_p1_endpoint(self):
        r = sir(1.0, 64)
        assert r.capacity_upper == 0.5
        assert r.capacity_lower == 0.5
        assert r.sir < 0.5

    def test_crossing_claims(self):
        assert sir(0.56, 15).sir <= 0.5 + 0.004
        assert sir(0.6, 15).sir < 0.5

    def test_capacity_lower_consistency(self):
        for p in (0.0, 0.2, 0.5, 0.8, 1.0):
            r = sir(p, 20)
            assert r.capacity_lower <= r.capacity_upper + r.error_bound

    def test_sir_in_unit_interval(self):
        for p in (0.0, 0.3, 0.6, 1.0):
            assert 0.0 <= sir(p, 40).sir <= 1.0

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_terms_past_depth_2200_underflow(self, p):
        deep = dataclasses.asdict(sir(p, DEPTH_MAX))
        shallow = dataclasses.asdict(sir(p, 2200))
        assert (deep.pop("depth"), shallow.pop("depth")) == (4096, 2200)
        assert deep == shallow

    def test_depth_past_max_rejected(self):
        for series_fn in (sir, run_hazards, error_entropy_series, truncation_error):
            series_fn(0.5, DEPTH_MAX)
            with pytest.raises(PreconditionError, match="exceeds 4096"):
                series_fn(0.5, DEPTH_MAX + 1)
        with pytest.raises(PreconditionError, match="exceeds 4096"):
            capacity_curves([0.5], DEPTH_MAX + 1)


class TestTruncation:
    def test_plug_in_J15_p0(self):
        assert truncation_error(0.0, 15) == pytest.approx(2**-15 + 2**-8, abs=1e-15)

    def test_non_increasing_in_depth(self):
        for p in (0.0, 0.5, 1.0):
            values = [truncation_error(p, j) for j in range(2, 40)]
            assert values == sorted(values, reverse=True)

    def test_reported_bound_exceeded_for_large_p(self):
        # documented defect of the reported constant: the true tail at
        # p = 0.7, depth 8 is larger (see the decisions ledger)
        diff = abs(sir(0.7, 8).sir - sir(0.7, 16).sir)
        assert diff > truncation_error(0.7, 8)

    def test_hazard_pair_identity(self):
        # the step of certified_bound's proof:
        # (1 - b_j)(1 - b_{j+1}) = (1 - (1-p) b_j) / 2 <= 1/2
        for k in range(101):
            p = k / 100
            b = run_hazards(p, 201).values
            for j in range(len(b) - 1):
                pair = (1.0 - b[j]) * (1.0 - b[j + 1])
                assert abs(pair - (1.0 - (1.0 - p) * b[j]) / 2) <= 1e-12, (p, j)
                assert 0.0 <= b[j] <= 0.5

    def test_certified_bound_dominates_tail(self):
        # the tail is taken against depth 400, whose own remainder is below
        # 2^-198; p = 0 and p = 1 are on the grid
        for k in range(101):
            p = k / 100
            limit = sir(p, 400).sir
            for depth in range(2, 31):
                r = sir(p, depth)
                assert abs(r.sir - limit) <= r.certified_bound, (p, depth)
                # never above the a-priori worst case
                # (1/(1+p)) [(1 + p/2) 2^-J + 4 * 2^-floor((J+1)/2)]
                a_priori = (1 + p / 2) * 2.0**-depth + 4 * 2.0 ** -((depth + 1) // 2)
                assert r.certified_bound <= a_priori / (1 + p), (p, depth)

    def test_certified_bound_exact_at_p1(self):
        # hazards alternate 0, 1/2, so S_16 = 2^-7 and the tail is 2^-8
        r = sir(1.0, 15)
        assert r.certified_bound == 2.0**-7
        assert abs(sir(1.0, 400).sir - r.sir - 2.0**-8) <= 1e-15


class TestCapacityFormulas:
    def test_erasure_capacity(self):
        assert erasure_capacity(0.0) == 1.0
        assert erasure_capacity(1.0) == 0.5
        assert erasure_capacity(0.5) == pytest.approx(2 / 3)

    def test_nonadjacent_error_capacity(self):
        assert nonadjacent_error_capacity(0.0) == 1.0
        assert nonadjacent_error_capacity(0.5) == pytest.approx(
            1 - binary_entropy(0.5) / 1.5
        )


# ---------------------------------------------------------------------------
# exact finite-n oracles
# ---------------------------------------------------------------------------


class TestExactMutualInformation:
    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 1.0])
    @pytest.mark.parametrize("n", [4, 8])
    def test_identity_one_over_one_plus_p(self, n, p):
        assert erasure_mi_exact(n, p) == pytest.approx(1 / (1 + p), abs=1e-10)

    def test_various_n_same_value(self):
        values = {round(erasure_mi_exact(n, 0.3), 11) for n in range(2, 11)}
        assert len(values) == 1


def output_transition_matrices(p: float) -> np.ndarray:
    """M[y][2u' + x', 2u + x] = P(state (u, x), output y | state (u', x'))
    for uniform input bits, from the literal rule: y = x if u = 0, else
    the previous input bit x'; u is 1 with probability p after u' = 0
    and 0 after u' = 1."""
    step = [[1.0 - p, p], [1.0, 0.0]]
    mats = np.zeros((2, 4, 4))
    for up, xp, u, x in itertools.product((0, 1), repeat=4):
        mats[x if u == 0 else xp, 2 * up + xp, 2 * u + x] = step[up][u] / 2.0
    return mats


def output_entropy_profile(p: float, n: int, alpha0: np.ndarray) -> list[float]:
    """Every-step reference: H(y^1), ..., H(y^n) by a forward sweep over
    the four-state (u, x) trellis that keeps the joint vector over
    (output prefix, state) at every length."""
    m01 = np.hstack(output_transition_matrices(p))
    alpha = alpha0.reshape(1, 4)
    entropies = []
    for _ in range(n):
        alpha = (alpha @ m01).reshape(-1, 4)
        prefix = alpha.sum(axis=1)
        mass = prefix[prefix > 1e-300]
        entropies.append(float(-(mass * np.log2(mass)).sum()))
    return entropies


def output_entropy_bracket_reference(n: int, p: float) -> tuple[float, float]:
    """Three-sweep reference bracket: the stationary profile for the
    upper end, the conditional profiles from (0, 0) and (1, 0) for the
    lower end."""
    w0, w1 = ChannelSpec(p).stationary_weights
    profile = output_entropy_profile(p, n, np.repeat([w0, w1], 2) / 2.0)
    lower = 0.0
    for s, w in ((0, w0), (2, w1)):
        if w > 0.0:
            cond = output_entropy_profile(p, n, np.eye(4)[s])
            lower += w * (cond[-1] - cond[-2])
    return lower, profile[-1] - profile[-2]


def derivative_law(n: int, spec: ChannelSpec, x0: int) -> np.ndarray:
    """Law of the output derivative z^n, z_i = y_i ^ y_{i-1} with
    y_0 = x0, indexed MSB-first: the exact output laws of all 2^n
    inputs, each of weight 2^-n, mapped y -> z."""
    law = np.zeros(1 << n)
    for x in words(n):
        for y, q in grains_output_law(x, spec).items():
            law[y.value ^ ((x0 << (n - 1)) | (y.value >> 1))] += q
    return law / 2**n


class TestOutputEntropyBracket:
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_bracket_contains_series_limit(self, p):
        lower, upper = output_entropy_bracket(12, p)
        t64 = output_entropy_series(p, 64)
        assert lower - SERIES_TAIL_64 <= t64 <= upper + SERIES_TAIL_64

    def test_bracket_ordering(self):
        lower, upper = output_entropy_bracket(10, 0.5)
        assert lower <= upper + 1e-12

    def test_p0_unit_entropy(self):
        lower, upper = output_entropy_bracket(8, 0.0)
        assert lower == pytest.approx(1.0, abs=1e-12)
        assert upper == pytest.approx(1.0, abs=1e-12)

    def test_bracket_tightens_with_n(self):
        w1 = np.subtract(*reversed(output_entropy_bracket(6, 0.5)))
        w2 = np.subtract(*reversed(output_entropy_bracket(12, 0.5)))
        assert abs(w2) <= abs(w1)

    @pytest.mark.parametrize("p", [0.0, 0.2, 0.5, 0.8, 1.0])
    def test_matches_three_sweep_reference(self, p):
        for n in range(2, 15):
            got = output_entropy_bracket(n, p)
            want = output_entropy_bracket_reference(n, p)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14, err_msg=str(n))

    @pytest.mark.parametrize("p", [0.0, 0.2, 0.5, 1.0])
    def test_prefix_masses_match_enumerated_output_laws(self, p):
        """The derivative chain from u0 gives the law of z^n (and of
        z^{n-1}) that the exact output laws of all 2^n inputs give from
        (u0, x0), for either x0."""
        for n in range(1, 9):
            for u0 in (0, 1):
                shorter, longer = _prefix_masses(p, n, u0)
                for x0 in (0, 1):
                    want = derivative_law(n, ChannelSpec(p, initial=(u0, x0)), x0)
                    np.testing.assert_allclose(longer, want, rtol=0.0, atol=1e-15)
                    np.testing.assert_allclose(
                        shorter, want[0::2] + want[1::2], rtol=0.0, atol=1e-15
                    )

    def test_traced_memory_at_n18(self):
        output_entropy_bracket(18, 0.5)  # warm imports and caches
        tracemalloc.start()
        try:
            output_entropy_bracket(18, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6


class TestAllZeroOutputProb:
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_bounded_by_three_quarters_power(self, p):
        for i in range(1, 21):
            assert all_zero_output_prob(i, p) <= 0.75 ** (i // 2) + 1e-15

    def test_p0_exact_uniform(self):
        assert all_zero_output_prob(5, 0.0) == pytest.approx(2**-5)

    @pytest.mark.parametrize("p", [0.0, 0.2, 0.5, 1.0])
    def test_matches_stationary_enumeration(self, p):
        spec = ChannelSpec(p)
        for n in range(1, 9):
            laws = (grains_output_law(x, spec) for x in words(n))
            mass = sum(law.get(Word(n, 0), 0.0) for law in laws) / 2**n
            assert all_zero_output_prob(n, p) == pytest.approx(mass, rel=1e-13, abs=1e-15)


def error_entropy_loop(n: int, p: float) -> float:
    """Per-change-pattern reference: for each tail c_2..c_n, the law of
    z = u & c with both values of c_1 mixed at weight 1/2, aggregated
    by np.unique, and its entropy averaged over the tails."""
    w0, w1 = ChannelSpec(p).stationary_weights
    masks, q0 = _indicator_law(n, p, 0)
    probs = w0 * q0 + w1 * _indicator_law(n, p, 1)[1]
    half_prob = np.concatenate([probs, probs]) * 0.5
    top = 1 << (n - 1)
    total = 0.0
    for tail in range(top):
        keys = np.concatenate([masks & tail, masks & (tail | top)])
        _, inverse = np.unique(keys, return_inverse=True)
        agg = np.bincount(inverse, weights=half_prob)
        agg = agg[agg > 1e-300]
        total += float(-(agg * np.log2(agg)).sum())
    return total / top


def star_entropy_dense(f: np.ndarray, k: int) -> float:
    """_star_entropy without the zero-half shortcut: every blocked level
    recurses on all three of (f|0, f|1, f|0 + f|1)."""
    if k > _STAR_LEAF:
        lo, hi = np.split(f, 2)
        return sum(star_entropy_dense(g, k - 1) for g in (lo, hi, lo + hi))
    return _star_entropy(f, k)


class TestErrorEntropyExact:
    @pytest.mark.parametrize("p", [0.0, 0.2, 0.5, 0.8, 1.0])
    def test_matches_per_pattern_loop(self, p):
        for n in range(1, 13):
            want = error_entropy_loop(n, p)
            assert error_entropy_exact(n, p) == pytest.approx(want, rel=1e-12), n

    @pytest.mark.parametrize("n", [14, 16])
    def test_traced_peak_below_two_dense_arrays_and_three_star_leaves(self, n):
        # measured for n = 14..18: 2 float64 arrays of 2^n and 2.02 of 3^_STAR_LEAF
        error_entropy_exact(n, 0.5)  # warm the _indicator_law cache
        tracemalloc.start()
        try:
            error_entropy_exact(n, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * 2**n + 3 * 8 * 3**_STAR_LEAF

    def test_p0_zero(self):
        for n in (1, 6, 10, 14):
            got = error_entropy_exact(n, 0.0)
            assert got == 0.0 and math.copysign(1.0, got) == 1.0, n

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_zero_half_shortcut_is_exact(self, p):
        n = 14
        w0, w1 = ChannelSpec(p).stationary_weights
        masks, q0 = _indicator_law(n, p, 0)
        f = np.zeros(1 << n)
        f[masks] = w0 * q0 + w1 * _indicator_law(n, p, 1)[1]
        f0, f1 = np.split(f, 2)
        halves = (f0 + 0.5 * f1, 0.5 * f1)
        dense = sum(star_entropy_dense(g, n - 1) for g in halves)
        assert error_entropy_exact(n, p) == dense / (1 << (n - 1))

    @pytest.mark.parametrize("pfrac", [Fraction(1, 4), Fraction(1, 2), Fraction(4, 5)])
    def test_matches_rational_oracle(self, pfrac):
        for n in (3, 5, 6):
            got = error_entropy_exact(n, float(pfrac))
            want = error_entropy_rational(n, pfrac)
            assert got == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("oracle", [erasure_mi_exact, output_entropy_bracket, error_entropy_exact])
    def test_every_exact_oracle_reads_channel_exact_n(self, oracle):
        with pytest.raises(CapExceeded, match="^n=21 exceeds channel_exact_n=20$"):
            oracle(21, 0.5)
        with caps_override(channel_exact_n=3), pytest.raises(CapExceeded):
            oracle(4, 0.5)

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_successive_difference_approaches_series(self, p):
        delta = error_entropy_exact(11, p) - error_entropy_exact(10, p)
        s64 = error_entropy_series(p, 64)
        assert delta == pytest.approx(s64, abs=1e-3)


class TestIndicatorStayProb:
    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_matches_matrix_powers(self, p):
        mat = indicator_transition_matrix(p)
        power = np.eye(2)
        for j in range(2, 31):
            power = power @ mat if j > 2 else np.linalg.matrix_power(mat, j - 1)
            assert indicator_stay_prob(j, p) == pytest.approx(
                power[0, 0], abs=1e-12
            )

    def test_j1(self):
        assert indicator_stay_prob(1, 0.7) == 1.0


# ---------------------------------------------------------------------------
# indecomposability and zero-error
# ---------------------------------------------------------------------------


class TestIndecomposability:
    def test_values(self):
        assert indecomposability_check(0.5) == IndecomposabilityResult(0.5, True, 0.5)
        assert indecomposability_check(0.0) == IndecomposabilityResult(0.0, True, 1.0)
        res = indecomposability_check(1.0)
        assert not res.indecomposable and res.witness == 0.0


class TestZeroError:
    def test_example_n7(self):
        assert zero_error_rate(7) == Fraction(3, 7)
        assert zero_error_rate(7, 0) == Fraction(3, 7)
        assert zero_error_rate(7, 1) == Fraction(4, 7)

    def test_even_n_always_half(self):
        for initial in ("stationary", 0, 1):
            assert zero_error_rate(8, initial) == Fraction(1, 2)

    def test_limits_to_half(self):
        for initial in ("stationary", 1):
            assert abs(zero_error_rate(1001, initial) - Fraction(1, 2)) < Fraction(1, 1000)

    def test_bad_initial(self):
        with pytest.raises(PreconditionError):
            zero_error_rate(5, "u1")


class TestCapacityCurves:
    def test_columns_and_crossing(self):
        grid = [k / 50 for k in range(51)]
        rows, crossing = capacity_curves(grid, depth=15)
        assert len(rows) == 51
        for p, s_val, lo, up, err in rows:
            assert lo == pytest.approx(max(0.5, s_val))
            assert up == pytest.approx(1 / (1 + p))
            assert err == pytest.approx(truncation_error(p, 15))
        assert crossing is not None
        assert 0.5 <= crossing <= 0.6

    @pytest.mark.parametrize(
        "step,depth,want", [(0.005, 15, 0.57), (0.005, 64, 0.56), (0.01, 64, 0.56)]
    )
    def test_crossing_is_certified(self, step, depth, want):
        # fig3's grid at J = 15 reads 0.57: at 0.56 the truncated SIR is
        # below 1/2 but sir + certified_bound = 0.50109, while the limit
        # crosses at 0.56 (sir(0.56, 400) = 0.49991)
        grid = [round(k * step, 12) for k in range(round(1 / step) + 1)]
        _, crossing = capacity_curves(grid, depth)
        assert crossing == want
        for p in grid[: grid.index(crossing)]:
            r = sir(p, depth)
            assert r.sir + r.certified_bound >= 0.5, p
        r = sir(crossing, depth)
        assert r.sir + r.certified_bound < 0.5
        assert sir(0.555, 400).sir > 0.5 > sir(0.56, 400).sir
