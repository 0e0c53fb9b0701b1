import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from grainlab.bounds import (
    ASYMPTOTIC_UPPER_TAU_MAX,
    INFORMED_TAU_MAX,
    REFERENCE_PARTITION_SIZES,
    asymptotic_upper_rate,
    asymptotic_upper_root,
    binary_entropy,
    clique_rate_min,
    clique_rate_upper,
    clique_upper,
    count_error_vectors,
    decoder_informed_lower,
    encoder_informed_lower,
    fixed_budget_upper,
    gv_lower_rate,
    informed_rate_bounds,
    iroot,
    list_decoding_lower,
    list_decoding_rate,
    rate_curves,
)
from grainlab.errors import PreconditionError
from grainlab.graph import partition_size_table
from grainlab.graph import max_code_size

# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def balance(x, tau):
    """Left side minus right side of the run-count balance equation."""
    return (
        binary_entropy((1 - x) / 2)
        + ((1 - x) / 4) * binary_entropy(4 * tau / (1 - x))
        - 1.0
    )


def h(q):
    """Binary entropy in bits, elementwise over an array, for 0 < q < 1."""
    return -q * np.log2(q) - (1 - q) * np.log2(1 - q)


def root_by_grid_scan(tau, step=1e-6):
    """Midpoint of the first sign change of the balance equation on the
    grid step, 2 step, ... (clipped to 1 - 8 tau), scanned with numpy."""
    hi = 1 - 8 * tau
    x = np.minimum(np.arange(1, int(hi / step + 1.5)) * step, hi)
    f = h((1 - x) / 2) + ((1 - x) / 4) * h(4 * tau / (1 - x)) - 1.0
    k = int(np.argmax(f <= 0))
    assert f[k] <= 0, "oracle found no sign change"
    return 0.5 * ((x[k - 1] if k else 0.0) + x[k])


def root_by_scan_then_bisection(tau, step=1e-4, tol=1e-10):
    """The root as a linear scan would find it: the first point of the
    grid 0, step, ..., steps*step (then 1 - 8 tau if the grid stops
    short) where the balance equation is <= 0, then bisection of the
    bracketing grid points to tol.  The scan is vectorised; a sign at a
    grid point can only differ from the scalar one where |f| is within
    a rounding error of 0."""
    hi = 1 - 8 * tau
    steps = int(hi / step)
    grid = np.arange(steps + 1) * step
    if steps == 0 or grid[-1] < hi:
        grid = np.append(grid, hi)

    inner = grid[1:]
    f = h((1 - inner) / 2) + ((1 - inner) / 4) * h(4 * tau / (1 - inner)) - 1.0
    k = int(np.argmax(f <= 0))
    assert f[k] <= 0, "reference found no sign change"
    lo, hi = float(grid[k]), float(grid[k + 1])
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if balance(mid, tau) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def minimax_rate_by_grid(tau, steps=40000):
    """Direct evaluation of min over delta of max(f, g) on a grid."""
    hi = 1 - 8 * tau
    best = 1.0
    for i in range(1, steps + 1):
        d = hi * i / steps
        f = 1 - ((1 - d) / 4) * binary_entropy(4 * tau / (1 - d))
        g = binary_entropy((1 - d) / 2)
        best = min(best, max(f, g))
    return best


# ---------------------------------------------------------------------------
# entropy and integer helpers
# ---------------------------------------------------------------------------


class TestEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_range_and_symmetry(self, q):
        h = binary_entropy(q)
        assert 0.0 <= h <= 1.0
        assert abs(h - binary_entropy(1.0 - q)) < 1e-12

    def test_domain(self):
        with pytest.raises(PreconditionError):
            binary_entropy(1.5)


class TestIroot:
    @given(
        st.integers(min_value=0, max_value=10**40),
        st.integers(min_value=1, max_value=12),
    )
    def test_floor_root(self, value, k):
        r = iroot(value, k)
        assert r**k <= value
        assert (r + 1) ** k > value


# ---------------------------------------------------------------------------
# scalar bounds
# ---------------------------------------------------------------------------


class TestGvLower:
    def test_endpoints(self):
        assert gv_lower_rate(0.0) == 1.0
        assert gv_lower_rate(0.25) == 0.0

    def test_value(self):
        assert gv_lower_rate(0.05) == pytest.approx(1 - binary_entropy(0.1), abs=1e-12)

    def test_domain(self):
        with pytest.raises(PreconditionError):
            gv_lower_rate(0.3)


class TestFixedBudgetUpper:
    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128])
    def test_t1_form(self, n):
        assert fixed_budget_upper(n, 1) == math.ceil(Fraction(2**n * 4, n))

    def test_ratio_to_packing_lower(self):
        # the bound is a constant multiple (t! 2^t + 2) of 2^n/n^t
        for t in range(1, 5):
            n = 64
            ratio = Fraction(fixed_budget_upper(n, t)) / Fraction(2**n, n**t)
            constant = math.factorial(t) * 2**t + 2
            assert constant <= ratio < constant + 1  # ceiling slack only

    def test_exact_bigint_at_n128(self):
        value = fixed_budget_upper(128, 3)
        assert value == math.ceil(Fraction(2**128 * (6 * 8 + 2), 128**3))


class TestAsymptoticUpper:
    @pytest.mark.parametrize("tau", [0.01, 0.03, 0.05, 0.0706])
    def test_residual_small(self, tau):
        assert abs(balance(asymptotic_upper_root(tau), tau)) <= 1e-9

    @pytest.mark.parametrize(
        "taus",
        [
            # the fig1 grid 0.002:0.5:0.002 up to 0.0706, as the CLI builds it
            [round(0.002 + 0.002 * i, 12) for i in range(35)],
            [ASYMPTOTIC_UPPER_TAU_MAX * k / 2000 for k in range(1, 2001)],
        ],
        ids=["fig1-grid", "2000-spread"],
    )
    def test_bisection_matches_linear_scan_bit_for_bit(self, taus):
        for tau in taus:
            assert asymptotic_upper_root(tau) == root_by_scan_then_bisection(tau), tau

    @pytest.mark.parametrize("tau", [0.01, 0.03, 0.05, 0.0706])
    def test_agrees_with_grid_scan_oracle(self, tau):
        assert asymptotic_upper_root(tau) == pytest.approx(
            root_by_grid_scan(tau), abs=1e-5
        )

    def test_root_vanishes_as_tau_vanishes(self):
        assert asymptotic_upper_root(1e-6) < 0.01

    @pytest.mark.parametrize("tau", [0.01, 0.0706])
    def test_crossing_identity(self, tau):
        # at the root the two regime curves meet
        x = asymptotic_upper_root(tau)
        f = 1 - ((1 - x) / 4) * binary_entropy(4 * tau / (1 - x))
        g = binary_entropy((1 - x) / 2)
        assert abs(f - g) <= 1e-8

    def test_rate_below_one(self):
        for tau in (0.001, 0.01, 0.05, 0.0706):
            assert asymptotic_upper_rate(tau) < 1.0

    def test_matches_minimax_oracle(self):
        assert asymptotic_upper_rate(0.05) == pytest.approx(
            minimax_rate_by_grid(0.05), abs=1e-4
        )

    def test_domain(self):
        with pytest.raises(PreconditionError):
            asymptotic_upper_root(0.08)
        with pytest.raises(PreconditionError):
            asymptotic_upper_root(0.0)


class TestCliqueUpper:
    def test_known_entry_form(self):
        # (m,s)=(10,1), chi=236: bound 236^t 2^(n-10t)
        for n, t in ((40, 4), (50, 5)):
            assert clique_upper(n, t, 10, 1, 236) == 236**t * 2 ** (n - 10 * t)

    def test_budget_below_s_degenerates(self):
        assert clique_upper(8, 1, 4, 2, 4) == 2**8

    def test_plug_in(self):
        assert clique_upper(4, 2, 2, 1, 2) == 4

    def test_admissibility(self):
        with pytest.raises(PreconditionError):
            clique_upper(10, 2, 10, 1, 236)

    def test_rate_form_16_4(self):
        # coefficient 4 - log2(662)/4 = 1.6573...
        for tau in (0.05, 0.1, 0.2):
            got = clique_rate_upper(tau, 16, 4, 662)
            assert got == pytest.approx(1 - 1.657 * tau, abs=5e-4)

    def test_rate_endpoints(self):
        assert clique_rate_upper(0.0, 10, 1, 236) == 1.0
        assert clique_rate_upper(0.3, 2, 1, 4) == pytest.approx(1.0)  # chi=2^m vacuous

    def test_rate_admissibility(self):
        with pytest.raises(PreconditionError):
            clique_rate_upper(0.3, 10, 1, 236)


class TestListDecoding:
    def test_example_10_1_1(self):
        assert list_decoding_lower(10, 1, 1) == Fraction(2**5, 10)

    def test_rate_monotone_in_list_size(self):
        values = [list_decoding_rate(0.1, L) for L in range(1, 8)]
        assert values == sorted(values)

    def test_rate_at_zero(self):
        for L in (1, 2, 10):
            assert list_decoding_rate(0.0, L) == pytest.approx(L / (L + 1))

    def test_validity_edge(self):
        list_decoding_rate(INFORMED_TAU_MAX, 1)
        with pytest.raises(PreconditionError):
            list_decoding_rate(0.3, 1)

    def test_binomial_argmax_threshold(self):
        # C(n-i, i) grows while i <= (5n+3-sqrt(5n^2+10n+9))/10
        n = 1000
        threshold = (5 * n + 3 - math.sqrt(5 * n**2 + 10 * n + 9)) / 10
        grows = [
            i
            for i in range(1, n // 2)
            if math.comb(n - i, i) > math.comb(n - i + 1, i - 1)
        ]
        assert max(grows) == math.floor(threshold)
        # so tau below the threshold/n keeps the top term dominant
        assert threshold / n == pytest.approx(INFORMED_TAU_MAX, abs=2e-3)


class TestInformedBounds:
    def test_decoder_informed_5_1(self):
        assert decoder_informed_lower(5, 1) == Fraction(32, 5)

    def test_encoder_is_decoder_over_2n(self):
        for n, t in ((5, 1), (10, 2), (64, 5)):
            assert encoder_informed_lower(n, t) == decoder_informed_lower(n, t) / (
                2 * n
            )

    def test_rate_bounds_at_zero(self):
        lower, upper = informed_rate_bounds(0.0)
        assert lower == 1.0 and upper == 1.0

    def test_rate_lower_floor_half(self):
        lower, upper = informed_rate_bounds(0.25)
        assert lower >= 0.5
        assert upper == 0.75

    def test_exact_bigints_at_n128(self):
        value = decoder_informed_lower(128, 6)
        assert value == Fraction(2**128, count_error_vectors(128, 6))


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------


class TestRateCurves:
    def test_reference_table_shape(self):
        assert REFERENCE_PARTITION_SIZES[(10, 1)] == 236
        assert REFERENCE_PARTITION_SIZES[(16, 4)] == 662
        for (m, s), chi in REFERENCE_PARTITION_SIZES.items():
            assert m >= 2 * s and chi >= 2 ** ((m + 1) // 2)

    def test_min_is_below_each_entry(self):
        for tau in (0.02, 0.1, 0.3, 0.5):
            low = clique_rate_min(tau)
            for (m, s), chi in REFERENCE_PARTITION_SIZES.items():
                if tau <= s / m:
                    assert low <= clique_rate_upper(tau, m, s, chi) + 1e-12

    def test_columns_and_validity(self):
        taus = [0.01 * k for k in range(1, 51)]
        rows = rate_curves(taus, list_size=2)
        assert len(rows) == 50
        for tau, gv, upper, cor2, rn, list_rate, inf_lo, inf_hi in rows:
            assert rn == 0.5
            assert 0.0 <= cor2 <= 1.0
            if tau <= ASYMPTOTIC_UPPER_TAU_MAX:
                assert upper is not None
            else:
                assert upper is None
            if tau > 0.25:
                assert gv == 0.0
            if tau <= INFORMED_TAU_MAX:
                assert list_rate == list_decoding_rate(tau, 2)
                assert (inf_lo, inf_hi) == informed_rate_bounds(tau)
            else:
                assert list_rate is inf_lo is inf_hi is None

    def test_list_size_checked_before_the_grid(self):
        with pytest.raises(PreconditionError, match="list size"):
            rate_curves([0.3], list_size=0)
        with pytest.raises(PreconditionError, match="list size"):
            rate_curves([], list_size=0)

    @pytest.mark.parametrize("entry", [((4, 1), 0), ((0, 1), 2), ((4, 0), 2)])
    def test_malformed_table_entry_rejected(self, entry):
        # (4, 1) is not admissible at tau = 0.4, and is rejected all the same
        with pytest.raises(PreconditionError, match="table entry"):
            rate_curves([0.4], dict([entry]))
        # the check sits where s / m is taken: (0, 1) divided by zero,
        # and (4, 0) at tau = 0.1 > s/m returned the vacuous 1.0
        with pytest.raises(PreconditionError, match="table entry"):
            clique_rate_min(0.1, dict([entry]))

    def test_gv_below_clique_min(self):
        for k in range(1, 26):
            tau = 0.01 * k
            gv = gv_lower_rate(tau)
            assert gv <= clique_rate_min(tau) + 1e-12

    def test_curves_accept_computed_table(self):
        entries = {
            (m, s): parts
            for m, s, parts in partition_size_table(range(2, 7), range(1, 3))
        }
        rows = rate_curves([0.1, 0.25], entries)
        assert all(0 <= row[3] <= 1 for row in rows)


class TestSandwichAgainstExact:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_exact_m_between_doubling_and_clique_bounds(self, n):
        m_exact = max_code_size(n, 1).size
        assert m_exact >= 2 ** ((n + 1) // 2)
        computed = partition_size_table(range(2, n + 1), range(1, 2))
        for m, s, chi in computed:
            if s <= 1 and m <= n:  # admissible: t/n = 1/n <= s/m
                assert m_exact <= clique_upper(n, 1, m, s, chi)
