"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with its runtime.

Run with:  pytest tests/test_acceptance.py -v -s

Criterion 10b checks the doubling test against the bound the program
certifies, SirResult.certified_bound.  The paper's formula,
truncation_error, is smaller than the actual series tail for large p
(from p >= 0.59 at J = 15); criterion 10c and tests/test_channel.py
pin that formula and its defect.  See the README section "SIR
truncation bounds".
"""

import hashlib
import math
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from grainlab.bounds import (
    REFERENCE_PARTITION_SIZES,
    binary_entropy,
    clique_upper,
    clique_rate_upper,
    count_error_vectors,
    asymptotic_upper_rate,
    asymptotic_upper_root,
)
from grainlab.channel import (
    ChannelSpec,
    cascaded_erasure_output_law,
    erasure_mi_exact,
    error_entropy_exact,
    grains_output_law,
    output_entropy_bracket,
    total_variation,
)
from grainlab.codes import (
    Code,
    construct_doubling,
    construct_greedy_known,
    construct_hamming_prefix,
    decode_doubling,
    decode_known_pattern,
    verify_grain_correcting,
    verify_known_pattern,
)
from grainlab.graph import (
    greedy_clique_partition,
    max_code_size,
    verify_clique_partition,
)
from grainlab.model import (
    ErrorVector,
    Word,
    _error_masks,
    apply_grains,
    enumerate_error_vectors,
    grain_images,
    image_count_lower_bound,
    run_count,
)
from grainlab.series import (
    error_entropy_series,
    output_entropy_series,
    run_hazards,
    sir,
    truncation_error,
    zero_error_rate,
)

DATA = Path(__file__).resolve().parent.parent / "data"

#: slack when comparing depth-64 series values to exact finite-n
#: quantities: series tail past depth 64 plus numerical noise
SERIES_TAIL_64 = 5e-9

#: sha256 over repr((m, s, parts, witnesses)) of every greedy partition
#: of REFERENCE_PARTITION_SIZES, keys ascending
GREEDY_PARTITIONS_DIGEST = "8ca91750f7e02846077c29fde60a42d8661bcb03f48ff77ba55d7edd40f44a16"


@contextmanager
def criterion(number, label, limit=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"\nACCEPTANCE {number:>3}: FAIL  {label}  ({elapsed:.2f}s)",
              file=sys.stdout, flush=True)
        raise
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE {number:>3}: PASS  {label}  ({elapsed:.2f}s)",
          file=sys.stdout, flush=True)
    if limit is not None:
        assert elapsed < limit, f"runtime {elapsed:.2f}s exceeded {limit}s budget"


def words(n):
    return (Word(n, v) for v in range(1 << n))


def image_counts(n, t):
    """len(grain_images(x, t)) for every x of length n, in one numpy
    pass: the number of support masks inside the run-boundary mask
    d(x) = x ^ (x >> 1) (closed form (a) of model.image_values)."""
    xs = np.arange(1 << n, dtype=np.int64)
    d = xs ^ (xs >> 1)
    return ((_error_masks(n, t) & ~d[:, None]) == 0).sum(axis=1).tolist()


def test_criterion_1_grain_operator_fidelity():
    with criterion(1, "grain-operator worked examples", limit=None):
        e = ErrorVector(15, (4, 7, 9, 14))
        x1 = Word.parse("100001000010000")
        x2 = Word.parse("000101011100010")
        apply_grains(x1, e)  # warm the mask cache before timing
        start = time.perf_counter()
        y1 = apply_grains(x1, e)
        y2 = apply_grains(x2, e)
        elapsed = time.perf_counter() - start
        assert str(y1) == "100001100010000"
        assert str(y2) == "000001111100000"
        assert elapsed < 1e-3, f"operator took {elapsed * 1e3:.3f} ms"


def test_criterion_2_image_counts_and_lower_bound():
    with criterion(2, "image-count identities (n<=16) and worst-case bound "
                      "(n<=12, t<=3)", limit=60):
        # the bulk counts are the sizes grain_images returns
        for n in range(1, 9):
            for t in range(0, 4):
                assert image_counts(n, t) == [len(grain_images(w, t)) for w in words(n)]
        for n in range(1, 17):
            assert image_counts(n, 1) == [run_count(w) for w in words(n)]
        for n in range(1, 13):
            runs = [run_count(w) for w in words(n)]
            for t in range(0, 4):
                for r, count in zip(runs, image_counts(n, t)):
                    assert image_count_lower_bound(r, t) <= count


def test_criterion_3_error_vector_count_formula():
    with criterion(3, "error-vector count formula (n<=20, t<=6)"):
        for n in range(1, 21):
            for t in range(0, 7):
                expected = sum(
                    math.comb(n - i, i) for i in range(t + 1) if n - i >= i
                )
                assert count_error_vectors(n, t) == expected
                assert len(enumerate_error_vectors(n, t)) == expected


def test_criterion_4_partition_table_reproduction():
    with criterion(4, "clique-partition table m<=16: certified, within +10%",
                   limit=600):
        forced = {(2, 1): 2, (4, 2): 4, (6, 3): 8}
        # the greedy's exact parts and witnesses over all 48 cells, pinned
        digest = hashlib.sha256()
        for (m, s), printed in sorted(REFERENCE_PARTITION_SIZES.items()):
            part = greedy_clique_partition(m, s)
            digest.update(repr((m, s, part.parts, part.witnesses)).encode())
            assert verify_clique_partition(part), (m, s)
            assert part.size <= printed * 1.1 + 1e-9, (
                f"({m},{s}): {part.size} exceeds {printed} by >10%"
            )
            if (m, s) in forced:
                assert part.size == forced[(m, s)]
        assert digest.hexdigest() == GREEDY_PARTITIONS_DIGEST


def test_criterion_5_construction_validity():
    with criterion(5, "doubling code (n<=14, all budgets) and Hamming-prefix "
                      "(n in 4,8,16)"):
        for n in range(1, 15):
            code = construct_doubling(n)
            assert code.size == 2 ** ((n + 1) // 2)
            assert verify_grain_correcting(code, n // 2)
        for m in (2, 3, 4):
            code = construct_hamming_prefix(m)
            n = 1 << m
            assert code.size == (1 << n) // n
            assert verify_grain_correcting(code, 1)
        # 2^16/16 strictly exceeds the substitution-error packing count
        assert 4096 > (1 << 16) // 17


def test_criterion_6_greedy_known_pattern_codes():
    with criterion(6, "known-pattern greedy codes: packing bound, validity, "
                      "decode round trip"):
        for n, t in ((8, 1), (10, 1), (8, 2)):
            code = construct_greedy_known(n, t)
            assert code.size * count_error_vectors(n, t) >= 1 << n
            assert verify_known_pattern(code, t)
            for c in code.sorted_words():
                for e in enumerate_error_vectors(n, t):
                    assert decode_known_pattern(code, apply_grains(c, e), e) == c


def test_criterion_7_asymptotic_upper_bound_and_clique_rate():
    with criterion(7, "root-based rate upper bound and the (16,4) line"):
        def balance(x, tau):
            return (
                binary_entropy((1 - x) / 2)
                + ((1 - x) / 4) * binary_entropy(4 * tau / (1 - x))
                - 1.0
            )

        def grid_scan_oracle(tau, step=1e-6):
            hi = 1 - 8 * tau
            prev = 0.0
            k = 1
            while True:
                x = min(k * step, hi)
                if balance(x, tau) <= 0:
                    return 0.5 * (prev + x)
                prev = x
                if x >= hi:
                    raise AssertionError("oracle found no root")
                k += 1

        for tau in (0.01, 0.03, 0.05, 0.0706):
            root = asymptotic_upper_root(tau)
            assert abs(balance(root, tau)) <= 1e-9
            assert root == pytest.approx(grid_scan_oracle(tau), abs=1e-5)
            # the two regime curves cross at the root
            f = 1 - ((1 - root) / 4) * binary_entropy(4 * tau / (1 - root))
            g = binary_entropy((1 - root) / 2)
            assert abs(f - g) <= 1e-8
            assert asymptotic_upper_rate(tau) == pytest.approx(g, abs=1e-12)
        # (m,s)=(16,4), chi=662: slope matches 1.657 within 5e-4
        slope = 16 / 4 - math.log2(662) / 4
        assert abs(slope - 1.657) <= 5e-4
        for tau in (0.05, 0.15, 0.25):
            assert clique_rate_upper(tau, 16, 4, 662) == pytest.approx(
                1 - slope * tau, abs=1e-12
            )


def test_criterion_8_erasure_mi_identity():
    with criterion(8, "erasure-channel mutual information = 1/(1+p) "
                      "(n in 4,8,12)", limit=120):
        for n in (4, 8, 12):
            for p in (0.0, 0.25, 0.5, 0.75, 1.0):
                assert erasure_mi_exact(n, p) == pytest.approx(
                    1 / (1 + p), abs=1e-10
                )


def test_criterion_9_degradation_law_equality():
    with criterion(9, "grains law = erasure+fill law (all x, n<=10, 3 p "
                      "values, TV<=1e-12)"):
        for p in (0.25, 0.5, 0.75):
            spec = ChannelSpec(p)
            for n in range(1, 11):
                for x in words(n):
                    tv = total_variation(
                        grains_output_law(x, spec),
                        cascaded_erasure_output_law(x, spec),
                    )
                    assert tv <= 1e-12, (p, x, tv)


def test_criterion_10a_hazard_closed_form():
    with criterion("10a", "hazard recursion vs closed form to 1e-9 (j<=50)"):
        for k in range(1, 100):
            hz = run_hazards(k / 100, 50)
            assert hz.closed_form_checked > 0
            assert hz.closed_form_max_dev <= 1e-9, (k / 100, hz.closed_form_max_dev)


def test_criterion_10b_truncation_bound_doubling_test():
    # The bound checked is the certified one that sir() reports.  The
    # paper's formula (error_bound) is exceeded here at p = 0.7 and 0.9;
    # tests/test_channel.py::TestTruncation pins that defect.  On this
    # grid diff/bound lies between 0.47 and 0.73, so a wrong series or a
    # wrong bound still fails.
    with criterion("10b", "doubling test |sir(J) - sir(2J)| <= certified bound"):
        failures = []
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            for depth in (8, 15, 20):
                result = sir(p, depth)
                diff = abs(result.sir - sir(p, 2 * depth).sir)
                bound = result.certified_bound
                if diff > bound:
                    failures.append((p, depth, diff, bound))
        assert not failures, (
            f"certified truncation bound exceeded by the series tail at {failures}"
        )


def test_criterion_10c_depth15_bound_below_0004():
    with criterion("10c", "reported error bound at J=15 stays below 0.004"):
        worst = max(truncation_error(k / 100, 15) for k in range(101))
        assert worst < 0.004


def test_criterion_10d_output_entropy_sandwich():
    with criterion("10d", "T_64 inside the exact n=14 entropy bracket",
                   limit=900):
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            lower, upper = output_entropy_bracket(14, p)
            t64 = output_entropy_series(p, 64)
            assert lower - SERIES_TAIL_64 <= t64 <= upper + SERIES_TAIL_64, (
                p, lower, t64, upper
            )


def test_criterion_10e_error_entropy_difference():
    with criterion("10e", "exact H(z|x) successive difference vs S_64 "
                          "(n=14, 1e-3)"):
        for p in (0.2, 0.5, 0.8):
            delta = error_entropy_exact(14, p) - error_entropy_exact(13, p)
            assert abs(delta - error_entropy_series(p, 64)) <= 1e-3, p


def test_criterion_11_endpoints_and_crossing():
    with criterion(11, "endpoint behavior and the SIR half-crossing"):
        assert sir(0.0, 64).sir >= 1 - 1e-6
        r1 = sir(1.0, 64)
        assert r1.capacity_upper == 0.5
        assert r1.capacity_lower == 0.5
        assert r1.sir < 0.5
        assert sir(0.56, 15).sir <= 0.5 + 0.004
        assert sir(0.6, 15).sir < 0.5


def test_criterion_12_zero_error_rates_and_achievability():
    with criterion(12, "zero-error rates (n=2..12, both initial kinds) and "
                       "doubling-code achievability"):
        for n in range(2, 13):
            # initial conventions where the first indicator can fire
            assert zero_error_rate(n, "stationary") == Fraction(n // 2, n)
            assert zero_error_rate(n, 0) == Fraction(n // 2, n)
            # forced boundary before cell 1: the first cell is also safe
            assert zero_error_rate(n, 1) == Fraction((n + 1) // 2, n)
        # achievability: floor(n/2) message bits survive every pattern
        for n in range(2, 13):
            code = construct_doubling(n)
            recovered = set()
            for c in code.words:
                msg = decode_doubling(c)
                for e in enumerate_error_vectors(n, n // 2):
                    assert decode_doubling(apply_grains(c, e)) == msg
                recovered.add(msg)
            assert len(recovered) == 1 << (n // 2)


def test_criterion_13_exact_sizes_sandwich_and_reference_data():
    with criterion(13, "exact max code sizes: sandwich and published "
                       "reference data"):
        reference = {}
        for line in (DATA / "max_code_sizes_t1.csv").read_text().splitlines():
            line = line.split("#", 1)[0].strip()
            if not line or line.startswith("n,"):
                continue
            n, size = (int(tok) for tok in line.split(","))
            reference[n] = size
        assert set(reference) == set(range(2, 9))
        for n in range(2, 9):
            result = max_code_size(n, 1)
            assert result.exact
            assert result.size == reference[n], (
                f"published value for n={n} is stale: {reference[n]} "
                f"vs computed {result.size}"
            )
            assert result.size >= 2 ** ((n + 1) // 2)
            admissible = [
                clique_upper(n, 1, m, 1, greedy_clique_partition(m, 1).size)
                for m in range(2, n + 1)
            ]
            assert result.size <= min(admissible)


@pytest.mark.parametrize("n,t,size", [(9, 2, 32), (9, 3, 32), (10, 3, 38), (10, 4, 34)])
def test_exact_sizes_beyond_n8_sandwich(n, t, size):
    """Exact sizes at t >= 2 past n = 8, each witness verified and under
    every admissible clique-partition bound."""
    result = max_code_size(n, t)
    assert result.exact and result.size == size
    assert verify_grain_correcting(Code(n, [w.value for w in result.words]), t)
    admissible = [
        clique_upper(n, t, m, s, greedy_clique_partition(m, s).size)
        for m in range(2, n + 1)
        for s in range(1, t + 1)
        if t * m <= s * n
    ]
    assert result.size <= min(admissible)
