import ast
import dataclasses
import functools
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import grainlab
from grainlab.bounds import count_error_vectors
from grainlab.config import caps_override
from grainlab.errors import CapExceeded, PreconditionError
from grainlab.model import (
    KERNEL_BLOCK,
    ErrorVector,
    Word,
    _error_masks,
    _supports_inside,
    apply_grains,
    confusable,
    derivative,
    enumerate_error_vectors,
    grain_image_list,
    grain_images,
    image_count_lower_bound,
    image_values,
    in_blocks,
    run_count,
    support_table,
)

# ---------------------------------------------------------------------------
# independent reference implementations (string/brute-force based)
# ---------------------------------------------------------------------------


def apply_ref(x: str, support) -> str:
    """Position j copies position j-1; everything 1-indexed strings."""
    y = list(x)
    for j in support:
        y[j - 1] = x[j - 2]
    return "".join(y)


def supports_ref(n: int, t: int):
    """All valid supports by brute force over subsets of {2..n}."""
    out = []
    positions = range(2, n + 1)
    for k in range(0, t + 1):
        for combo in itertools.combinations(positions, k):
            if all(b - a >= 2 for a, b in zip(combo, combo[1:])):
                out.append(combo)
    return out


def images_ref(x: str, t: int) -> set[str]:
    return {apply_ref(x, s) for s in supports_ref(len(x), t)}


def confusable_walk(x1: Word, x2: Word, t: int) -> bool:
    """The image sets of x1 and x2 meet iff some grain support M1 inside
    d(x1) makes M2 = M1 ^ x1 ^ x2 a support of weight <= t inside d(x2):
    the walk over M1 that confusable ran before it read the runs of
    x1 ^ x2."""
    if x1 == x2:
        return True
    if x1.bit(1) != x2.bit(1):
        return False
    low = (1 << (x1.n - 1)) - 1
    d1, d2 = ((x.value ^ (x.value >> 1)) & low for x in (x1, x2))
    diff = x1.value ^ x2.value
    for m1 in _supports_inside(d1, t):
        m2 = m1 ^ diff
        if not m2 & ~d2 and not m2 & (m2 >> 1) and m2.bit_count() <= t:
            return True
    return False


@functools.lru_cache(maxsize=None)
def literal_images(n: int, t: int) -> tuple[frozenset[int], ...]:
    """The image set of every word value of length n under at most t
    grains: every error vector applied to every word, as apply_grains
    applies it (position j copies position j - 1)."""
    masks = np.array([e.mask for e in enumerate_error_vectors(n, t)])
    xs = np.arange(1 << n)[:, None]
    return tuple(map(frozenset, ((xs & ~masks) | ((xs >> 1) & masks)).tolist()))


def words_of_length(n: int):
    return (Word(n, v) for v in range(1 << n))


def complement(w: Word) -> Word:
    return Word(w.n, w.value ^ ((1 << w.n) - 1))


@st.composite
def word_strategy(draw, max_n=14):
    n = draw(st.integers(min_value=1, max_value=max_n))
    value = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    return Word(n, value)


@st.composite
def word_and_error(draw, max_n=14):
    w = draw(word_strategy(max_n))
    supports = supports_ref(w.n, w.n // 2)
    supp = draw(st.sampled_from(supports))
    return w, ErrorVector(w.n, supp)


# ---------------------------------------------------------------------------
# Word / ErrorVector types
# ---------------------------------------------------------------------------


class TestWord:
    def test_parse_render_round_trip_examples(self):
        for s in ("0", "1", "01", "100001000010000"):
            assert Word.parse(s).render() == s

    @given(word_strategy())
    def test_parse_render_round_trip(self, w):
        assert Word.parse(w.render()) == w

    def test_bit_indexing_is_leftmost_first(self):
        w = Word.parse("100")
        assert (w.bit(1), w.bit(2), w.bit(3)) == (1, 0, 0)
        assert w.bits() == (1, 0, 0)

    def test_bad_words_rejected(self):
        with pytest.raises(PreconditionError):
            Word.parse("012")
        with pytest.raises(PreconditionError):
            Word.parse("")
        with pytest.raises(PreconditionError):
            Word(0, 0)
        with pytest.raises(PreconditionError):
            Word(3, 8)
        # non-integer fields: not built to fail at render(), nor a TypeError
        with pytest.raises(PreconditionError):
            Word(3, 1.0)
        with pytest.raises(PreconditionError):
            Word(3.0, 1)
        # numpy ints are integers
        assert Word(np.int64(3), np.int64(5)).render() == "101"

    def test_length_cap_is_at_least_32(self):
        Word.parse("0" * 32)  # must be accepted

    def test_bits_round_trip_long(self):
        n = 100_000
        bits = tuple(int(b) for b in np.random.default_rng(5).integers(0, 2, size=n))
        w = Word.from_bits(bits)
        assert w.n == n and w.bits() == bits
        assert w.render() == "".join(map(str, bits))
        assert Word.from_bits(iter(bits)) == w

    def test_from_bits_keeps_low_bit_and_rejects_empty(self):
        assert Word.from_bits([3, 2, True, -1, np.uint8(0)]) == Word.parse("10110")
        with pytest.raises(PreconditionError):
            Word.from_bits([])

    def test_slotted_value_semantics_match_tuples(self):
        # a Word has no per-instance dict, and compares, hashes, sorts and
        # prints as the (n, value) tuple it is keyed by
        assert not hasattr(Word(5, 3), "__dict__")
        rng = np.random.default_rng(15)
        keys = [(int(n), int(rng.integers(1 << n))) for n in rng.integers(1, 40, size=300)]
        keys += keys[:20]
        ws = [Word(n, v) for n, v in keys]
        assert [(w.n, w.value) for w in sorted(ws)] == sorted(keys)
        for i, j in itertools.product(range(0, len(keys), 5), repeat=2):
            assert (ws[i] == ws[j]) == (keys[i] == keys[j])
            assert (ws[i] < ws[j]) == (keys[i] < keys[j])
        for key, w in zip(keys, ws):
            assert hash(w) == hash(key) and w == Word(*key) and w != key
            assert repr(w) == "Word(n={}, value={})".format(*key)
        assert len(set(ws)) == len(set(keys))

    def test_unchecked_words_match_checked(self):
        # the kernels' constructor skips only the range checks
        rng = random.Random(16)
        keys = [(n, rng.getrandbits(n)) for n in (rng.randint(1, 70) for _ in range(200))]
        fast = [w for n, v in keys for w in Word._unchecked(n, [v])]
        slow = [Word(n, v) for n, v in keys]
        assert fast == slow and sorted(fast) == sorted(slow)
        assert [hash(w) for w in fast] == [hash(w) for w in slow]
        assert [repr(w) for w in fast] == [repr(w) for w in slow]
        assert Word._unchecked(6, range(3, 6)) == [Word(6, 3), Word(6, 4), Word(6, 5)]
        word = fast[0]
        assert type(word) is Word and not hasattr(word, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            word.value = 1


class TestErrorVector:
    def test_valid_support(self):
        e = ErrorVector(5, (2, 4))
        assert e.weight == 2
        assert e.render() == "5:2,4"
        assert ErrorVector.parse("5:2,4") == e

    def test_empty_support_round_trip(self):
        e = ErrorVector(5, ())
        assert ErrorVector.parse(e.render()) == e

    @pytest.mark.parametrize(
        "n,supp",
        [(5, (1,)), (5, (2, 3)), (5, (6,)), (5, (4, 2)), (5, (2, 2)),
         # non-integer fields: not built to fail at .mask
         (3, (2.0,)), (3.0, (2,))],
    )
    def test_invalid_support_rejected(self, n, supp):
        with pytest.raises(PreconditionError):
            ErrorVector(n, supp)



# ---------------------------------------------------------------------------
# the grain operator
# ---------------------------------------------------------------------------


class TestApplyGrains:
    def test_worked_example_sparse(self):
        x = Word.parse("100001000010000")
        e = ErrorVector(15, (4, 7, 9, 14))
        assert str(apply_grains(x, e)) == "100001100010000"

    def test_worked_example_dense(self):
        x = Word.parse("000101011100010")
        e = ErrorVector(15, (4, 7, 9, 14))
        assert str(apply_grains(x, e)) == "000001111100000"

    def test_constant_word_is_fixed_point(self):
        e = ErrorVector(8, (3, 6))
        for s in ("00000000", "11111111"):
            assert apply_grains(Word.parse(s), e) == Word.parse(s)

    def test_length_mismatch(self):
        with pytest.raises(PreconditionError):
            apply_grains(Word.parse("01"), ErrorVector(3, (2,)))

    @given(word_and_error())
    def test_matches_reference(self, we):
        w, e = we
        assert apply_grains(w, e).render() == apply_ref(w.render(), e.support)

    @given(word_and_error())
    def test_idempotent(self, we):
        w, e = we
        once = apply_grains(w, e)
        assert apply_grains(once, e) == once

    @given(word_and_error())
    def test_first_bit_preserved(self, we):
        w, e = we
        assert apply_grains(w, e).bit(1) == w.bit(1)

    @given(word_and_error())
    def test_complement_equivariant(self, we):
        w, e = we
        assert apply_grains(complement(w), e) == complement(apply_grains(w, e))


# ---------------------------------------------------------------------------
# enumeration and counting
# ---------------------------------------------------------------------------


class TestEnumeration:
    def test_n5_t2_is_the_eight_vectors(self):
        vectors = enumerate_error_vectors(5, 2)
        assert len(vectors) == 8
        assert {e.support for e in vectors} == {
            (), (2,), (3,), (4,), (5,), (2, 4), (2, 5), (3, 5)
        }

    def test_t0_single_vector(self):
        assert [e.support for e in enumerate_error_vectors(5, 0)] == [()]

    def test_deterministic_support_lex_order(self):
        got = [e.support for e in enumerate_error_vectors(5, 2)]
        assert got == sorted(got)
        for n in range(1, 17):
            for t in range(0, 5):
                supports = sorted(
                    supp
                    for i in range(t + 1)
                    for supp in itertools.combinations(range(2, n + 1), i)
                    if all(b - a > 1 for a, b in zip(supp, supp[1:]))
                )
                masks = [sum(1 << (n - j) for j in supp) for supp in supports]
                assert _error_masks(n, t).tolist() == masks, (n, t)

    def test_count_formula_n15_t4(self):
        expected = sum(math.comb(15 - i, i) for i in range(5))
        assert count_error_vectors(15, 4) == expected
        assert len(enumerate_error_vectors(15, 4)) == expected

    def test_count_examples(self):
        assert count_error_vectors(5, 2) == 8
        assert count_error_vectors(9, 0) == 1
        assert count_error_vectors(4, 1) == 1 + math.comb(3, 1)

    @pytest.mark.parametrize("n", [*range(1, 21), 32, 40])
    def test_count_matches_enumeration(self, n):
        # past the enumeration cap only the mask kernel runs; it is bounded
        # by t, so n = 40 builds 743 masks, not the F(41) unbounded ones
        for t in range(0, 7 if n <= 20 else 3):
            if n <= 20:
                assert len(enumerate_error_vectors(n, t)) == count_error_vectors(n, t)
            assert _error_masks(n, t).size == count_error_vectors(n, t)

    @pytest.mark.parametrize("t", [*range(7), 10**6])
    def test_weights_are_the_bit_counts(self, t):
        # the masks carry no weight row: C(n - w, w) of them count w bits, w <= t
        for n in range(1, 25):
            masks = _error_masks(n, t)
            weights = np.bincount(np.bitwise_count(masks), minlength=n + 1).tolist()
            assert weights == [math.comb(n - w, w) if w <= t else 0 for w in range(n + 1)], (n, t)
            assert masks.tolist() == _supports_inside((1 << (n - 1)) - 1, t), (n, t)

    def test_matches_brute_force_supports(self):
        for n in range(1, 10):
            for t in range(0, 4):
                mine = {e.support for e in enumerate_error_vectors(n, t)}
                assert mine == set(supports_ref(n, t))

    @pytest.mark.parametrize("n", [0, -1, 2.5, "3"])
    def test_bad_length_rejected(self, n):
        with pytest.raises(PreconditionError):
            enumerate_error_vectors(n, 1)

    def test_cap(self):
        with caps_override(error_enum_n=24), pytest.raises(CapExceeded):
            enumerate_error_vectors(25, 1)

    def test_ceiling_at_63_bits_whatever_the_cap(self):
        for cap in (24, 70):
            with caps_override(error_enum_n=cap):
                with pytest.raises(PreconditionError, match="2\\^64"):
                    enumerate_error_vectors(64, 1)
                with pytest.raises(PreconditionError, match="2\\^70"):
                    grain_image_list(Word(70, 1 << 69), 1)

    def test_63_bits_still_enumerate_and_image(self):
        x = "1" + "01" * 31
        with caps_override(error_enum_n=63):
            supports = [e.support for e in enumerate_error_vectors(63, 1)]
            images = [str(w) for w in grain_image_list(Word.parse(x), 1)]
        assert supports == supports_ref(63, 1)
        assert images[0] == x and len(images) == len(set(images))
        assert set(images) == images_ref(x, 1)


# ---------------------------------------------------------------------------
# images, runs, confusability
# ---------------------------------------------------------------------------


class TestImages:
    def test_01_budget1(self):
        assert [str(w) for w in grain_image_list(Word.parse("01"), 1)] == ["01", "00"]

    def test_zero_word(self):
        w = Word.parse("0000")
        assert grain_images(w, 2) == frozenset({w})

    def test_image_count_equals_run_count_exhaustive(self):
        for n in range(1, 11):
            for w in words_of_length(n):
                assert len(grain_images(w, 1)) == run_count(w)

    @given(word_strategy(max_n=10), st.integers(min_value=0, max_value=3))
    def test_matches_reference_images(self, w, t):
        assert {y.render() for y in grain_images(w, t)} == images_ref(w.render(), t)

    @given(word_strategy(max_n=10), st.integers(min_value=0, max_value=3))
    def test_monotone_in_budget(self, w, t):
        assert grain_images(w, t) <= grain_images(w, t + 1)


class TestRuns:
    @pytest.mark.parametrize(
        "s,r", [("00110", 3), ("0000", 1), ("0101", 4), ("1", 1), ("10", 2)]
    )
    def test_examples(self, s, r):
        assert run_count(Word.parse(s)) == r

    def test_derivative_examples(self):
        assert str(derivative(Word.parse("0011"))) == "010"
        assert str(derivative(Word.parse("0000"))) == "000"

    def test_derivative_needs_two_bits(self):
        with pytest.raises(PreconditionError):
            derivative(Word.parse("0"))

    @given(word_strategy(max_n=16))
    def test_runs_equal_derivative_weight_plus_one(self, w):
        if w.n >= 2:
            d = derivative(w)
            assert run_count(w) == sum(d.bits()) + 1

    def test_derivative_has_two_preimages(self):
        n = 6
        targets = {}
        for w in words_of_length(n):
            targets.setdefault(derivative(w), []).append(w)
        for d, pre in targets.items():
            assert len(pre) == 2
            assert complement(pre[0]) == pre[1]


class TestConfusable:
    def test_examples(self):
        assert confusable(Word.parse("01"), Word.parse("00"), 1)
        for t in range(0, 4):
            assert not confusable(Word.parse("00"), Word.parse("11"), t)
        assert confusable(Word.parse("0110"), Word.parse("0110"), 0)

    def test_symmetric(self):
        for t in range(4):
            for w1 in words_of_length(5):
                for w2 in words_of_length(5):
                    assert confusable(w1, w2, t) == confusable(w2, w1, t), (w1, w2, t)

    @given(st.data())
    def test_runs_match_the_walk(self, data):
        """Half of the pairs share an image y: each word is y ^ M for a
        support M of weight <= t outside d(y), a member of B(y) by closed
        form (b) of image_values, so both answers occur."""
        n = data.draw(st.integers(1, 24), "n")
        t = data.draw(st.integers(0, 6), "t")
        words = st.integers(0, (1 << n) - 1)
        if data.draw(st.booleans(), "shared image"):
            y, low = data.draw(words, "y"), (1 << (n - 1)) - 1
            outside = low & ~(y ^ (y >> 1))
            pair = []
            for side in ("x1", "x2"):
                m = data.draw(words, side) & outside
                m &= ~(m >> 1)  # drop each position whose left neighbour is in m
                while m.bit_count() > t:
                    m &= m - 1
                pair.append(Word(n, y ^ m))
            x1, x2 = pair
            assert confusable(x1, x2, t)
        else:
            x1, x2 = Word(n, data.draw(words, "x1")), Word(n, data.draw(words, "x2"))
        assert confusable(x1, x2, t) == confusable_walk(x1, x2, t)

    @pytest.mark.parametrize("t", [1, 2])
    def test_run_length_against_the_budget(self, t):
        """One run of delta at positions 2..L + 1, x1 alternating over it
        from position 1: x1 starts the run and takes ceil(L/2) of it."""
        for length, want in ((2 * t, True), (2 * t + 1, False)):
            x1 = Word.parse(("01" * (t + 1))[: length + 1])
            x2 = Word(x1.n, x1.value ^ ((1 << length) - 1))
            assert confusable(x1, x2, t) == confusable(x2, x1, t) == want, (length, t)
            assert confusable_walk(x1, x2, t) == want

    def test_edge_cases(self):
        # delta = {2, 3}, and x1 does not change at 3: (a) fails at any t
        x1, x2 = Word.parse("011"), Word.parse("000")
        assert not any(confusable(x1, x2, t) or confusable_walk(x1, x2, t) for t in range(5))
        # delta = {2, 4}: x1 starts the run at 2 and x2 the one at 4, so
        # one grain each records both as 00000
        x1, x2 = Word.parse("01000"), Word.parse("00010")
        assert confusable(x1, x2, 1) and confusable_walk(x1, x2, 1)
        # differing first bits
        assert not confusable(Word.parse("0101"), Word.parse("1101"), 3)
        # equal words, no grains
        assert confusable(Word.parse("10110"), Word.parse("10110"), 0)

    def test_length_mismatch(self):
        with pytest.raises(PreconditionError):
            confusable(Word.parse("01"), Word.parse("011"), 1)

    @pytest.mark.parametrize("x1,x2", [("01", "01"), ("00", "10"), ("00", "01")])
    def test_negative_t_rejected_before_the_shortcuts(self, x1, x2):
        with pytest.raises(PreconditionError, match="t must be >= 0"):
            confusable(Word.parse(x1), Word.parse(x2), -1)


class TestImageCountLowerBound:
    def test_budget_one_equals_run_count(self):
        for r in range(1, 30):
            assert image_count_lower_bound(r, 1) == r

    def test_single_run(self):
        for t in range(0, 5):
            assert image_count_lower_bound(1, t) == 1

    def test_small_r_clamps_to_valid_bound(self):
        # r=2, t=2: the second term's product hits a negative factor
        assert image_count_lower_bound(2, 2) == 2

    def test_exhaustive_lower_bound(self):
        for n in range(1, 11):
            for t in range(0, 4):
                for w in words_of_length(n):
                    bound = image_count_lower_bound(run_count(w), t)
                    assert bound <= len(grain_images(w, t)), (w, t)


def cliques(n, t, ys):
    """The preimage cliques B(y) of the packed words ys, one list each,
    from the support table's gather."""
    ys = np.asarray(ys, dtype=np.int64)
    out = [[] for _ in ys]
    for owner, members in support_table(n, t).gather(ys, cliques=True):
        for i, x in zip(owner.tolist(), members.tolist()):
            out[i].append(x)
    return out


class TestPreimages:
    def test_example_2_1(self):
        # B(00) = {00, 01}
        assert sorted(cliques(2, 1, [0b00])[0]) == [0b00, 0b01]

    def test_budget_zero_identity(self):
        assert cliques(3, 0, range(1 << 3)) == [[y] for y in range(1 << 3)]

    @pytest.mark.parametrize("m,s", [(2, 1), (4, 1), (5, 2), (6, 3)])
    def test_double_counting_identity(self, m, s):
        total_img = sum(len(grain_images(w, s)) for w in words_of_length(m))
        table = support_table(m, s)
        assert int(table.lengths(np.arange(1 << m), cliques=True).sum()) == total_img

    def test_union_covers_space(self):
        union = {x for clique in cliques(4, 2, range(1 << 4)) for x in clique}
        assert union == set(range(1 << 4))


class TestClosedFormKernel:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_literal_grains(self, n):
        for t in range(0, 5):
            for x, images in enumerate(literal_images(n, t)):
                got = image_values(x, n, t).tolist()
                assert len(got) == len(images) and set(got) == images, (x, t)

    def test_array_input_concatenates_per_word(self):
        xs = np.arange(1 << 6)
        whole = image_values(xs, 6, 2).tolist()
        assert whole == [v for x in range(1 << 6) for v in image_values(x, 6, 2).tolist()]

    def test_negative_budget_rejected(self):
        with pytest.raises(PreconditionError):
            image_values(0, 4, -1)


class TestWalkAgainstKernel:
    """The one-word queries walk the grain supports inside a bit mask or
    read the runs of x1 ^ x2; the bulk kernels test every mask.  They
    agree, order included."""

    def test_image_list_is_the_kernel_row(self):
        for n in range(1, 11):
            for t in range(5):
                for x in range(1 << n):
                    got = [w.value for w in grain_image_list(Word(n, x), t)]
                    assert got == image_values(x, n, t).tolist(), (n, x, t)

    def test_image_list_is_the_walk_from_zero(self):
        for n in range(1, 9):
            for t in range(4):
                for x in range(1 << n):
                    d = (x ^ (x >> 1)) & ((1 << (n - 1)) - 1)
                    got = [w.value for w in grain_image_list(Word(n, x), t)]
                    assert got == [x ^ m for m in _supports_inside(d, t)], (n, x, t)

    def test_enumeration_is_the_mask_row(self):
        for n in range(1, 13):
            for t in range(7):
                got = [e.mask for e in enumerate_error_vectors(n, t)]
                assert got == _error_masks(n, t).tolist(), (n, t)

    def test_confusable_is_the_image_set_intersection(self):
        for n in range(1, 8):
            for t in range(4):
                images = [set(image_values(x, n, t).tolist()) for x in range(1 << n)]
                for a, b in itertools.product(range(1 << n), repeat=2):
                    want = bool(images[a] & images[b])
                    assert confusable(Word(n, a), Word(n, b), t) == want, (n, a, b, t)

    def test_numpy_int_words(self):
        w = Word(np.int64(8), np.int64(0b01101001))
        assert type(w.n) is int and type(w.value) is int
        assert grain_image_list(w, 2) == grain_image_list(Word(8, 0b01101001), 2)
        assert confusable(w, Word(np.int64(8), np.int64(0b00101001)), np.int64(1))


def test_model_queries_import_no_numpy():
    """One-word queries walk the supports on Python ints: numpy stays
    out of a process that imports model and asks them."""
    script = (
        "import sys\n"
        "from grainlab.model import (ErrorVector, Word, apply_grains, confusable,\n"
        "    enumerate_error_vectors, grain_image_list)\n"
        "x = Word.parse('01101001')\n"
        "images = grain_image_list(x, 2)\n"
        "hit = confusable(x, images[-1], 2)\n"
        "vectors = enumerate_error_vectors(8, 2)\n"
        "y = apply_grains(x, ErrorVector.parse('8:3,6'))\n"
        "print(len(images), hit, len(vectors), y, 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(grainlab.__file__).resolve().parents[1])},
    )
    assert proc.stdout.splitlines()[-1] == "14 True 23 01101101 False"


class TestInBlocks:
    # (12, 3): 141 masks, 232 words a block; (23, 11): 46 368 masks, one
    @pytest.mark.parametrize("n,t,step", [(12, 3, 232), (23, 11, 1)])
    def test_blocks_concatenate_to_the_unblocked_kernel(self, n, t, step):
        assert max(1, KERNEL_BLOCK // _error_masks(n, t).size) == step
        xs = np.random.default_rng(n).integers(0, 1 << n, size=2 * step + 3)
        calls = []

        def recorded(block, n_, t_):
            calls.append(block.size)
            return image_values(block, n_, t_)

        blocks = list(in_blocks(recorded, xs, n, t))
        assert np.array_equal(np.concatenate(blocks), image_values(xs, n, t))
        assert sum(calls) == xs.size and max(calls) == step

    def test_empty_values_call_no_kernel(self):
        def refuse(block, n, t):
            raise AssertionError("kernel called")

        assert list(in_blocks(refuse, np.zeros(0, np.int64), 8, 2)) == []

    def test_bad_budget_raises_at_the_call(self):
        with pytest.raises(PreconditionError):
            in_blocks(image_values, np.arange(4), 4, -1)


class TestSupportTable:
    def test_rows_are_the_walk(self):
        for n in range(1, 13):
            for t in range(5):
                table = support_table(n, t)
                offsets, entries = table.offsets.tolist(), table.entries.tolist()
                assert len(offsets) == (1 << (n - 1)) + 1 and offsets[0] == 0, (n, t)
                for d in range(1 << (n - 1)):
                    row = entries[offsets[d] : offsets[d + 1]]
                    assert row == _supports_inside(d, t), (n, t, d)

    @pytest.mark.parametrize("n,t", [(1, 0), (5, 2), (12, 4), (13, 4), (16, 1), (17, 2)])
    def test_size_and_dtypes(self, n, t):
        # each support M lies inside 2^(n-1-|M|) masks d
        size = sum(1 << (n - 1 - w) for w in np.bitwise_count(_error_masks(n, t)).tolist())
        table = support_table(n, t)
        assert table.entries.size == table.offsets[-1] == size
        assert (table.offsets.dtype, table.entries.dtype) == (np.int64, np.uint16)
        assert not (table.offsets.flags.writeable or table.entries.flags.writeable)

    def test_documented_sizes(self):
        assert support_table(13, 4).entries.nbytes == 2 * 178_688
        assert support_table(16, 4).entries.nbytes == 2 * 3_209_216

    def test_wide_words_keep_int64_entries(self):
        table = support_table(18, 0)
        assert table.entries.dtype == np.int64 and table.entries.size == 1 << 17

    @pytest.mark.parametrize("n", range(1, 11))
    def test_gathers_match_literal_grains(self, n):
        xs = np.arange(1 << n)
        for t in range(0, 5):
            images = literal_images(n, t)
            inverse: list[set[int]] = [set() for _ in xs]
            for x, ys in enumerate(images):
                for y in ys:
                    inverse[y].add(x)
            table = support_table(n, t)
            for want, cliques_, lengths in [
                (images, False, [len(i) for i in images]),
                (inverse, True, [len(b) for b in inverse]),
            ]:
                rows = [[] for _ in xs]
                for owner, words in table.gather(xs, cliques=cliques_):
                    for i, v in zip(owner.tolist(), words.tolist()):
                        rows[i].append(v)
                assert [len(row) for row in rows] == lengths, (t, cliques_)
                assert [set(row) for row in rows] == list(want), (t, cliques_)
                assert table.lengths(xs, cliques=cliques_).tolist() == lengths, (t, cliques_)
            # the image rows come in the kernel's order
            assert [v for x in xs for v in image_values(x, n, t).tolist()] == [
                v for _, words in table.gather(xs) for v in words.tolist()
            ], t

    def test_gather_blocks_take_whole_rows(self):
        # a block holds the rows that begin in one span of KERNEL_BLOCK / 8
        table = support_table(13, 4)
        ys = np.random.default_rng(5).permutation(1 << 13)
        lengths = table.lengths(ys, cliques=True).tolist()
        begins = np.cumsum([0] + lengths[:-1])
        owners, spans = [], []
        for owner, members in table.gather(ys, cliques=True):
            assert owner.size == members.size
            assert owner[0] == 0 or owner[0] != owners[-1]
            spans.append(set((begins[owner] // (KERNEL_BLOCK >> 3)).tolist()))
            owners += owner.tolist()
        assert owners == [i for i, k in enumerate(lengths) for _ in range(k)]
        assert all(len(span) == 1 for span in spans) and len(spans) > 1
        assert sorted(set.union(*spans)) == [next(iter(span)) for span in spans]
        assert list(table.gather(np.zeros(0, np.int64))) == []


def test_only_model_reads_the_kernel_block():
    """The block size is model's decision: every other module of the
    package walks the kernel through in_blocks or a SupportTable gather
    and never names KERNEL_BLOCK, by import or as a module attribute."""
    readers = []
    for path in sorted(Path(grainlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            readers += [(path.name, node.lineno) for n in names if n == "KERNEL_BLOCK"]
    assert readers and {name for name, _ in readers} == {"model.py"}
