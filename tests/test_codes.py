import contextlib
import hashlib
import io
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from grainlab.bounds import count_error_vectors
from grainlab.codes import (
    Code,
    _parse_lines,
    _parse_saved,
    construct_doubling,
    construct_greedy_known,
    construct_hamming_prefix,
    decode_doubling,
    decode_known_pattern,
    hamming_prefix_size,
    load_code,
    parse_code_text,
    save_code,
    verify_grain_correcting,
    verify_known_pattern,
    verify_list_decodable,
)
from grainlab.cli import main
from grainlab.config import caps_override
from grainlab.errors import CapExceeded, GrainlabError, PreconditionError
from grainlab.model import (
    ErrorVector,
    Word,
    _apply_mask,
    _error_masks,
    apply_grains,
    enumerate_error_vectors,
    grain_image_list,
)


def words(n):
    return [Word(n, v) for v in range(1 << n)]


# ---------------------------------------------------------------------------
# the Code type
# ---------------------------------------------------------------------------


class TestCode:
    def test_values_sorted_and_read_only(self):
        code = Code(3, [0b111, 0b000, 0b010])
        assert code.values.tolist() == [0b000, 0b010, 0b111]
        assert code.size == 3 and not code.values.flags.writeable
        assert [str(w) for w in code.sorted_words()] == ["000", "010", "111"]
        assert code.words == {Word(3, 0), Word(3, 2), Word(3, 7)}

    @pytest.mark.parametrize(
        "n,values",
        [(2, [0b100]), (2, [-1]), (70, [1 << 70]), (0, []), (3, [5, 1, 5]),
         (2, [1 << 70]), (63, [1 << 63]),
         # not truncated to 1, to [1, 6], nor reported as a duplicate
         (3, [1.5]), (3, [1.5, 6.9]), (3, [1.5, 1.2]), (3, ["1"]),
         # not 1-D: neither kept as a 2-D code nor a bare ValueError/AxisError
         (3, [[1], [2]]), (3, [[1, 2], [3, 4]]), (3, 5)],
    )
    def test_rejects_bad_values(self, n, values):
        with pytest.raises(PreconditionError):
            Code(n, values)

    def test_empty_code_and_ints_past_int64(self):
        # numpy makes the empty list float64; it still builds
        assert Code(3, []).size == 0
        # an int past int64 is an integer that does not fit
        for n in (2, 63):
            with pytest.raises(PreconditionError, match="does not fit"):
                Code(n, [1 << 70])


# ---------------------------------------------------------------------------
# bit-doubling construction
# ---------------------------------------------------------------------------


class TestDoubling:
    def test_n4(self):
        code = construct_doubling(4)
        assert {str(w) for w in code.words} == {"0000", "0011", "1100", "1111"}

    def test_n1(self):
        assert {str(w) for w in construct_doubling(1).words} == {"0", "1"}

    def test_n5_prefixes_n4(self):
        inner = {str(w) for w in construct_doubling(4).words}
        code = construct_doubling(5)
        assert code.size == 8
        for w in code.words:
            assert str(w)[1:] in inner

    @pytest.mark.parametrize("n", range(1, 13))
    def test_size(self, n):
        assert construct_doubling(n).size == 2 ** ((n + 1) // 2)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_corrects_any_budget(self, n):
        code = construct_doubling(n)
        assert verify_grain_correcting(code, n // 2)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_matches_pair_filter(self, n):
        # reference: every word whose protected pairs hold equal bits
        first = n % 2
        expected = [
            x for x in range(1 << n)
            if format(x, f"0{n}b")[first::2] == format(x, f"0{n}b")[first + 1::2]
        ]
        assert construct_doubling(n).values.tolist() == expected

    def test_even_positions_pairwise_equal(self):
        for w in construct_doubling(8).words:
            for i in range(2, 9, 2):
                assert w.bit(i - 1) == w.bit(i)

    def test_cap(self):
        # the code lists 2^ceil(n/2) words
        with caps_override(greedy_code_n=4):
            assert construct_doubling(8).size == 16
            with pytest.raises(CapExceeded, match="ceil\\(n/2\\)=5 exceeds greedy_code_n=4"):
                construct_doubling(9)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert main(["construct", "--kind", "doubling", "--n", "9"]) == 3
            assert err.getvalue().startswith("error: ceil(n/2)=5 exceeds")


class TestDecodeDoubling:
    def test_example(self):
        assert str(decode_doubling(Word.parse("0011"))) == "01"

    def test_n1_empty_message(self):
        assert decode_doubling(Word.parse("0")) is None

    @pytest.mark.parametrize("n", range(2, 11))
    def test_recovers_message_under_every_pattern(self, n):
        code = construct_doubling(n)
        for c in code.words:
            expected = decode_doubling(c)
            for e in enumerate_error_vectors(n, n // 2):
                assert decode_doubling(apply_grains(c, e)) == expected


# ---------------------------------------------------------------------------
# Hamming-prefix construction
# ---------------------------------------------------------------------------


class TestHammingPrefix:
    def test_m2_is_prefixed_repetition(self):
        code = construct_hamming_prefix(2)
        assert code.n == 4 and code.size == 4
        assert {str(w) for w in code.words} == {"0000", "0111", "1000", "1111"}

    def test_m3_size(self):
        code = construct_hamming_prefix(3)
        assert code.n == 8
        assert code.size == 2**8 // 8 == hamming_prefix_size(3)

    @pytest.mark.parametrize("m", [2, 3])
    def test_corrects_one_grain(self, m):
        assert verify_grain_correcting(construct_hamming_prefix(m), 1)

    def test_m4_beats_sphere_packing(self):
        # 2^16/16 codewords versus the substitution-error packing count
        assert hamming_prefix_size(4) == 4096
        assert 4096 > (1 << 16) // 17

    def test_inner_code_has_distance_3(self):
        code = construct_hamming_prefix(2)
        inner = {str(w)[1:] for w in code.words}
        for a, b in itertools.combinations(inner, 2):
            assert sum(x != y for x, y in zip(a, b)) >= 3

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_matches_parity_check_filter(self, m):
        # reference: the inner words whose set positions XOR to 0, which
        # is the Hamming parity check with columns 1..2^m-1 in binary
        n = 1 << m

        def syndrome(x):
            s = 0
            for pos in range(1, n):
                if x >> (n - 1 - pos) & 1:
                    s ^= pos
            return s

        inner = [x for x in range(1 << (n - 1)) if syndrome(x) == 0]
        expected = inner + [x | 1 << (n - 1) for x in inner]
        assert construct_hamming_prefix(m).values.tolist() == expected

    def test_m_range(self):
        with pytest.raises(PreconditionError):
            construct_hamming_prefix(1)
        with pytest.raises(PreconditionError):
            construct_hamming_prefix(7)

    def test_materialization_cap(self):
        with pytest.raises(CapExceeded):
            construct_hamming_prefix(5)
        # the size formula stays available past the cap
        assert hamming_prefix_size(5) == 2**32 // 32

    def test_m4_size_and_validity_spot_check(self):
        code = construct_hamming_prefix(4)
        assert code.size == 4096
        # spot-check a sample of pairs for 1-grain collisions
        sample = code.sorted_words()[::97]
        from grainlab.model import confusable

        for a, b in itertools.combinations(sample, 2):
            assert not confusable(a, b, 1)


# ---------------------------------------------------------------------------
# greedy known-pattern construction
# ---------------------------------------------------------------------------


def greedy_sweep(n, t):
    """The numeric-order sweep: keep each word of {0,1}^n that is not
    within an error mask of a word kept before it."""
    masks = _error_masks(n, t)
    forbidden = np.zeros(1 << n, dtype=bool)
    kept = []
    for xv in range(1 << n):
        if not forbidden[xv]:
            kept.append(xv)
            forbidden[xv ^ masks] = True
    return kept


class TestGreedyKnown:
    def test_equals_numeric_order_sweep(self):
        # t past floor(n/2) + 1 adds no masks
        for n in range(1, 17):
            for t in range(n // 2 + 2):
                code = construct_greedy_known(n, t)
                assert code.values.tolist() == greedy_sweep(n, t), (n, t)

    def test_budget_zero_full_space(self):
        assert construct_greedy_known(4, 0).size == 16

    def test_5_1_size_bound(self):
        code = construct_greedy_known(5, 1)
        assert code.size >= math.ceil(32 / 5)
        assert verify_known_pattern(code, 1)

    @pytest.mark.parametrize("n,t", [(6, 1), (8, 1), (8, 2), (10, 1)])
    def test_packing_guarantee(self, n, t):
        code = construct_greedy_known(n, t)
        assert code.size * count_error_vectors(n, t) >= 2**n
        assert verify_known_pattern(code, t)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            construct_greedy_known(21, 1)


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------


def known_pattern_by_sort(code, t):
    """The per-mask sort: for every support mask, sort the recorded
    words and look for a repeat."""
    for mask in _error_masks(code.n, t).tolist():
        images = np.sort(_apply_mask(code.values, mask))
        if (images[1:] == images[:-1]).any():
            return False
    return True


def constructions_under_test():
    """Every construction the tests of this file build, with the
    budgets they are checked at."""
    for n in range(1, 15):
        yield construct_doubling(n), range(n // 2 + 2)
    for m in (2, 3, 4):
        yield construct_hamming_prefix(m), (0, 1, 2)
    for n in range(1, 17):
        for t in range(n // 2 + 2):
            yield construct_greedy_known(n, t), (t, t + 1)


class TestKnownPatternOracle:
    def test_matches_sort_on_random_codes(self):
        rng = np.random.default_rng(1515)
        verdicts = set()
        for n in range(1, 11):
            for t in range(n // 2 + 2):
                for size in (1, 2, 3, 5, 9, 17, 40):
                    if size > 1 << n:
                        continue
                    code = Code(n, rng.choice(1 << n, size=size, replace=False))
                    verdict = verify_known_pattern(code, t)
                    assert verdict == known_pattern_by_sort(code, t), (n, t, code.values)
                    verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_matches_sort_on_constructions(self):
        verdicts = set()
        for code, budgets in constructions_under_test():
            for t in budgets:
                verdict = verify_known_pattern(code, t)
                assert verdict == known_pattern_by_sort(code, t), (code.provenance, code.n, t)
                verdicts.add(verdict)
        assert verdicts == {True, False}


class TestVerifiers:
    def test_shared_image_pair_rejected(self):
        code = Code(2, [0b00, 0b01])
        assert not verify_grain_correcting(code, 1)

    def test_single_word_code(self):
        code = Code(6, [0b010101])
        assert verify_grain_correcting(code, 3)

    def test_grain_correcting_implies_list_1(self):
        for n, t in ((5, 1), (6, 2)):
            code = construct_doubling(n)
            assert verify_grain_correcting(code, t)
            assert verify_list_decodable(code, t, 1)

    def test_list_2_accepts_the_pair(self):
        code = Code(2, [0b00, 0b01])
        assert verify_list_decodable(code, 1, 2)
        assert not verify_list_decodable(code, 1, 1)

    def test_traced_peak_of_doubling_16_at_8(self):
        # 256 codewords x 1597 masks: in blocks of model.KERNEL_BLOCK
        # entries; in one block of all of them it peaked at 6.95 MB
        code = construct_doubling(16)
        verify_grain_correcting(code, 8)  # warm the mask cache
        tracemalloc.start()
        try:
            assert verify_grain_correcting(code, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6

    def test_known_pattern_pair_counterexample(self):
        # the pattern with support {2} maps both 00 and 01 to 00
        code = Code(2, [0b00, 0b01])
        assert not verify_known_pattern(code, 1)

    def test_known_pattern_table_at_63_bits_is_an_error(self):
        # 2^63 entries pass the ceiling but exceed numpy's largest dimension
        code = Code(63, [0, (1 << 63) - 1])
        with caps_override(error_enum_n=63), pytest.raises(GrainlabError, match="2\\^63"):
            verify_known_pattern(code, 1)
        with caps_override(error_enum_n=63):
            assert verify_grain_correcting(code, 1)

    def test_known_pattern_budget_zero(self):
        code = Code(3, [0b000, 0b111])
        assert verify_known_pattern(code, 0)

    @given(st.integers(min_value=2, max_value=7), st.data())
    def test_grain_correcting_implies_known_pattern(self, n, data):
        pool = words(n)
        size = data.draw(st.integers(min_value=1, max_value=min(8, len(pool))))
        chosen = data.draw(
            st.lists(
                st.sampled_from(pool), min_size=size, max_size=size, unique=True
            )
        )
        code = Code(n, [c.value for c in chosen])
        if verify_grain_correcting(code, 1):
            assert verify_known_pattern(code, 1)

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=3),
        st.data(),
    )
    def test_int_routes_match_word_level_references(self, n, t, data):
        # references: the owner-dict and hit-count verifiers on image
        # sets from literal ErrorVector application
        chosen = data.draw(
            st.lists(st.sampled_from(words(n)), min_size=1, max_size=12, unique=True)
        )
        code = Code(n, [c.value for c in chosen])
        vectors = enumerate_error_vectors(n, t)
        images = {c: {apply_grains(c, e) for e in vectors} for c in chosen}
        for c in chosen:
            listed = grain_image_list(c, t)
            assert listed[0] == c
            assert len(set(listed)) == len(listed)
            assert set(listed) == images[c]

        owner, correcting = {}, True
        for c in sorted(chosen):
            for y in images[c]:
                if owner.setdefault(y, c) != c:
                    correcting = False
        assert verify_grain_correcting(code, t) == correcting

        hits = {}
        for c in chosen:
            for y in images[c]:
                hits[y] = hits.get(y, 0) + 1
        for list_size in (1, 2):
            expected = max(hits.values()) <= list_size
            assert verify_list_decodable(code, t, list_size) == expected


# ---------------------------------------------------------------------------
# known-pattern decoding
# ---------------------------------------------------------------------------


def decode_scan(code: Code, y: Word, e: ErrorVector) -> Word:
    """The known-pattern decoder as it was before it narrowed the code to
    the words that agree with y outside e: the grain operator applied to
    every codeword."""
    matches = code.values[_apply_mask(code.values, e.mask) == y.value]
    if not matches.size:
        raise GrainlabError("no codeword maps to the received word under e")
    if matches.size > 1:
        raise GrainlabError(
            "multiple codewords map to the received word: code is not "
            "known-pattern decodable for this pattern"
        )
    return Word(code.n, int(matches[0]))


def outcome(decode, *case):
    """The decoded word, or the type and message of the error raised."""
    try:
        return decode(*case)
    except GrainlabError as exc:
        return type(exc), str(exc)


class TestDecodeKnownPattern:
    def test_matches_the_full_scan(self):
        """On every (codeword, pattern) pair of greedy-known(12, 2), on a
        received word that is no output, and on codes that fail the
        known-pattern property."""
        code = construct_greedy_known(12, 2)
        patterns = enumerate_error_vectors(12, 2)
        cases = [(code, apply_grains(c, e), e) for c in code.sorted_words() for e in patterns]
        e = patterns[5]
        outputs = {apply_grains(c, e).value for c in code.sorted_words()}
        cases.append((code, Word(12, next(v for v in range(1 << 12) if v not in outputs)), e))
        cases.append((Code(2, [0b00, 0b01]), Word.parse("00"), ErrorVector(2, (2,))))
        everything = Code(4, range(16))
        cases += [(everything, Word(4, y), ErrorVector(4, (2, 4))) for y in range(16)]
        errors = []
        for case in cases:
            want = outcome(decode_scan, *case)
            assert outcome(decode_known_pattern, *case) == want, case
            if isinstance(want, tuple):
                errors.append(want[1][:8])
        assert errors.count("no codew") >= 1 and errors.count("multiple") >= 2

    @pytest.mark.parametrize("n,t", [(6, 1), (8, 1), (8, 2)])
    def test_round_trip(self, n, t):
        code = construct_greedy_known(n, t)
        for c in code.sorted_words():
            for e in enumerate_error_vectors(n, t):
                assert decode_known_pattern(code, apply_grains(c, e), e) == c

    def test_zero_pattern_is_membership(self):
        code = construct_greedy_known(5, 1)
        e0 = enumerate_error_vectors(5, 0)[0]
        member = code.sorted_words()[0]
        assert decode_known_pattern(code, member, e0) == member
        outside = next(w for w in words(5) if w not in code.words)
        with pytest.raises(GrainlabError):
            decode_known_pattern(code, outside, e0)

    def test_ambiguous_code_reports_failure(self):
        code = Code(2, [0b00, 0b01])
        e = enumerate_error_vectors(2, 1)[1]  # support {2}
        assert e.support == (2,)
        with pytest.raises(GrainlabError):
            decode_known_pattern(code, Word.parse("00"), e)


# ---------------------------------------------------------------------------
# code files
# ---------------------------------------------------------------------------


PINNED_CODES = {
    "doubling-15": lambda: construct_doubling(15),
    "doubling-16": lambda: construct_doubling(16),
    "hamming-prefix-4": lambda: construct_hamming_prefix(4),
    "greedy-known-12-2": lambda: construct_greedy_known(12, 2),
    "greedy-known-16-2": lambda: construct_greedy_known(16, 2),
    "file-63-bit": lambda: parse_code_text("1" * 63 + "\n1" + "0" * 62 + "\n"),
}

# sha256 of the save_code bytes with header=None
PINNED_DIGESTS = {
    "doubling-15": "d555716f9232d5ed4e5ef6321836de09531fbb991042ea74af683a169ecbdeb6",
    "doubling-16": "68528b47bc2c064a35fc5e656ab565467f86afc11486d5ab868e0479c63de436",
    "hamming-prefix-4": "71353589e5541456f272687f2b03332fcafe6833edfb3868f197cf4353a35c72",
    "greedy-known-12-2": "a8474c218a6ac3cfa8c58cbba3505314abf7453e64b2b1bbba09105f4e49e2a7",
    "greedy-known-16-2": "4c41efb069fee774b1aeb5703b8c83f1b96239a05702ee718056946c264243d8",
    "file-63-bit": "dfc4437678f54316d148e52bd520a4c27c10e8498a6125370473cac212bd2fd5",
}


class TestCodeFiles:
    def test_round_trip(self, tmp_path):
        code = construct_doubling(6)
        path = tmp_path / "code.txt"
        save_code(code, path, header="doubling code, n=6")
        loaded = load_code(path)
        assert loaded.words == code.words
        assert loaded.n == code.n

    def test_63_bit_words_round_trip_and_decode(self, tmp_path):
        a, b = "1" + "0" * 62, "1" * 63
        path = tmp_path / "long.txt"
        path.write_text(f"{b}\n{a}\n")
        code = load_code(path)
        assert code.values.dtype == np.int64 and code.values[-1] == (1 << 63) - 1
        assert [str(w) for w in code.sorted_words()] == [a, b]
        save_code(code, path)
        assert load_code(path).words == code.words
        e = ErrorVector(63, (2, 63))
        for c in code.words:
            assert decode_known_pattern(code, apply_grains(c, e), e) == c

    def test_70_bit_text_is_rejected_at_parse(self):
        with caps_override(error_enum_n=70), pytest.raises(PreconditionError, match="2\\^70"):
            parse_code_text("1" * 70 + "\n1" + "0" * 69 + "\n")

    @pytest.mark.parametrize("name", PINNED_CODES)
    def test_saved_bytes_pinned(self, tmp_path, name):
        path = tmp_path / "code.txt"
        save_code(PINNED_CODES[name](), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_DIGESTS[name]

    def test_memory_stays_near_the_file_size(self, tmp_path):
        # the (16,1) code has 32768 words of 16 bits: its file is 0.56 MB,
        # and one size x n int64 bit matrix alone would take 4.2 MB
        code = construct_greedy_known(16, 1)
        path = tmp_path / "code.txt"
        tracemalloc.start()
        try:
            save_code(code, path)
            load_code(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\n0011  # trailing comment\n1100\n"
        code = parse_code_text(text)
        assert {str(w) for w in code.words} == {"0011", "1100"}

    def test_mixed_lengths_rejected(self):
        with pytest.raises(PreconditionError):
            parse_code_text("0011\n110\n")

    def test_duplicates_rejected(self):
        with pytest.raises(PreconditionError):
            parse_code_text("0011\n0011\n")

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            parse_code_text("# nothing here\n")
        # a header line without its newline is not in save_code's shape
        with pytest.raises(PreconditionError, match="no words"):
            parse_code_text("# header")


def line_path_variants(text):
    """Text of the same code that is not in the shape save_code writes."""
    lines = text.splitlines()
    yield "\n".join(lines[:3] + [""] + lines[3:]) + "\n"  # a blank line
    yield "\n".join(lines[:-1] + [lines[-1] + "  # c"]) + "\n"  # a trailing comment
    yield "\n".join(lines[:2] + ["  " + line for line in lines[2:]]) + "\n"  # indentation
    yield text.replace("\n", "\r\n")
    yield text[:-1]  # no final newline


def error_of(parse, text):
    with pytest.raises(PreconditionError) as info:
        parse(text)
    return str(info.value)


class TestParsePaths:
    @pytest.mark.parametrize("name", PINNED_CODES)
    def test_paths_agree_on_pinned_codes(self, tmp_path, name):
        code = PINNED_CODES[name]()
        path = tmp_path / "code.txt"
        save_code(code, path, header=f"{name}\nsecond header line")
        text = path.read_text()
        expected = code.values.tolist()
        assert _parse_saved(text).values.tolist() == expected
        assert parse_code_text(text).values.tolist() == expected
        assert _parse_lines(text).values.tolist() == expected
        for variant in line_path_variants(text):
            assert _parse_saved(variant) is None
            back = parse_code_text(variant)
            assert back.n == code.n and back.values.tolist() == expected

    def test_other_line_breaks_in_a_header(self):
        # str.splitlines also breaks at form feeds and lone carriage
        # returns, so the word after one in a '#' line counts
        for sep in ("\x0c", "\r", "\u2028"):
            text = f"# header{sep}0110\n0011\n1100\n"
            assert parse_code_text(text).values.tolist() == [0b0011, 0b0110, 0b1100]

    # the two-word file is too short for the replaced lines to be words
    @pytest.mark.parametrize("name", [name for name in PINNED_CODES if "file" not in name])
    def test_bad_fast_shape_text_reports_as_the_line_path(self, tmp_path, name):
        path = tmp_path / "code.txt"
        save_code(PINNED_CODES[name](), path, header=name)
        lines = path.read_text().splitlines(keepends=True)
        mid = len(lines) // 2
        two = "2" + lines[mid][1:]
        bad = {  # what replaces lines mid and mid + 1
            "a 2": two + lines[mid + 1],
            "a short line": lines[mid][1:] + lines[mid + 1],
            # as many bytes as two lines, so the rows stay aligned
            "a long line": lines[mid][:-1] + "0" + lines[mid + 1],
            "a duplicate": lines[mid - 1] + lines[mid + 1],
        }
        messages = {}
        for kind, replaced in bad.items():
            text = "".join(lines[:mid]) + replaced + "".join(lines[mid + 2 :])
            messages[kind] = error_of(parse_code_text, text)
            assert messages[kind] == error_of(_parse_lines, text), kind
        assert messages == {
            "a 2": f"line {mid + 1}: not a 0/1 string: {two.strip()!r}",
            "a short line": "codewords have mixed lengths",
            "a long line": "codewords have mixed lengths",
            "a duplicate": "duplicate codewords in file",
        }


def test_builds_no_word(built_words, tmp_path):
    """The constructions and the code files work on packed ints: a Word
    is built only when the API hands one out."""
    path = tmp_path / "code.txt"
    for code in (
        construct_doubling(9),
        construct_hamming_prefix(3),
        construct_greedy_known(10, 2),
    ):
        save_code(code, path)
        load_code(path)
    assert built_words == []
    construct_doubling(4).sorted_words()
    assert len(built_words) == 4  # the counter sees the API's Words


# ---------------------------------------------------------------------------
# the 63-bit ceiling
# ---------------------------------------------------------------------------


def saved_text(n):
    """A two-word code of length n in the shape save_code writes."""
    return f"# header\n{'1' * n}\n1{'0' * (n - 1)}\n"


def verify_code_cli(n, tmp_path):
    """grainlab verify-code on saved_text(n), its exit status raised as
    the error the CLI reports: 2 as PreconditionError, 3 as CapExceeded."""
    path = tmp_path / "code.txt"
    path.write_text(saved_text(n))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = main(["verify-code", "--file", str(path), "--t", "1"])
    if status:
        message = err.getvalue().removeprefix("error: ").rstrip("\n")
        raise {2: PreconditionError, 3: CapExceeded}[status](message)


# entry -> (call at length n, prefix of its message, whether n = 63 applies)
CEILING_ENTRIES = {
    "Code": (lambda n, _: Code(n, [0, (1 << n) - 1]), "", True),
    "saved-shape": (lambda n, _: parse_code_text(saved_text(n)), "", True),
    "line-path": (lambda n, _: parse_code_text(saved_text(n)[:-1]), "line 2: ", True),
    "hamming-prefix": (lambda n, _: construct_hamming_prefix(n.bit_length() - 1), "", False),
    "greedy-known": (lambda n, _: construct_greedy_known(n, 1), "", True),
    "doubling": (lambda n, _: construct_doubling(n), "", True),
    "verify-code": (verify_code_cli, "", True),
}


@pytest.mark.parametrize("name", CEILING_ENTRIES)
def test_ceiling_at_every_entry(tmp_path, name):
    """At the default caps, n = 64 fails the ceiling, not a cap, with one
    message; n = 63 passes it and builds, or stops at a cap."""
    call, prefix, at_63 = CEILING_ENTRIES[name]
    with pytest.raises(PreconditionError) as info:
        call(64, tmp_path)
    assert str(info.value) == prefix + "n=64: 2^64 words do not fit the 63-bit kernels"
    if at_63:
        with contextlib.suppress(CapExceeded):
            assert call(63, tmp_path).values[-1] == (1 << 63) - 1
