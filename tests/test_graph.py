import hashlib
import itertools
import random

import pytest

from grainlab.codes import Code, verify_grain_correcting
from grainlab.config import Caps, caps_override
from grainlab.errors import CapExceeded
from grainlab.graph import (
    CliquePartition,
    _absorb,
    _colour,
    _half_adjacency,
    _max_independent_set,
    _neighbor_values,
    _renumber,
    greedy_clique_partition,
    max_code_size,
    partition_size_table,
    verify_clique_partition,
)
from grainlab.model import Word, confusable, enumerate_error_vectors, grain_images

# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------


def words(n):
    return [Word(n, v) for v in range(1 << n)]


def edges_brute(n, t):
    out = set()
    for w1, w2 in itertools.combinations(words(n), 2):
        if confusable(w1, w2, t):
            out.add((w1, w2))
    return out


def max_independent_brute(n, t):
    """Exact maximum independent set size by subset enumeration (tiny n)."""
    vs = words(n)
    adj = {
        (a, b)
        for a, b in itertools.combinations(vs, 2)
        if confusable(a, b, t)
    }
    best = 0
    for size in range(len(vs), 0, -1):
        if size <= best:
            break
        for combo in itertools.combinations(vs, size):
            if not any((a, b) in adj for a, b in itertools.combinations(combo, 2)):
                best = size
                break
        if best:
            break
    return best


def mis_plain(adj, candidates):
    """Maximum independent set size by include/exclude recursion over
    adjacency bitmasks: no bound, no colouring, no ordering."""
    if not candidates:
        return 0
    v = candidates.bit_length() - 1
    rest = candidates & ~(1 << v)
    return max(mis_plain(adj, rest), 1 + mis_plain(adj, rest & ~adj[v]))


def random_adjacency(rng, nv, p):
    adj = [0] * nv
    for a, b in itertools.combinations(range(nv), 2):
        if rng.random() < p:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    return adj


def literal_images(n, t):
    """Image sets of every word value, applying each grain mask literally."""
    masks = [e.mask for e in enumerate_error_vectors(n, t)]
    return [{(x & ~mk) | ((x >> 1) & mk) for mk in masks} for x in range(1 << n)]


def greedy_partition_scan(m, s):
    """Reference greedy partition: rescan every preimage bucket for the
    largest (first on ties) before emitting each part."""
    images = literal_images(m, s)
    buckets = [set() for _ in images]
    for x, img in enumerate(images):
        for y in img:
            buckets[y].add(x)
    covered = 0
    parts, witnesses = [], []
    while covered < len(images):
        best_y, best_size = -1, 0
        for y, bucket in enumerate(buckets):
            if len(bucket) > best_size:
                best_y, best_size = y, len(bucket)
        part = sorted(buckets[best_y])
        covered += len(part)
        for x in part:
            for y in images[x]:
                buckets[y].discard(x)
        parts.append(tuple(part))
        witnesses.append(best_y)
    return tuple(parts), tuple(witnesses)


def half_adjacency_ref(n, t):
    """Adjacency bitmasks among first-bit-0 words, by image-set overlap."""
    half = 1 << (n - 1) if n > 1 else 1
    images = literal_images(n, t)[:half]
    return [
        sum(1 << o for o in range(half) if o != x and images[x] & images[o])
        for x in range(half)
    ]


def sequential_colouring(cadj, vertices):
    """Classes of the first-fit colouring of vertices, in order: each
    class holds no two cadj-neighbours."""
    classes = []
    for u in vertices:
        for k, c in enumerate(classes):
            if not cadj[u] & c:
                classes[k] = c | 1 << u
                break
        else:
            classes.append(1 << u)
    return classes


def members(mask):
    return [u for u in range(mask.bit_length()) if (mask >> u) & 1]


def clique_number(cadj, candidates):
    """Largest clique of cadj within the candidates mask, by include/exclude."""
    if not candidates:
        return 0
    v = candidates.bit_length() - 1
    rest = candidates & ~(1 << v)
    return max(clique_number(cadj, rest), 1 + clique_number(cadj, rest & cadj[v]))


# Size and sha256 of the space-joined witness values of max_code_size(n, t),
# in the ascending order it returns them, recorded before unit-propagation
# absorption joined the search: the search may prune more, but below n = 9
# it must return the same witness.
PINNED_WITNESSES = {
    # t = 0
    (1, 0): (2, "5cc3a6551605a0b4e9c3334f5eb5554c404973daf0b1a58655fa29c0ba3d47b0"),
    (2, 0): (4, "63dbe32229b625e9107d2b3db1833688bf500dbe5b559947b2234b9caf0a25d1"),
    (3, 0): (8, "655a85aa4946aa79c3481195d34aa4af4e731983fa2c2fb417cc62f46274d3c5"),
    (4, 0): (16, "b06b2d2a333fc829502790fcd3a6eb1d107598f438fd86d96a79b98b0f685be7"),
    (5, 0): (32, "750ba7c07e313a9bce399ef340d658b160863168a8eea648890aabf58e559305"),
    (6, 0): (64, "90c2fb47e009e4622216e29bed3d482342e39396da88013381b26cedd52723ba"),
    (7, 0): (128, "d4fae8f3edee48cea7d0dec724c5e848736b8d6d7cbcf49764e2dc5240f59bb4"),
    (8, 0): (256, "86059e067fc6d1b8d629715738e3bea0ba3939185e72a56a1f91d2cc3696bae6"),
    # t = 1
    (1, 1): (2, "5cc3a6551605a0b4e9c3334f5eb5554c404973daf0b1a58655fa29c0ba3d47b0"),
    (2, 1): (2, "dcbcbaa9a7fe7a87d60bf64c2691b57a08647b9eee8d0fca9252a28de282514f"),
    (3, 1): (4, "a93f72713bd585b36af09ab4278fc913ff17d07c8d997c71d9e3da03de3ff96c"),
    (4, 1): (6, "fac5fd555c1f28f115b6069abcd634c30f06e6dce05649c1559b71b80573c9b2"),
    (5, 1): (8, "dad1f98b5c180c265d464b7f06766fd4ba2f253be963c5a9a4ec18c673747bcc"),
    (6, 1): (16, "850a95c11ee28143ed520e3cf88401c783db4d9c4a6256f44180c97a459883bf"),
    (7, 1): (26, "70811a2acebca083265088b1fd7635f7d04f4fcf00e6d6616cbd1d578aa3aa81"),
    (8, 1): (44, "cc1dc0807ed6cd17675a8afbb99e1635e2e85a782963a7a364e470685560bed9"),
    # t = 2
    (1, 2): (2, "5cc3a6551605a0b4e9c3334f5eb5554c404973daf0b1a58655fa29c0ba3d47b0"),
    (2, 2): (2, "dcbcbaa9a7fe7a87d60bf64c2691b57a08647b9eee8d0fca9252a28de282514f"),
    (3, 2): (4, "a93f72713bd585b36af09ab4278fc913ff17d07c8d997c71d9e3da03de3ff96c"),
    (4, 2): (4, "82832382dda1e3abcc0091ef11ee3efbbce84e257eb4217004f229b76599ab5a"),
    (5, 2): (8, "dad1f98b5c180c265d464b7f06766fd4ba2f253be963c5a9a4ec18c673747bcc"),
    (6, 2): (10, "08f3c7bd9441217d79287d21b6462f0f772bb1459adc86bf1c0249d946652dcc"),
    (7, 2): (16, "9e3d6bd60407bc4199b1f04c8a51176c782cf46028f92fb8a19dfb722c69d70d"),
    (8, 2): (22, "5c4aa0c4b5987d09b937d592c857d896c2642558d27537a13ee70c56c753275a"),
    # t = 3
    (1, 3): (2, "5cc3a6551605a0b4e9c3334f5eb5554c404973daf0b1a58655fa29c0ba3d47b0"),
    (2, 3): (2, "dcbcbaa9a7fe7a87d60bf64c2691b57a08647b9eee8d0fca9252a28de282514f"),
    (3, 3): (4, "a93f72713bd585b36af09ab4278fc913ff17d07c8d997c71d9e3da03de3ff96c"),
    (4, 3): (4, "82832382dda1e3abcc0091ef11ee3efbbce84e257eb4217004f229b76599ab5a"),
    (5, 3): (8, "dad1f98b5c180c265d464b7f06766fd4ba2f253be963c5a9a4ec18c673747bcc"),
    (6, 3): (8, "01a3d92e371767c7abeb98f7444d252ca0bf93f6fe7a619b842864829bdaeb03"),
    (7, 3): (16, "9e3d6bd60407bc4199b1f04c8a51176c782cf46028f92fb8a19dfb722c69d70d"),
    (8, 3): (18, "8b8f82075b6b4823cbf59b067c079a5ef92f8c4b952b69d549986d91b8e5e1ea"),
}


def edges_kernel(n, t):
    """Edges from the kernel's neighbour relation, as sorted Word pairs."""
    return {
        (Word(n, x), Word(n, o))
        for x in range(1 << n)
        for o in _neighbor_values(x, n, t)
        if o > x
    }


# ---------------------------------------------------------------------------
# graph construction
# ---------------------------------------------------------------------------


class TestBuildGraph:
    """The edge relation the exact search builds from the kernel
    (_neighbor_values), over the whole space."""

    def test_edges_2_1(self):
        assert edges_kernel(2, 1) == {
            (Word.parse("00"), Word.parse("01")),
            (Word.parse("10"), Word.parse("11")),
        }

    def test_budget_zero_no_edges(self):
        assert edges_kernel(4, 0) == set()

    @pytest.mark.parametrize("n,t", [(3, 1), (4, 1), (4, 2), (5, 1)])
    def test_matches_pairwise_oracle(self, n, t):
        assert edges_kernel(n, t) == edges_brute(n, t)

    def test_degree_of_010(self):
        w = Word.parse("010")
        expected = sum(
            1 for other in words(3) if other != w and confusable(w, other, 1)
        )
        assert len(_neighbor_values(w.value, 3, 1)) == expected


# ---------------------------------------------------------------------------
# exact maximum code size
# ---------------------------------------------------------------------------


class TestMaxCodeSize:
    def test_m_2_1(self):
        result = max_code_size(2, 1)
        assert result.size == 2 and result.exact

    def test_budget_zero_full_space(self):
        result = max_code_size(5, 0)
        assert result.size == 32

    @pytest.mark.parametrize("n,t", [(2, 1), (3, 1), (4, 1), (4, 2)])
    def test_matches_subset_oracle(self, n, t):
        assert max_code_size(n, t).size == max_independent_brute(n, t)

    @pytest.mark.parametrize(
        "n,t", [(n, t) for t in (1, 2, 3) for n in range(1, 7 if t == 1 else 8)]
    )
    def test_matches_plain_recursion(self, n, t):
        adj = _half_adjacency(n, t)
        assert max_code_size(n, t).size == 2 * mis_plain(adj, (1 << len(adj)) - 1)

    def test_random_graphs_match_plain_recursion(self):
        rng = random.Random(11)
        absorbed = 0
        for _ in range(60):
            nv = rng.randint(1, 18)
            adj = random_adjacency(rng, nv, rng.choice([0.1, 0.3, 0.5, 0.8]))
            size, mask, exact, nodes, more = _max_independent_set(adj, None)
            assert exact and size == mask.bit_count() == mis_plain(adj, (1 << nv) - 1)
            assert not any(adj[v] & mask for v in range(nv) if (mask >> v) & 1)
            assert nodes >= 1
            absorbed += more
        assert absorbed > 0

    def test_renumber_keeps_classes_conflict_free(self):
        rng = random.Random(5)
        outcomes = set()
        for _ in range(300):
            nv = rng.randint(3, 14)
            cadj = random_adjacency(rng, nv, 0.5)
            v = nv - 1
            classes = sequential_colouring(cadj, range(v))
            first_fit = any(not cadj[v] & c for c in classes)
            placed = _renumber(v, cadj, classes)
            outcomes.add((first_fit, placed))
            members = [u for c in classes for u in range(nv) if (c >> u) & 1]
            assert sorted(members) == list(range(v + placed))
            for c in classes:
                assert not any(cadj[u] & c for u in range(nv) if (c >> u) & 1)
        assert outcomes == {(True, True), (False, True), (False, False)}

    def test_absorb_marks_only_inconsistent_subsets(self):
        class Marks(list):
            """A used list that fails on marking a class twice."""

            def __setitem__(self, k, value):
                assert value is True and not self[k], k
                super().__setitem__(k, value)

        rng = random.Random(17)
        marked_sizes = set()
        outcomes = set()
        for _ in range(400):
            nv = rng.randint(2, 14)
            cadj = random_adjacency(rng, nv, rng.choice([0.3, 0.5, 0.7, 0.85]))
            order = rng.sample(range(nv), nv)
            cut = rng.randint(1, nv - 1)
            classes = sequential_colouring(cadj, order[:cut])
            frozen = list(classes)
            used = Marks([False] * len(classes))
            for v in order[cut:]:
                before = list(used)
                absorbed = _absorb(v, cadj, classes, used)
                assert classes == frozen
                new = [k for k in range(len(classes)) if used[k] and not before[k]]
                outcomes.add(absorbed)
                if not absorbed:
                    assert new == []
                    continue
                marked_sizes.add(len(new))
                # no clique of the complement takes v and one vertex of each
                for pick in itertools.product(*(members(classes[k]) for k in new)):
                    clique = (v, *pick)
                    assert not all(
                        (cadj[a] >> b) & 1 for a, b in itertools.combinations(clique, 2)
                    ), (v, pick)
        assert outcomes == {True, False}
        assert {1, 2, 3} <= marked_sizes

    def test_colour_bounds_every_branch_prefix(self):
        # the pruning rule: with the branch vertices after entry i removed,
        # no clique of the complement exceeds colour_i; with all removed,
        # below.  below sits just under the clique number, where a bound
        # that is off by one shows.
        rng = random.Random(23)
        absorbed = 0
        for _ in range(300):
            nv = rng.randint(8, 13)
            radj = random_adjacency(rng, nv, rng.choice([0.3, 0.5]))
            cadj = [((1 << nv) - 1) & ~radj[v] & ~(1 << v) for v in range(nv)]
            candidates = (1 << nv) - 1
            below = max(0, clique_number(cadj, candidates) - rng.randint(1, 2))
            branch, more = _colour(candidates, below, radj, cadj)
            absorbed += more
            left = candidates
            for bit, colour in reversed(branch):
                assert clique_number(cadj, left) <= colour
                left ^= bit
            assert clique_number(cadj, left) <= below
        assert absorbed > 0

    def test_search_counters(self):
        result = max_code_size(8, 1)
        assert 0 < result.nodes < 13548 // 2  # 13 548 nodes without absorption
        assert result.absorbed > 0
        assert (max_code_size(5, 0).nodes, max_code_size(5, 0).absorbed) == (0, 0)

    def test_witnesses_pinned(self):
        for (n, t), (size, digest) in PINNED_WITNESSES.items():
            result = max_code_size(n, t)
            values = " ".join(str(w.value) for w in result.words)  # sorted, as pinned
            assert result.exact, (n, t)
            assert (result.size, hashlib.sha256(values.encode()).hexdigest()) == (
                size,
                digest,
            ), (n, t)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_witness_is_independent(self, n):
        for t in (1, 2):
            result = max_code_size(n, t)
            ws = result.words
            assert len(ws) == result.size, t
            for a, b in itertools.combinations(ws, 2):
                assert not confusable(a, b, t), t
            assert verify_grain_correcting(Code(n, [w.value for w in ws]), t), t

    @pytest.mark.parametrize("n", range(2, 8))
    def test_at_least_doubling_code(self, n):
        assert max_code_size(n, 1).size >= 2 ** ((n + 1) // 2)

    def test_non_increasing_in_budget(self):
        sizes = [max_code_size(6, t).size for t in range(0, 4)]
        assert sizes == sorted(sizes, reverse=True)

    def test_m_4_1_value(self):
        # witness: the doubling code on 4 bits is 1-grain-correcting of size 4
        assert max_code_size(4, 1).size >= 4

    def test_timeout_returns_lower_bound_flag(self):
        with caps_override(exact_m_time_limit=1e-9):
            result = max_code_size(8, 1)
        assert not result.exact
        assert result.size >= 2 ** 4  # still a valid code
        for a, b in itertools.combinations(result.words, 2):
            assert not confusable(a, b, 1)

    def test_default_budget_ends_n9(self):
        assert Caps().exact_m_time_limit > 0
        with caps_override(exact_m_time_limit=0.5):
            result = max_code_size(9, 1)
        assert not result.exact
        assert result.size >= 32
        values = [w.value for w in result.words]
        for x in values:
            assert not _neighbor_values(x, 9, 1) & set(values)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_half_adjacency_matches_reference(self, n):
        for t in range(0, 3):
            assert _half_adjacency(n, t) == half_adjacency_ref(n, t), t

    def test_cap(self):
        with pytest.raises(CapExceeded):
            max_code_size(11, 1)
        with pytest.raises(CapExceeded):
            max_code_size(11, 2)


# ---------------------------------------------------------------------------
# greedy clique partition
# ---------------------------------------------------------------------------


class TestGreedyPartition:
    def test_2_1_two_parts(self):
        part = greedy_clique_partition(2, 1)
        assert part.size == 2
        assert verify_clique_partition(part)

    def test_budget_zero_singletons(self):
        part = greedy_clique_partition(3, 0)
        assert part.size == 8
        assert all(len(p) == 1 for p in part.parts)
        assert verify_clique_partition(part)

    def test_5_1_close_to_reference(self):
        part = greedy_clique_partition(5, 1)
        assert verify_clique_partition(part)
        assert part.size <= 11  # reference search found 10

    @pytest.mark.parametrize("m,s", [(4, 1), (5, 2), (6, 2), (6, 3)])
    def test_partition_is_valid(self, m, s):
        part = greedy_clique_partition(m, s)
        assert verify_clique_partition(part)

    @pytest.mark.parametrize("m,s", [(4, 1), (5, 1), (6, 2), (6, 3)])
    def test_at_least_doubling_size(self, m, s):
        assert greedy_clique_partition(m, s).size >= 2 ** ((m + 1) // 2)

    @pytest.mark.parametrize("m,s", [(4, 1), (5, 1), (6, 1), (5, 2), (6, 2), (8, 3)])
    def test_at_least_max_code_size(self, m, s):
        # a clique partition needs one part per codeword of any valid code
        assert greedy_clique_partition(m, s).size >= max_code_size(m, s).size

    @pytest.mark.parametrize("m", range(1, 11))
    def test_matches_rescan_reference(self, m):
        for s in range(0, 5):
            part = greedy_clique_partition(m, s)
            assert (part.parts, part.witnesses) == greedy_partition_scan(m, s), s

    def test_builds_no_word(self, built_words):
        part = greedy_clique_partition(10, 2)
        assert verify_clique_partition(part)
        assert built_words == []
        Word(3, 5)  # the probes themselves count
        Word._unchecked(3, [5, 6])
        assert len(built_words) == 3

    def test_deterministic(self):
        a = greedy_clique_partition(6, 1)
        b = greedy_clique_partition(6, 1)
        assert a.parts == b.parts and a.witnesses == b.witnesses

    def test_render_format(self):
        part = greedy_clique_partition(2, 1)
        lines = part.render().splitlines()
        assert len(lines) == part.size
        # shape: "k: y_k : x x x ..."
        assert lines[0] == "1: 00 : 00 01"
        assert lines[1] == "2: 11 : 10 11"

    def test_caps(self):
        with pytest.raises(CapExceeded):
            greedy_clique_partition(17, 1)
        assert verify_clique_partition(greedy_clique_partition(10, 5))
        assert verify_clique_partition(greedy_clique_partition(12, 6))


class TestVerifyPartition:
    def test_invalid_pair_part_rejected(self):
        bad = CliquePartition(2, 1, ((0b00, 0b11), (0b01, 0b10)), (0b00, 0b01))
        assert not verify_clique_partition(bad)

    def test_singleton_partition_accepted(self):
        parts = tuple((v,) for v in range(8))
        part = CliquePartition(3, 1, parts, tuple(range(8)))
        assert verify_clique_partition(part)

    def test_part_without_witness_still_checked(self):
        # witnesses shorter than parts: the unwitnessed non-clique part
        # must still fail the pairwise check
        part = CliquePartition(2, 1, ((0b01,), (0b00, 0b11), (0b10,)), (0b01,))
        assert not verify_clique_partition(part)

    def test_missing_coverage_rejected(self):
        part = CliquePartition(2, 1, ((0b00, 0b01),), (0b00,))
        assert not verify_clique_partition(part)

    def test_member_out_of_range_rejected(self):
        # 0b111 agrees with 0b11 in the low m bits
        for parts in (((0, 1), (2, 3), (4,)), ((0, 1), (2, 0b111))):
            part = CliquePartition(2, 1, parts, (0, 3, 4)[: len(parts)])
            assert not verify_clique_partition(part), parts

    def test_member_repeated_across_parts_rejected(self):
        part = CliquePartition(2, 1, ((0, 1), (1,), (2, 3)), (0, 1, 3))
        assert not verify_clique_partition(part)

    def test_wrong_witness_with_a_common_image_accepted(self):
        # the witnesses are swapped, so no member records its part's
        # witness, but each part's members still share an image
        parts = ((0b00, 0b01), (0b10, 0b11))
        common = [
            frozenset.intersection(*(grain_images(Word(2, v), 1) for v in part))
            for part in parts
        ]
        assert common == [{Word(2, 0b00)}, {Word(2, 0b11)}]
        assert verify_clique_partition(CliquePartition(2, 1, parts, (0b11, 0b00)))

    def test_clique_without_common_witness_accepted(self):
        # a genuine clique whose members share no single image: the
        # verifier must fall back to the pairwise check and accept it
        clique = (0b0001, 0b0010, 0b0011)
        assert not frozenset.intersection(*(grain_images(Word(4, v), 1) for v in clique))
        rest = tuple((v,) for v in range(16) if v not in clique)
        part = CliquePartition(4, 1, (clique,) + rest, ())
        assert verify_clique_partition(part)


class TestPartitionTable:
    def test_shape_follows_m_at_least_2s(self):
        rows = partition_size_table(range(2, 7), range(1, 3))
        cells = {(m, s) for m, s, _ in rows}
        assert (2, 1) in cells and (4, 2) in cells
        assert (3, 2) not in cells

    def test_forced_small_values(self):
        rows = dict(
            ((m, s), parts) for m, s, parts in partition_size_table(range(2, 7), range(1, 4))
        )
        assert rows[(2, 1)] == 2
        assert rows[(4, 2)] == 4
        assert rows[(6, 3)] == 8
