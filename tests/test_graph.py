import itertools
import random

import pytest

from grainlab.codes import Code, verify_grain_correcting
from grainlab.config import Caps, caps_override
from grainlab.errors import CapExceeded
from grainlab.graph import (
    CliquePartition,
    _greedy_independent,
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
        for _ in range(60):
            nv = rng.randint(1, 18)
            adj = random_adjacency(rng, nv, rng.choice([0.1, 0.3, 0.5, 0.8]))
            size, mask, exact = _max_independent_set(adj, *_greedy_independent(adj), None)
            assert exact and size == mask.bit_count() == mis_plain(adj, (1 << nv) - 1)
            assert not any(adj[v] & mask for v in range(nv) if (mask >> v) & 1)

    def test_renumber_keeps_classes_conflict_free(self):
        rng = random.Random(5)
        outcomes = set()
        for _ in range(300):
            nv = rng.randint(3, 14)
            cadj = random_adjacency(rng, nv, 0.5)
            v = nv - 1
            classes = []
            for u in range(v):  # sequential greedy colouring of the others
                for k, c in enumerate(classes):
                    if not cadj[u] & c:
                        classes[k] = c | 1 << u
                        break
                else:
                    classes.append(1 << u)
            first_fit = any(not cadj[v] & c for c in classes)
            placed = _renumber(v, cadj, classes)
            outcomes.add((first_fit, placed))
            members = [u for c in classes for u in range(nv) if (c >> u) & 1]
            assert sorted(members) == list(range(v + placed))
            for c in classes:
                assert not any(cadj[u] & c for u in range(nv) if (c >> u) & 1)
        assert outcomes == {(True, True), (False, True), (False, False)}

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

    def test_builds_no_word(self, monkeypatch):
        built = []
        post_init = Word.__post_init__

        def counting(word):
            built.append(word)
            post_init(word)

        monkeypatch.setattr(Word, "__post_init__", counting)
        part = greedy_clique_partition(10, 2)
        assert verify_clique_partition(part)
        assert built == []
        Word(3, 5)  # the probe itself counts
        assert len(built) == 1

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
