import hashlib
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from grainlab import graph
from grainlab.codes import Code, verify_grain_correcting
from grainlab.config import Caps, caps_override
from grainlab.errors import CapExceeded
from grainlab.graph import (
    CliquePartition,
    _absorb,
    _colour,
    _half_adjacency,
    _max_independent_set,
    _renumber,
    _witness_hits,
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
    masks = np.array([e.mask for e in enumerate_error_vectors(n, t)])
    xs = np.arange(1 << n)[:, None]
    return [set(row) for row in ((xs & ~masks) | ((xs >> 1) & masks)).tolist()]


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


def greedy_partition_argmax(m, s):
    """Reference greedy partition with one arg-max per part: the smallest
    y of largest surviving count gives the next part, and the counts are
    lowered at that part's images before the next arg-max.  The preimage
    sets come from literal_images, not from the support table."""
    images = literal_images(m, s)
    buckets = [[] for _ in images]
    for x, img in enumerate(images):
        for y in img:
            buckets[y].append(x)
    counts = np.array([len(bucket) for bucket in buckets])
    covered = set()
    parts, witnesses = [], []
    while len(covered) < len(images):
        y = int(counts.argmax())
        part = [x for x in buckets[y] if x not in covered]
        covered.update(part)
        np.subtract.at(counts, [z for x in part for z in images[x]], 1)
        parts.append(tuple(part))
        witnesses.append(y)
    return tuple(parts), tuple(witnesses)


def literal_witness_hits(values, target, m, s):
    """Whether each value has its target among its images, applying
    the grain operator literally under every support mask."""
    hit = np.zeros(len(values), dtype=bool)
    for e in enumerate_error_vectors(m, s):
        hit |= ((values & ~e.mask) | ((values >> 1) & e.mask)) == target
    return hit


def verify_partition_all_masks(partition):
    """Reference clique-partition check: coverage, then each part
    accepted when all its members have its witness as an image under
    some support mask, else when they share an image, else when every
    pair does.  It accepts every clique partition, verify_clique_partition
    only the witnessed ones."""
    m, s = partition.m, partition.s
    parts = partition.parts
    if sorted(x for part in parts for x in part) != list(range(1 << m)):
        return False
    images = literal_images(m, s)
    witnesses = list(partition.witnesses) + [-1] * len(parts)
    for part, y in zip(parts, witnesses):
        if all(y in images[x] for x in part):
            continue
        if set.intersection(*(images[x] for x in part)):
            continue
        if not all(images[a] & images[b] for a, b in itertools.combinations(part, 2)):
            return False
    return True


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


# sha256 of repr((parts, witnesses)) of greedy_clique_partition(m, s), its
# first 16 hex digits, recorded before the greedy read the support table
PINNED_PARTITIONS = {
    (1, 0): "78fd52d30833482a",
    (2, 0): "cba65862f3f57ab3",
    (3, 0): "c562616dd92c2ed3",
    (4, 0): "2feab9bed0773e58",
    (5, 0): "42d6b867c6a8b42f",
    (6, 0): "399cec0d1b912c50",
    (7, 0): "ef99c2b1f16852ce",
    (8, 0): "f22f3a01777fd220",
    (9, 0): "c61479a66a336059",
    (10, 0): "c487cfe2fd2ee456",
    (11, 0): "68b3c0838e5dbda9",
    (12, 0): "7fecd7f97cd7ed41",
    (13, 0): "f8a2395937bd8078",
    (14, 0): "1c9768caec145606",
    (1, 1): "78fd52d30833482a",
    (2, 1): "6b6b78a0ab41dd17",
    (3, 1): "10e11c447ec4b85c",
    (4, 1): "03890a474ef38ae7",
    (5, 1): "d1794b8cf199bffd",
    (6, 1): "4b56dd107a29fedf",
    (7, 1): "76311584b2abdf7e",
    (8, 1): "d667752d7907ebd5",
    (9, 1): "062019639895c2ab",
    (10, 1): "387ad9f3fa9199a7",
    (11, 1): "5766999b12bba4be",
    (12, 1): "fc311f06b206da0a",
    (13, 1): "14dce549e6466f04",
    (14, 1): "3d98a754c34f6d57",
    (1, 2): "78fd52d30833482a",
    (2, 2): "6b6b78a0ab41dd17",
    (3, 2): "10e11c447ec4b85c",
    (4, 2): "a7dc7a30a5a6910e",
    (5, 2): "131583dc8ab782c5",
    (6, 2): "42f722b82a35277b",
    (7, 2): "c8ae44da7a3d5d09",
    (8, 2): "aa2d8c0debad89e4",
    (9, 2): "05b8729bf874f3df",
    (10, 2): "4ebc78358f6b8aa0",
    (11, 2): "516724e790d3016f",
    (12, 2): "afa31c84c2ac5411",
    (13, 2): "f1f9d7121e84313a",
    (14, 2): "5333ff49f4115999",
    (1, 3): "78fd52d30833482a",
    (2, 3): "6b6b78a0ab41dd17",
    (3, 3): "10e11c447ec4b85c",
    (4, 3): "a7dc7a30a5a6910e",
    (5, 3): "131583dc8ab782c5",
    (6, 3): "0e5e4ddb30513818",
    (7, 3): "0003d4c54bffdb26",
    (8, 3): "24b2953b3ef1550d",
    (9, 3): "4e92c0bd53e7956e",
    (10, 3): "c773ffdaafeb4e4a",
    (11, 3): "f738afd31eda2404",
    (12, 3): "e6dd59e509e594e7",
    (13, 3): "d4e251e07998d0a0",
    (14, 3): "2aec524869b2d27b",
    (1, 4): "78fd52d30833482a",
    (2, 4): "6b6b78a0ab41dd17",
    (3, 4): "10e11c447ec4b85c",
    (4, 4): "a7dc7a30a5a6910e",
    (5, 4): "131583dc8ab782c5",
    (6, 4): "0e5e4ddb30513818",
    (7, 4): "0003d4c54bffdb26",
    (8, 4): "a6cc51691e2eac96",
    (9, 4): "29c74d8b54d0c83a",
    (10, 4): "06f22a694367de75",
    (11, 4): "edc9f8f1f6002493",
    (12, 4): "28568193b8b30d63",
    (13, 4): "c5bcedb74bd80752",
    (14, 4): "8e9ea2fdb598c617",
}

# (nodes, absorbed) of max_code_size(n, t)
PINNED_SEARCH_COUNTERS = {
    (7, 1): (78, 56),
    (8, 1): (3328, 4571),
    (8, 2): (34, 6),
    (9, 2): (184, 124),
}


def edges_kernel(n, t):
    """Edges of the half adjacency the exact search builds, over the
    whole space: the half of first bit 1 mirrors it by complement."""
    top = 1 << (n - 1)
    flip = (1 << n) - 1
    edges = set()
    for x, adj in enumerate(_half_adjacency(n, t)):
        for o in range(x + 1, top):
            if (adj >> o) & 1:
                edges.add((Word(n, x), Word(n, o)))
                edges.add((Word(n, o ^ flip), Word(n, x ^ flip)))
    return edges


# ---------------------------------------------------------------------------
# graph construction
# ---------------------------------------------------------------------------


class TestBuildGraph:
    """The edge relation the exact search builds from the support table
    (_half_adjacency), over the whole space."""

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
        assert _half_adjacency(3, 1)[w.value].bit_count() == expected


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
        # (8, 1) took 13 548 nodes without absorption
        for (n, t), counters in PINNED_SEARCH_COUNTERS.items():
            result = max_code_size(n, t)
            assert (result.nodes, result.absorbed) == counters, (n, t)
        # t = 0 has no edges: the seed takes every word and one node proves it
        assert (max_code_size(5, 0).nodes, max_code_size(5, 0).absorbed) == (1, 0)

    def test_no_edges_keep_every_word(self):
        # at t = 0, or n = 1, the half graph has no edges; the one search
        # path keeps every word, exact
        for n, t in [(n, 0) for n in range(1, 11)] + [(1, t) for t in range(1, 5)]:
            result = max_code_size(n, t)
            assert (result.size, result.exact) == (1 << n, True), (n, t)
            assert [w.value for w in result.words] == list(range(1 << n)), (n, t)

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
        for a, b in itertools.combinations(result.words, 2):
            assert not confusable(a, b, 1)

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

    @pytest.mark.parametrize("m", range(1, 13))
    def test_matches_argmax_per_part(self, m):
        for s in range(0, 5):
            part = greedy_clique_partition(m, s)
            assert (part.parts, part.witnesses) == greedy_partition_argmax(m, s), s

    @staticmethod
    def traced_peak(m, s):
        tracemalloc.start()
        try:
            greedy_clique_partition(m, s)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_traced_peak_at_13_4(self):
        # the support table is 357 KB and a gather block 2^13 entries;
        # one arg-max per part peaked at about 1.7 MB, and the kernel
        # that tested every mask at 1.07 MB
        assert self.traced_peak(13, 4) < 1.5e6

    def test_traced_peak_at_16_4(self):
        # the table is 6.42 MB and the parts' ints about 2.6 MB; the
        # kernel that tested every mask peaked at 3.75 MB and took three
        # times as long
        assert self.traced_peak(16, 4) < 11e6

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

    def test_partitions_pinned(self):
        for (m, s), digest in PINNED_PARTITIONS.items():
            part = greedy_clique_partition(m, s)
            got = hashlib.sha256(repr((part.parts, part.witnesses)).encode()).hexdigest()
            assert got[:16] == digest, (m, s)

    def test_cap_comes_before_the_table(self, monkeypatch):
        def unsized(m, s):
            raise AssertionError("support table sized past the cap")

        monkeypatch.setattr(graph, "support_table", unsized)
        with pytest.raises(CapExceeded):
            greedy_clique_partition(17, 1)

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
        # must not pass
        part = CliquePartition(2, 1, ((0b01,), (0b00, 0b11), (0b10,)), (0b01,))
        assert not verify_clique_partition(part)

    def test_one_witness_more_than_parts_rejected(self):
        parts = tuple((v,) for v in range(8))
        part = CliquePartition(3, 1, parts, tuple(range(8)) + (0,))
        assert not verify_clique_partition(part)

    @pytest.mark.parametrize("witnesses", [(0.0, 3), (0, "3"), ((0, 1), (2, 3))])
    def test_non_integer_witness_rejected(self, witnesses):
        # as a non-integer member is: False, not a TypeError from the XOR
        part = CliquePartition(2, 1, ((0, 1), (2, 3)), witnesses)
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

    def test_wrong_witness_with_a_common_image_rejected(self):
        # the witnesses are swapped, so no member records its part's
        # witness, though each part's members still share an image
        parts = ((0b00, 0b01), (0b10, 0b11))
        common = [
            frozenset.intersection(*(grain_images(Word(2, v), 1) for v in part))
            for part in parts
        ]
        assert common == [{Word(2, 0b00)}, {Word(2, 0b11)}]
        part = CliquePartition(2, 1, parts, (0b11, 0b00))
        assert verify_partition_all_masks(part)
        assert not verify_clique_partition(part)

    def test_partition_without_witnesses_rejected(self):
        # a genuine clique whose members share no single image: no
        # witness can name it, so it is no star part
        clique = (0b0001, 0b0010, 0b0011)
        assert not frozenset.intersection(*(grain_images(Word(4, v), 1) for v in clique))
        rest = tuple((v,) for v in range(16) if v not in clique)
        part = CliquePartition(4, 1, (clique,) + rest, ())
        assert verify_partition_all_masks(part)
        assert not verify_clique_partition(part)

    @pytest.mark.parametrize("m", range(1, 11))
    def test_one_mask_hits_match_all_masks(self, m):
        rng = np.random.default_rng(m)
        xs = np.arange(1 << m, dtype=np.int64)
        for s in range(0, 5):
            part = greedy_clique_partition(m, s)
            witness_of = {x: y for members, y in zip(part.parts, part.witnesses) for x in members}
            near = np.array([e.mask for e in enumerate_error_vectors(m, s + 2)])
            targets = [
                np.array([witness_of[x] for x in range(1 << m)]),
                xs ^ rng.integers(0, 1 << m, size=xs.size),  # any mask, position 1 too
                xs ^ near[rng.integers(0, near.size, size=xs.size)],  # up to weight s + 2
                np.full(xs.size, -1),
                np.full(xs.size, 1 << m),
            ]
            if m <= 6:
                targets += [np.full(xs.size, y) for y in range(1 << m)]
            for target in targets:
                have = _witness_hits(xs, target, m, s)
                assert (have == literal_witness_hits(xs, target, m, s)).all(), (s, target)

    @pytest.mark.parametrize(
        "m,s,pair,witness,clique",
        [
            # position 1: 100 -> 000 literally, but the first bit survives every grain
            (3, 1, (0b000, 0b100), 0b000, False),
            # adjacent positions 5, 6: 000010 -> 000001 literally, and 010101
            # has the image 000001, but the two members share no image
            (6, 2, (0b000010, 0b010101), 0b000001, False),
            # adjacent positions 3, 4: 0101 -> 0110 literally; both have the
            # image 0111, so the pair is a clique, but not through its witness
            (4, 2, (0b0101, 0b0110), 0b0110, True),
            # weight s + 1: 0101 -> 0000 needs positions 2 and 4
            (4, 1, (0b0000, 0b0101), 0b0000, False),
            (6, 2, (0b000000, 0b010101), 0b000000, False),
        ],
        ids=["position-1", "adjacent", "adjacent-common-image", "weight-2-at-1", "weight-3-at-2"],
    )
    def test_witness_off_by_a_non_support(self, m, s, pair, witness, clique):
        rest = [v for v in range(1 << m) if v not in pair]
        part = CliquePartition(
            m, s, (pair,) + tuple((v,) for v in rest), (witness,) + tuple(rest)
        )
        assert verify_partition_all_masks(part) is clique
        assert verify_clique_partition(part) is False


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
