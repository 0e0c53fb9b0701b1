"""Exact maximum code sizes and clique partitions of the confusability graph.

The confusability graph on {0,1}^n joins two distinct words iff they are
t-confusable.  The largest t-grain-correcting code is exactly a maximum
independent set of this graph.  Clique partitions of the graph yield the
cardinality upper bounds evaluated in grainlab.bounds.

The graph is never built as an object: images and preimage cliques B(y)
are gathered from grainlab.model.support_table, built per (m, s) behind
the one check of the grain budget (integers, 1 <= n <= 63, t >= 0): the
greedy partition has no (m, s) check of its own.  The exact search
holds adjacency bitmasks of one half-space, the greedy partition an
int32 count array of |B(y)| over the uncovered words, and a
CliquePartition the packed word values themselves.  Only the witness
code of max_code_size carries Words.

The greedy partition takes its parts one count level at a time: all
words y of the largest count are scanned in ascending order, and a few
vectorised calls per level replace an arg-max per part, with the same
parts.  A part is certified only through its witness y, the image all
its members share: the certificate does not read the table, but
checks each member against y under the one mask that can map it
there, the XOR of the two, in one vectorised pass.

The exact search is one path for every (n, t), t = 0 and n = 1
included: a maximum-clique branch and bound on the complement of the
half graph.  Bit-parallel greedy colouring at every node (BBMC,
San Segundo et al., Computers & OR 2011) bounds the set size by the
number of colour classes, and the Re-NUMBER step of MCS (Tomita et al.,
WALCOM 2010) moves vertices into the classes that are never expanded.
A vertex Re-NUMBER cannot place is absorbed when unit propagation over
those classes proves that no clique takes it together with one vertex
from each of some classes not yet used, the MaxSAT-style bound of Li &
Quan (AAAI 2010) and San Segundo, Nikolaev & Batsyn (Computers & OR
2015); _max_independent_set proves the bound.  On a shared 2-CPU VM it
proves n <= 8 (t = 1, 2) in under half a second and n = 9, 10 at
t = 2..4 in at most about 10 s, (10, 2) being the slowest; (9, 1) runs
into the exact_m_time_limit budget and returns a lower bound flagged
exact=False.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .config import check_cap, get_caps
from .errors import PreconditionError, _integer
from .model import Word, _apply_mask, support_table


# ---------------------------------------------------------------------------
# exact maximum code size (maximum independent set)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MaxCodeResult:
    n: int
    t: int
    size: int
    words: tuple[Word, ...]
    exact: bool  # False when the search hit its time limit
    nodes: int  # branch-and-bound nodes expanded
    absorbed: int  # vertices absorbed by unit propagation, summed over nodes


def _half_adjacency(n: int, t: int) -> list[int]:
    """Adjacency bitmasks of the subgraph on words with first bit 0.

    The first bit survives every grain pattern, so there are no edges
    between the two half-spaces, and complementing every bit is an
    isomorphism between the halves.  Solving one half therefore solves
    the whole graph.  Two gathers from the support table mark the
    members of the cliques B(y) of the images y of each word.
    """
    half = 1 << (n - 1)
    table = support_table(n, t)
    xs = np.arange(half)
    adj = np.zeros((half, half), dtype=bool)
    for owner, images in table.gather(xs):
        for inner, members in table.gather(images, cliques=True):
            adj[owner[inner], members] = True
    adj[xs, xs] = False
    return [int.from_bytes(row, "little") for row in np.packbits(adj, axis=1, bitorder="little")]


def _renumber(v: int, cadj: list[int], classes: list[int]) -> bool:
    """Move v into one of the colour classes (all of them below the
    branching threshold), as the Re-NUMBER step of MCS: into a class it
    has no conflict with, or else into a class k1 where it conflicts
    with exactly one vertex w that can move to a later class k2 free of
    w's conflicts.  Returns whether v was placed."""
    bit = 1 << v
    conflicts = cadj[v]
    for k, cls in enumerate(classes):
        if not conflicts & cls:
            classes[k] = cls | bit
            return True
    for k1 in range(len(classes) - 1):
        w = conflicts & classes[k1]
        if w & (w - 1):
            continue
        w_conflicts = cadj[w.bit_length() - 1]
        for k2 in range(k1 + 1, len(classes)):
            if not w_conflicts & classes[k2]:
                classes[k2] |= w
                classes[k1] ^= w | bit
                return True
    return False


def _absorb(v: int, cadj: list[int], classes: list[int], used: list[bool]) -> bool:
    """Unit propagation from v over the colour classes not yet used.

    Each class is cut to v's complement neighbours.  A class cut to one
    vertex u is a unit: a clique of the complement that takes v and
    meets the class takes u, so u's neighbours cut the other classes in
    turn, lowest unit class first.  When a cut leaves a class empty, no
    clique takes v and one vertex from each unit class propagated and
    from the emptied class: these are marked used and True is returned.
    Otherwise nothing is marked.  classes is only read.
    """
    reach = cadj[v]
    units: list[tuple[int, int]] = []  # (class, its one vertex), not yet propagated
    wide = []  # classes cut to two or more vertices
    for k, cls in enumerate(classes):
        if used[k]:
            continue
        cut = cls & reach
        if not cut:
            used[k] = True
            return True
        if cut & (cut - 1):
            wide.append(k)
        else:
            units.append((k, cut))
    done = []  # classes of the units propagated
    while units:
        k, bit = unit = min(units)
        units.remove(unit)
        done.append(k)
        reach &= cadj[bit.bit_length() - 1]
        empty = [j for j, u in units if not u & reach]
        if not empty:
            still = []
            for j in wide:
                cut = classes[j] & reach
                if not cut:
                    empty.append(j)
                    break
                if cut & (cut - 1):
                    still.append(j)
                else:
                    units.append((j, cut))
            wide = still
        if empty:
            for j in done + empty[:1]:
                used[j] = True
            return True
    return False


def _colour(
    candidates: int, below: int, radj: list[int], cadj: list[int]
) -> tuple[list[tuple[int, int]], int]:
    """One node's bound, as _max_independent_set states and proves it:
    up to below colour classes, then Re-NUMBER, then absorption, then
    the branch vertices coloured from below + 1 up.

    Returns the branch vertices as (bit, colour) in colouring order and
    the number of vertices absorbed.  A clique of the complement within
    candidates minus the branch vertices after entry i has at most
    colour_i vertices; without any branch vertex, at most below.
    """
    classes: list[int] = []
    pool = candidates
    while pool and len(classes) < below:
        rest, cls = pool, 0
        while rest:
            low = rest & -rest
            cls |= low
            rest &= radj[low.bit_length() - 1]
        classes.append(cls)
        pool ^= cls
    rest = pool
    while rest:
        low = rest & -rest
        rest ^= low
        if _renumber(low.bit_length() - 1, cadj, classes):
            pool ^= low
    used = [False] * len(classes)
    absorbed = 0
    rest = pool
    while rest:
        low = rest & -rest
        rest ^= low
        if _absorb(low.bit_length() - 1, cadj, classes, used):
            pool ^= low
            absorbed += 1
    # colour the rest from kmin = below + 1 up; branch on them
    branch: list[tuple[int, int]] = []
    colour = below
    while pool:
        colour += 1
        rest = pool
        while rest:
            low = rest & -rest
            branch.append((low, colour))
            pool ^= low
            rest &= radj[low.bit_length() - 1]
    return branch, absorbed


def _max_independent_set(
    adj: list[int], deadline: float | None
) -> tuple[int, int, bool, int, int]:
    """Branch and bound via maximum clique in the complement graph.

    Vertices are relabelled once so that bit i is the i-th vertex by
    descending complement degree.  The seed, the first best set, is the
    greedy one that sweeps the labels up.  Each node colours its candidates
    bit-parallel, as BBMC (San Segundo et al., Computers & OR 2011):
    class k takes the lowest uncoloured vertex, drops it and its
    complement neighbours from the pool, and repeats, one big-int
    operation per vertex.  Colour classes are independent in the
    complement, hence cliques of the original graph, so the number of
    classes bounds the set size.  With kmin = best - size + 1, the
    classes below kmin are never expanded (MCQ); a vertex that would
    open a class >= kmin is first re-numbered into a lower class, as
    the Re-NUMBER step of MCS (Tomita et al., WALCOM 2010), which
    about halves the node count.

    A vertex that Re-NUMBER cannot place is then offered to _absorb,
    the MaxSAT-style step of Li & Quan (AAAI 2010), as San Segundo,
    Nikolaev & Batsyn (Computers & OR 2015) run it over colour classes.
    If unit propagation from v finds classes T(v), none used before,
    such that no clique of the complement takes v and one vertex from
    each class of T(v), v is absorbed: it is not branched on.  The
    bound still holds.  Group v with T(v); a clique takes at most one
    vertex from each class, and if it takes v it misses some class of
    T(v), so it takes at most |T(v)| from the |T(v)| + 1 sets of the
    group.  The groups are disjoint, so a clique within the classes
    and the absorbed vertices has at most as many vertices as there
    are classes, at most best - size.  Absorption runs after every
    Re-NUMBER move of the node: a later move that adds a vertex to a
    class of T(v), or swaps one out of it, can undo the proof.  It
    drops three quarters of the nodes at (8, 1): 13 548 -> 3328.

    The vertices left over are coloured from kmin up and branched on,
    highest colour first: a clique within the classes, the absorbed
    vertices and the branch vertices of colour <= c has at most c
    vertices.

    Returns (size, mask, exact, nodes, absorbed) with the mask in the
    original labels; exact is False when the deadline stopped the
    search, and the seed (or a better set found) is then only a lower
    bound.  nodes counts the nodes expanded and absorbed the vertices
    absorbed over all of them.  Deterministic.
    """
    nv = len(adj)
    full = (1 << nv) - 1
    order = sorted(range(nv), key=lambda v: adj[v].bit_count())
    label = [0] * nv
    for i, v in enumerate(order):
        label[v] = i

    def relabel(mask: int, to: list[int]) -> int:
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << to[low.bit_length() - 1]
            mask ^= low
        return out

    radj = [relabel(adj[v], label) for v in order]
    cadj = [full & ~radj[i] & ~(1 << i) for i in range(nv)]
    seed, free = 0, full
    while free:
        low = free & -free
        seed |= low
        free &= cadj[low.bit_length() - 1]
    best = [seed.bit_count(), seed]
    timed_out = [False]
    counts = [0, 0]  # nodes, absorbed vertices

    def expand(size: int, chosen: int, candidates: int) -> None:
        counts[0] += 1
        if deadline is not None and time.monotonic() > deadline:
            timed_out[0] = True
            return
        branch, absorbed = _colour(candidates, best[0] - size, radj, cadj)
        counts[1] += absorbed
        for bit, colour in reversed(branch):
            if size + colour <= best[0]:
                return
            if size + 1 > best[0]:
                best[0] = size + 1
                best[1] = chosen | bit
            rest = candidates & cadj[bit.bit_length() - 1]
            if rest:
                expand(size + 1, chosen | bit, rest)
                if timed_out[0]:
                    return
            candidates ^= bit

    expand(0, 0, full)
    return best[0], relabel(best[1], order), not timed_out[0], counts[0], counts[1]


def max_code_size(n: int, t: int) -> MaxCodeResult:
    """Exact largest size of a length-n code correcting t grain errors,
    with a witness code attaining it.

    The search runs on the first-bit-0 half only: the halves are
    disconnected (the first bit survives every pattern) and complement
    equivariance makes them isomorphic, so the optimum is twice the
    half optimum and the witness mirrors by complementation.  The search
    stops after the exact_m_time_limit cap (seconds, 0 for no limit);
    the result is then flagged exact=False and is only a lower bound.
    There is one path: at t = 0 or n = 1 the half graph has no edges,
    the greedy seed takes every word and the root node proves it.  n
    and t are checked here because the half is sized by 1 << (n - 1)
    before any mask is read; model's mask builder checks them again.
    """
    check_cap("n", n, "exact_m_n")
    if not (_integer(n) and _integer(t)) or n < 1 or t < 0:
        raise PreconditionError("need integers n >= 1 and t >= 0")
    adj = _half_adjacency(n, t)
    limit = get_caps().exact_m_time_limit
    deadline = time.monotonic() + limit if limit else None
    half_size, half_mask, exact, nodes, absorbed = _max_independent_set(adj, deadline)
    half = [v for v in range(len(adj)) if (half_mask >> v) & 1]
    top = 1 << (n - 1)
    # the complement words, ascending after the half's: v ^ (top - 1) falls as v rises
    values = half + [(v ^ (top - 1)) | top for v in reversed(half)]
    words = tuple(Word._unchecked(n, values))
    return MaxCodeResult(n, t, 2 * half_size, words, exact, nodes, absorbed)


# ---------------------------------------------------------------------------
# greedy clique partition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliquePartition:
    """Ordered partition of {0,1}^m into cliques of the confusability
    graph, each part generated as the surviving preimage set of its
    witness word: witnesses[k] is an image of every member of parts[k],
    one witness per part.  Members and witnesses are packed word
    values."""

    m: int
    s: int
    parts: tuple[tuple[int, ...], ...]
    witnesses: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.parts)

    def render(self) -> str:
        spec = f"0{self.m}b"
        lines = []
        for k, (y, part) in enumerate(zip(self.witnesses, self.parts), start=1):
            members = " ".join(format(x, spec) for x in part)
            lines.append(f"{k}: {format(y, spec)} : {members}")
        return "\n".join(lines)


def greedy_clique_partition(m: int, s: int) -> CliquePartition:
    """Cover {0,1}^m by preimage sets, largest-first.

    Repeatedly pick the word y whose surviving preimage set B(y) is
    largest (ties: numerically smallest y, which is the lexicographically
    smallest word), take that set as the next part, and delete its
    members from every other B.  Every part is a clique because all its
    members share the image y.  The part count upper-bounds the minimum
    clique-partition size.

    counts[y] holds |B(y)| over the uncovered words.  The picks are made
    one count level at a time.  With c the largest count and ys the words
    of count c, ascending, the surviving members of each y in ys form a
    row; y is picked iff no member of its row was taken by an earlier
    pick of the level.  After the level the taken words are deleted and
    counts is lowered at each of their images, so a level costs a few
    vectorised calls and a set test per row, not an arg-max per part.

    This picks what an arg-max per part would pick.  Counts never rise,
    since deleting words only lowers them.  So while the largest count is
    c, it is the count of some y in ys, and a y in ys still counts c iff
    none of the members it had at the level's start is gone, that is,
    iff its row misses every part taken since.  The arg-max after a pick
    in ys is therefore the smallest y above it whose row misses every
    pick made since the level began: a y scanned earlier was either
    picked (its count is then 0) or lost a member, and never gets back
    to c.  When no row is left, the largest count is below c and the
    next level begins.  The loop ends when the largest count is 0: every
    uncovered word is its own image under the empty mask, so it counts
    in its own B, and the largest count is 0 exactly when every word is
    covered.  The counts, the rows and the images of the words taken
    come from model.support_table, a bounded block at a time.  The
    budget has no check here: support_table raises PreconditionError for
    a bad (m, s) before it allocates anything.
    """
    check_cap("m", m, "partition_m")
    table = support_table(m, s)
    counts = table.lengths(np.arange(1 << m), cliques=True).astype(np.int32)
    alive = np.ones(1 << m, dtype=bool)
    parts: list[tuple[int, ...]] = []
    witnesses: list[int] = []
    while (c := counts.max()) > 0:
        ys = np.flatnonzero(counts == c)
        rows = [members[alive[members]] for _, members in table.gather(ys, cliques=True)]
        rows = np.concatenate(rows).reshape(ys.size, c)
        rows.sort(axis=1)
        taken: set[int] = set()
        step = max(1, 4096 // c)  # rows made Python ints at once, not a whole level
        for lo in range(0, ys.size, step):
            for y, row in zip(ys[lo : lo + step].tolist(), rows[lo : lo + step].tolist()):
                if taken.isdisjoint(row):
                    taken.update(row)
                    parts.append(tuple(row))
                    witnesses.append(y)
        gone = np.fromiter(taken, dtype=np.int64, count=len(taken))
        alive[gone] = False
        for _, images in table.gather(gone):
            # an int32 1, like counts: a Python int sends ufunc.at down its slow path
            np.subtract.at(counts, images, np.int32(1))
    return CliquePartition(m, s, tuple(parts), tuple(witnesses))


def _witness_hits(values: np.ndarray, target: np.ndarray, m: int, s: int) -> np.ndarray:
    """Whether each member value x has the target y among its images
    under at most s grains, applying the grain operator literally under
    the one mask M = x ^ y.

    M is accepted iff it is a grain support of weight <= s (no bit at
    position 1, no two adjacent bits, at most s bits by
    np.bitwise_count) and _apply_mask(x, M) == y.
    Sound: an accepted M is a valid mask that maps x to y.  Complete:
    let a support M' map x to y.  Bit j of _apply_mask(x, M') is x_{j-1}
    for j in M' and x_j elsewhere, so it differs from x_j iff j lies in
    M' and in d(x) = x ^ (x >> 1): y = x ^ (M' & d(x)).  Then
    M = x ^ y = M' & d(x) is a subset of a support, hence a support of
    weight <= s, and M & d(x) = M, so _apply_mask(x, M) = y.

    A negative or out-of-range target gives an M that fails the
    position-1 test.  Neither the masks nor the closed-form kernel are
    read.
    """
    mask = values ^ target
    hit = (mask >> (m - 1) == 0) & (mask & (mask >> 1) == 0)
    return hit & (np.bitwise_count(mask) <= s) & (_apply_mask(values, mask) == target)


def verify_clique_partition(partition: CliquePartition) -> bool:
    """Certificate check: the parts cover {0,1}^m once each, there is
    one witness per part, and every member has its part's witness among
    its images under at most s grains.

    Members sharing an image are pairwise confusable, so every part is
    then a clique.  The check does not trust the closed-form kernel:
    _witness_hits applies the grain operator literally, under the one
    mask that can map a member to its witness, for all members in one
    vectorised pass.  It is sound and complete for partitions into
    witnessed star parts, parts inside B(y) for their witness y, as
    greedy_clique_partition builds them, and it rejects everything
    else: a missing or extra witness, or a part whose members do not
    all record its witness, even when the part is a clique.
    """
    m, s = partition.m, partition.s
    if not (_integer(m) and _integer(s)) or m < 1 or s < 0:
        raise PreconditionError("need integers m >= 1 and s >= 0")
    parts = partition.parts
    values = np.array(list(itertools.chain.from_iterable(parts)))
    if values.dtype.kind != "i" or values.size != 1 << m:
        return False
    if not np.array_equal(np.sort(values), np.arange(values.size)):
        return False
    witnesses = np.asarray(partition.witnesses)
    if witnesses.dtype.kind != "i" or witnesses.shape != (len(parts),):
        return False
    target = np.repeat(witnesses, [len(part) for part in parts])
    return bool(_witness_hits(values, target, m, s).all())


def table_partitions(
    m_values: tuple[int, ...] | range, s_values: tuple[int, ...] | range
) -> Iterator[CliquePartition]:
    """Greedy partitions of every requested (m, s) with s >= 1 and
    m >= 2s, s-major, built one at a time.

    The admissibility condition m >= 2s mirrors the shape of the
    published search table.
    """
    for s in s_values:
        for m in m_values:
            if s >= 1 and m >= 2 * s:
                yield greedy_clique_partition(m, s)


def partition_size_table(
    m_values: tuple[int, ...] | range, s_values: tuple[int, ...] | range
) -> list[tuple[int, int, int]]:
    """Rows (m, s, parts) of the greedy partitions of table_partitions."""
    return [(p.m, p.s, p.size) for p in table_partitions(m_values, s_values)]
