"""Combinatorial model of a 1-D granular medium with grains of length <= 2.

A word is written left to right into n bit cells.  A grain spanning
cells (j, j+1) takes the polarity of the first bit written into it, so
the recorded value at cell j+1 becomes a copy of the value at cell j.
Grains of length 1 never corrupt anything, and length-2 grains cannot
overlap, so the entire effect of a medium is captured by the set of
second cells of its length-2 grains: an *error vector* with no 1 in
position 1 and no two adjacent 1s.  The channel's indicators are the
error vectors of x0 x_1..x_n, so it reads these masks and operator.

Everything here is pure and deterministic.  Words pack their bits into
a Python int (leftmost bit = most significant) so the grain operator is
a couple of mask operations.  One-word queries run on Python ints and
import no numpy: grain_image_list and enumerate_error_vectors walk the
grain supports inside a bit mask, and confusable reads the runs of
x1 ^ x2.  Bulk work vectorises the closed form of the images on numpy,
imported when first called: the graph layer gathers from
support_table, the code verifiers call image_values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator

from .config import check_cap
from .errors import PreconditionError, _integer

if TYPE_CHECKING:
    import numpy as np

#: word-length ceilings, whatever the caps say: a Word's bit conversions
#: take time linear in its length; the kernels and a Code pack into int64
WORD_LEN_MAX = 1_000_000
KERNEL_BITS = 63
#: words x support masks per kernel call of in_blocks, which passes
#: max(1, KERNEL_BLOCK // |S|) words at a time.  Unblocked, the
#: (words x masks) temporaries would set the peak memory; and past 2^15
#: entries (256 KiB of int64) they ran slower: greedy_clique_partition(16, 4)
#: took 0.4-0.6 s with 4 * 2^16 entries and 0.26 s with 2^15 on a shared
#: 2-CPU VM.  support_table and SupportTable.gather size their blocks from it
KERNEL_BLOCK = 1 << 15


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True, slots=True)
class Word:
    """A binary word of length n; position 1 is the leftmost bit."""

    n: int
    value: int

    def __post_init__(self):
        if not (_integer(self.n) and _integer(self.value)):
            raise PreconditionError(f"word fields {self.n!r}, {self.value!r} are not integers")
        if not 1 <= self.n <= WORD_LEN_MAX:
            raise PreconditionError(f"word length {self.n} outside 1..{WORD_LEN_MAX}")
        if not 0 <= self.value < (1 << self.n):
            raise PreconditionError(f"value {self.value} does not fit in {self.n} bits")
        if type(self.n) is not int or type(self.value) is not int:
            # a numpy int lacks int.bit_length, which the walk reads
            object.__setattr__(self, "n", int(self.n))
            object.__setattr__(self, "value", int(self.value))

    @classmethod
    def _unchecked(cls, n: int, values: Iterable[int]) -> list["Word"]:
        """Words of length n for values a kernel already keeps in
        0 .. 2^n - 1, with n checked by their source: built without
        __post_init__'s range checks."""
        new, set_n, set_value = object.__new__, cls.n.__set__, cls.value.__set__
        words = []
        for value in values:
            word = new(cls)
            set_n(word, n)
            set_value(word, value)
            words.append(word)
        return words

    @classmethod
    def parse(cls, text: str) -> "Word":
        text = text.strip()
        if not text or any(c not in "01" for c in text):
            raise PreconditionError(f"not a 0/1 string: {text!r}")
        return cls(len(text), int(text, 2))

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "Word":
        text = "".join("01"[b & 1] for b in bits)
        return cls(len(text), int(text or "0", 2))

    @classmethod
    def from_array(cls, bits: np.ndarray) -> "Word":
        """The word of a 0/1 array (nonzero counts as 1), packed by numpy."""
        import numpy as np

        packed = int.from_bytes(np.packbits(bits).tobytes(), "big")
        return cls(len(bits), packed >> (-len(bits) % 8))

    def bit(self, i: int) -> int:
        """Bit at 1-indexed position i (1 = leftmost)."""
        if not 1 <= i <= self.n:
            raise PreconditionError(f"position {i} outside 1..{self.n}")
        return (self.value >> (self.n - i)) & 1

    def bits(self) -> tuple[int, ...]:
        return tuple(map(int, self.render()))

    def render(self) -> str:
        return format(self.value, f"0{self.n}b")

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True, order=True)
class ErrorVector:
    """Support = second cells of the length-2 grains of some medium.

    Invariants: support is a sorted tuple within 2..n, position 1 is
    never in the support, and no two support indices are adjacent.
    """

    n: int
    support: tuple[int, ...]

    def __post_init__(self):
        if not _integer(self.n) or self.n < 1:
            raise PreconditionError("length must be a positive integer")
        prev = -2
        for j in self.support:
            if not _integer(j) or not 2 <= j <= self.n:
                raise PreconditionError(f"support index {j!r} is not an integer in 2..{self.n}")
            if j <= prev:
                raise PreconditionError("support must be strictly increasing")
            if j == prev + 1:
                raise PreconditionError(f"adjacent support indices {prev},{j}")
            prev = j

    @property
    def weight(self) -> int:
        return len(self.support)

    @property
    def mask(self) -> int:
        """Bit mask in Word packing (bit for position j sits at n-j)."""
        m = 0
        for j in self.support:
            m |= 1 << (self.n - j)
        return m

    @classmethod
    def parse(cls, text: str) -> "ErrorVector":
        """Parse the 'n:j1,j2,...' serialization."""
        head, sep, tail = text.strip().partition(":")
        if not sep:
            raise PreconditionError(f"missing ':' in error vector {text!r}")
        try:
            n = int(head)
            support = tuple(int(t) for t in tail.split(",") if t.strip())
        except ValueError as exc:
            raise PreconditionError(f"malformed error vector {text!r}") from exc
        return cls(n, support)

    def render(self) -> str:
        return f"{self.n}:" + ",".join(str(j) for j in self.support)

    def __str__(self) -> str:
        return self.render()


# ---------------------------------------------------------------------------
# the grain operator
# ---------------------------------------------------------------------------


def _apply_mask(value: int, mask: int) -> int:
    # position j copies position j-1, which sits one bit higher
    return (value & ~mask) | ((value >> 1) & mask)


def apply_grains(x: Word, e: ErrorVector) -> Word:
    """Record x on a medium whose length-2 grains are described by e.

    Every position in e's support is overwritten by its left neighbour;
    all other positions are untouched.  Applying the same pattern twice
    is idempotent, and position 1 is never altered.
    """
    if e.n != x.n:
        raise PreconditionError(f"length mismatch: word {x.n}, error vector {e.n}")
    return Word(x.n, _apply_mask(x.value, e.mask))


# ---------------------------------------------------------------------------
# enumeration of error vectors
# ---------------------------------------------------------------------------


def _supports_inside(d: int, t: int, base: int = 0) -> list[int]:
    """base ^ M for the grain supports M of weight <= t inside the bit
    mask d (Word packing, position 1 clear), in support-lex order, which
    is _error_masks' order: the empty support, then for each position j
    of d from the left, {j} and then {j} u S for each nonempty S of
    weight < t inside the part of d right of j + 1, in this same order.
    Picking j drops its right neighbour j + 1 (one bit lower), so no two
    picked positions are adjacent.  With base = 0 these are the supports
    themselves; with base = x and d = d(x), the images of x."""
    out = [base]

    def walk(base: int, rest: int, budget: int) -> None:
        while rest:
            top = 1 << (rest.bit_length() - 1)
            rest ^= top
            mask = base ^ top
            out.append(mask)
            if budget > 1:
                walk(mask, rest & ~(top >> 1), budget - 1)

    if t:
        walk(base, d, t)
    return out


def enumerate_error_vectors(n: int, t: int) -> list[ErrorVector]:
    """All error vectors of length n, weight <= t, support-lex order:
    the grain supports inside positions 2..n."""
    _check_image_cap(n)
    _check_budget(t)
    return [
        ErrorVector(n, tuple(j for j in range(2, n + 1) if mask >> (n - j) & 1))
        for mask in _supports_inside((1 << (n - 1)) - 1, t)
    ]


# ---------------------------------------------------------------------------
# images, runs, confusability
# ---------------------------------------------------------------------------


def _check_kernel_bits(n: int) -> None:
    if n > KERNEL_BITS:
        raise PreconditionError(f"n={n}: 2^{n} words do not fit the {KERNEL_BITS}-bit kernels")


def _check_image_cap(n: int) -> None:
    if not _integer(n) or n < 1:
        raise PreconditionError(f"word length {n!r} is not an integer >= 1")
    _check_kernel_bits(n)
    check_cap("n", n, "error_enum_n")


def _check_budget(t: int) -> None:
    """The one-word queries' check of a grain budget: an integer t >= 0,
    so a fractional budget is refused, not read as the next integer."""
    if not _integer(t) or t < 0:
        raise PreconditionError(f"t must be >= 0 and an integer, got {t!r}")


def _boundaries(x: Word) -> int:
    """The run-boundary mask d(x) = x ^ (x >> 1) on positions 2..n:
    position j is set iff x_j != x_{j-1}."""
    return (x.value ^ (x.value >> 1)) & ((1 << (x.n - 1)) - 1)


def grain_image_list(x: Word, t: int) -> list[Word]:
    """Images of x under at most t length-2 grains, without repeats: x
    first, then x ^ M for each grain support M of weight <= t inside the
    run-boundary mask d(x), in support-lex order (closed form (a) of
    image_values, in its order)."""
    _check_image_cap(x.n)
    _check_budget(t)
    return Word._unchecked(x.n, _supports_inside(_boundaries(x), t, x.value))


def grain_images(x: Word, t: int) -> frozenset[Word]:
    """The set of words reachable from x with at most t grain errors."""
    return frozenset(grain_image_list(x, t))


def run_count(x: Word) -> int:
    """Number of maximal runs of identical symbols in x."""
    return _boundaries(x).bit_count() + 1


def derivative(x: Word) -> Word:
    """Successive-XOR word: bit i of the result is x_i xor x_{i+1}.

    Every length-(n-1) word has exactly two preimages (a word and its
    complement), and run_count(x) = weight(derivative(x)) + 1.
    """
    if x.n < 2:
        raise PreconditionError("derivative needs n >= 2")
    return Word(x.n - 1, _boundaries(x))


def confusable(x1: Word, x2: Word, t: int) -> bool:
    """True iff some medium with <= t length-2 grains per side records
    x1 and x2 identically (their image sets intersect).

    By closed form (a) of image_values the images of x are x ^ M for the
    grain supports M of weight <= t inside d(x).  Words whose first bits
    differ never meet.  Otherwise split delta = x1 ^ x2 into maximal runs
    of adjacent positions: the pair is t-confusable iff (a) d(x1) holds
    every position of delta but the first of each run, and (b) handing
    each run's positions to x1 and x2 in turn, starting with x1 when
    d(x1) holds the run's first position and with x2 otherwise, gives
    each word at most t positions.

    Take x1 ^ M1 = x2 ^ M2 with each Mi a support inside d(xi).  A
    position in both supports can be dropped from both, so M1 and M2 can
    be taken to partition delta.  Inside a run two neighbours cannot go
    to the same side, because supports have no adjacent positions, so
    the sides alternate.  At a run's first position j the words agree at
    j - 1, so exactly one of d(x1), d(x2) holds j, and that fixes the
    side.  At every later position of the run the words differ at both
    j - 1 and j, so d(x1) and d(x2) agree at j, and both must hold it.
    Conversely, under (a) the hand-out of (b) is such a pair of supports.
    """
    _check_budget(t)
    if x1.n != x2.n:
        raise PreconditionError(f"length mismatch: {x1.n} vs {x2.n}")
    delta = x1.value ^ x2.value
    if not delta:
        return True
    # position 1 survives every grain pattern, so differing first bits
    # can never collide
    if delta >> (x1.n - 1):
        return False
    _check_image_cap(x1.n)
    d1 = _boundaries(x1)
    if delta & (delta >> 1) & ~d1:  # (a)
        return False
    counts = [0, 0]  # (b): positions handed to x1, to x2
    while delta:
        top = delta.bit_length()  # the run is bits low .. top - 1
        low = (delta ^ ((1 << top) - 1)).bit_length()
        delta &= (1 << low) - 1
        starter = not d1 >> (top - 1) & 1  # 0 when x1 starts the run
        counts[starter] += (top - low + 1) >> 1
        counts[1 - starter] += (top - low) >> 1
    return max(counts) <= t


def image_count_lower_bound(r: int, t: int) -> int:
    """Worst-case lower bound on the image-set size of a word with r runs.

    1 + sum_{i=1..t} (1/i!) prod_{j=0..i-1} (r - 1 - 3j), each term
    counting placements of i grains across distinct run boundaries; a
    term whose product hits a non-positive factor contributes 0 (the
    count is only meaningful while boundaries remain).  The exact
    rational value is rounded up: the image count is an integer, so the
    ceiling is still a valid lower bound.
    """
    if not (_integer(r) and _integer(t)) or r < 1 or t < 0:
        raise PreconditionError("need integers r >= 1 and t >= 0")
    total = Fraction(1)
    for i in range(1, t + 1):
        prod = 1
        for j in range(i):
            factor = r - 1 - 3 * j
            if factor <= 0:
                prod = 0
                break
            prod *= factor
        if prod:
            total += Fraction(prod, math.factorial(i))
    return math.ceil(total)


# ---------------------------------------------------------------------------
# closed-form kernels: image_values and the support table
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256, typed=True)
def _error_masks(n: int, t: int) -> np.ndarray:
    """The masks of all error vectors of length n and weight (bit count)
    <= t, in Word packing and support-lex order, as a read-only int64
    array.  With P_k the masks of length k, P_0 = P_1 = [0] and
        P_k = [0] ++ (bit k-2 + the masks of P_{k-2} of weight < t)
                  ++ P_{k-1}[1:]:
    the empty support, then {2} u S for S a support on positions 4..k
    (a length-(k-2) mask, all below bit k-2), then the nonempty supports
    on 3..k (a length-(k-1) mask).  No mask of weight > t is built.

    This is the budget check of every mask reader: n and t must be
    integers, 1 <= n <= KERNEL_BITS and t >= 0, so a fractional budget
    is refused, not read as the next integer.  The readers (the kernels,
    in_blocks, support_table, the greedy partition, the verifiers, the
    greedy-known code, the exact search) reach it before they allocate
    anything and have no (n, t) check of their own; only max_code_size,
    which shifts before it reads a mask, tests (n, t) first.  The
    one-word queries read no mask: grain_image_list and
    enumerate_error_vectors walk _supports_inside, confusable reads the
    runs of x1 ^ x2, and all three check t with _check_budget.  The cache
    is typed, so the verdict on (5, 1.0) does not depend on whether
    (5, 1) was cached.
    """
    import numpy as np

    if not (_integer(n) and _integer(t) and 1 <= n <= KERNEL_BITS and t >= 0):
        raise PreconditionError(f"need integers 1 <= n <= {KERNEL_BITS}, t >= 0: n={n!r}, t={t!r}")
    empty = np.zeros(1, np.int64)
    short = masks = empty
    for k in range(2, n + 1):
        grown = short[np.bitwise_count(short) < t] + (1 << (k - 2))
        short, masks = masks, np.concatenate([empty, grown, masks[1:]])
    masks.setflags(write=False)
    return masks


def image_values(x, n: int, t: int) -> np.ndarray:
    """Distinct images of the packed word x (an int or an int array)
    under at most t grains, concatenated word by word.

    With S the support masks of weight <= t and d(x) = x ^ (x >> 1) the
    run-boundary mask (position j >= 2 set iff x_j != x_{j-1}):
      (a) the images of x are { x ^ M : M in S, M inside d(x) };
      (b) the preimage clique B(y) of words with image y is
          { y ^ M : M in S, M disjoint from d(y) };
    distinct masks give distinct words, so neither needs de-duplication.

    (a): M sets each j in M to x_{j-1}, which changes x_j iff j is a run
    boundary, so the image is x ^ (M & d(x)); M & d(x) is again in S, and
    it equals M when M lies inside d(x).
    (b): by (a), y is an image of x iff M = x ^ y is in S and inside
    d(y ^ M) = d(y) ^ M ^ (M >> 1).  For j in M, j - 1 is not in M (no
    adjacent positions, never position 1), so bit j of d(y ^ M) is
    d(y)_j ^ 1: M lies inside d(y ^ M) iff it is disjoint from d(y).

    It tests every mask against each word, for the code verifiers, whose
    sparse word lists reach n = 24, past a 2^(n-1)-row support_table.
    """
    import numpy as np

    masks = _error_masks(n, t)
    x = np.asarray(x, dtype=np.int64)[..., None]
    return (x ^ masks)[(masks & ~(x ^ (x >> 1))) == 0]


def in_blocks(kernel, values: np.ndarray, n: int, t: int) -> Iterator[np.ndarray]:
    """kernel(block, n, t) for consecutive blocks of the packed words
    values, max(1, KERNEL_BLOCK // |S|) words each (the last may be
    shorter), S the support masks of weight <= t; kernel is
    image_values.  The step is taken at the call, so a bad n or t
    raises here, not at the first block."""
    step = max(1, KERNEL_BLOCK // _error_masks(n, t).size)
    return (kernel(values[lo : lo + step], n, t) for lo in range(0, len(values), step))


@dataclass(frozen=True, eq=False)
class SupportTable:
    """Row d < 2^(n-1), entries[offsets[d] : offsets[d + 1]], lists the
    grain supports of weight <= t inside d in _supports_inside(d, t)'s
    order.  By closed forms (a) and (b) of image_values the images of x
    are x ^ row d(x) and B(y) = y ^ row (d(y) ^ low), low = positions 2..n."""

    n: int
    offsets: np.ndarray  # int64
    entries: np.ndarray  # uint16 while n <= 17

    def _rows(self, values: np.ndarray, cliques: bool) -> np.ndarray:
        low = (1 << (self.n - 1)) - 1
        return (values ^ (values >> 1) ^ (low if cliques else 0)) & low

    def lengths(self, values: np.ndarray, cliques: bool = False) -> np.ndarray:
        """The row lengths: image counts of the packed words, or |B(y)|."""
        rows = self._rows(values, cliques)
        return self.offsets[rows + 1] - self.offsets[rows]

    def gather(self, values: np.ndarray, cliques: bool = False) -> Iterator[tuple]:
        """Blocks (owner, words) of the rows of the int64 words values, in
        order, words[i] from values[owner[i]]: the rows that begin in one
        span of KERNEL_BLOCK / 8 entries, reading only the hits."""
        import numpy as np

        if not len(values):
            return
        rows = self._rows(values, cliques)
        lengths = self.offsets[rows + 1] - self.offsets[rows]
        begins = np.cumsum(lengths) - lengths
        shift = self.offsets[rows] - begins  # entry index less output index
        span = begins // (KERNEL_BLOCK >> 3)
        firsts = [0, *(np.flatnonzero(span[1:] != span[:-1]) + 1).tolist(), len(values)]
        for lo, hi in zip(firsts, firsts[1:]):
            owner = np.repeat(np.arange(lo, hi), lengths[lo:hi])
            index = shift[owner]
            index += np.arange(begins[lo], begins[lo] + owner.size)
            yield owner, values[owner] ^ self.entries[index]


def support_table(n: int, t: int) -> SupportTable:
    """The read-only SupportTable of length-n words at budget t, built
    per call, never cached, and allocated at its size (357 KB at (13, 4),
    6.42 MB at (16, 4)): C(n-w, w) supports of weight w lie inside
    2^(n-1-w) masks d each.  Aligned blocks of at most KERNEL_BLOCK / |S|
    rows test the masks whose higher bits lie inside the block's, in order."""
    import numpy as np

    masks = _error_masks(n, t)  # the budget check, before any allocation
    k = n - 1
    size = sum(math.comb(n - w, w) << (k - w) for w in range(min(t, k) + 1))
    offsets = np.zeros((1 << k) + 1, np.int64)
    entries = np.empty(size, "uint16" if n <= 17 else "int64")
    low = np.arange(min(1 << k, 1 << max(1, KERNEL_BLOCK // masks.size).bit_length() - 1))
    for d in range(0, 1 << k, low.size):
        hits = masks[(masks & ~(d | low[-1])) == 0].astype(entries.dtype)
        inside = (hits & ~(d | low[:, None])) == 0
        offsets[d + 1 : d + low.size + 1] = offsets[d] + np.cumsum(inside.sum(axis=1))
        entries[offsets[d] : offsets[d + low.size]] = np.broadcast_to(hits, inside.shape)[inside]
    offsets.flags.writeable = entries.flags.writeable = False
    return SupportTable(n, offsets, entries)
