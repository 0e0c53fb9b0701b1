"""Grain-correcting code constructions, verifiers, and decoders.

Three constructions are provided:

* the bit-doubling code (every even position repeats the bit before
  it), which survives any number of grain errors at rate 1/2;
* the Hamming-prefix code: a single-error-correcting Hamming code of
  length 2^m - 1 with a free bit prefixed, correcting one grain error
  at size 2^n / n (which beats the sphere-packing count for plain
  substitution errors);
* a greedy construction for the setting where the decoder learns the
  grain locations, packing codewords so that no two differ by an
  error-vector XOR.  The numeric-order greedy code is a linear
  lexicode, so it is built in n steps, one coset per bit segment,
  instead of a sweep over all 2^n words.

Arbitrary codes can be loaded from text files (one 0/1 word per line,
'#' comments) and run through the verifiers.

A Code is its sorted packed codewords (Code.values) and nothing else:
the constructions and the code files produce and read ints, and Words
are built only for the API (Code.words, Code.sorted_words() and the
decoders' answers).  The verifiers run on Code.values through model's
closed-form image kernel; the known-pattern decoder applies the grain
operator to the codewords that agree with the received word outside
the pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import check_cap
from .errors import GrainlabError, PreconditionError
from .model import (
    ErrorVector,
    Word,
    _apply_mask,
    _check_image_cap,
    _check_kernel_bits,
    _error_masks,
    _integer,
    image_values,
    in_blocks,
)


@dataclass(frozen=True, eq=False)
class Code:
    """A code of length n, held as its codewords' packed values.

    The constructor takes a sequence or array of ints and keeps them as
    one sorted, read-only int64 array, so n is at most model.KERNEL_BITS.
    Every value must be an integer, fit in n bits and not repeat.
    `words` and `sorted_words()` build the Word views on request.
    """

    n: int
    values: np.ndarray
    provenance: str = "file"

    def __post_init__(self):
        if not _integer(self.n) or self.n < 1:
            raise PreconditionError(f"code length {self.n!r} is not an integer >= 1")
        _check_kernel_bits(self.n)
        values = np.asarray(self.values)  # no dtype: ints past int64 stay exact
        if values.ndim != 1:
            raise PreconditionError(f"the codewords in {self.provenance} are not a 1-D sequence")
        # an int array passes as it is; any other (an empty list is float64,
        # ints past int64 are objects) only if every element is an integer
        if values.dtype.kind not in "iu" and not all(_integer(v) for v in values.flat):
            raise PreconditionError(f"a codeword in {self.provenance} is not an integer")
        values = np.sort(values)
        if values.size and not 0 <= values[0] <= values[-1] < 1 << self.n:
            raise PreconditionError(f"a codeword does not fit in {self.n} bits")
        values = values.astype(np.int64, copy=False)
        if (values[1:] == values[:-1]).any():
            raise PreconditionError(f"duplicate codewords in {self.provenance}")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def size(self) -> int:
        return self.values.size

    @property
    def words(self) -> frozenset[Word]:
        return frozenset(self.sorted_words())

    def sorted_words(self) -> list[Word]:
        return Word._unchecked(self.n, self.values.tolist())

    def render(self) -> str:
        """The file body: one 0/1 line per codeword, in ascending order,
        each ending in a newline.

        It fills one (size, n+1) byte matrix column by column, a newline
        column last, so its only temporary is one int64 column.
        """
        text = np.empty((self.size, self.n + 1), np.uint8)
        text[:, self.n] = ord("\n")
        column = np.empty(self.size, np.int64)
        for j in range(self.n):
            np.right_shift(self.values, self.n - 1 - j, out=column)
            column &= 1
            column += ord("0")
            text[:, j] = column
        return text.tobytes().decode("ascii")


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def _prefix_free_bit(values: np.ndarray, n: int) -> np.ndarray:
    """Length-(n-1) values with a free bit prefixed at position 1."""
    return np.concatenate([values, values + (1 << (n - 1))])


def construct_doubling(n: int) -> Code:
    """Code whose even positions duplicate the preceding odd position.

    A grain starting at an odd cell overwrites the next cell with an
    identical bit, and position 1 plus all even positions can never be
    overwritten otherwise, so every grain pattern fixes each codeword's
    even positions.  Size 2^ceil(n/2), capped by greedy_code_n; odd
    lengths prefix a free bit.  Message bit i (from the right) becomes
    the pair 3 << 2i.
    """
    if not _integer(n) or n < 1:
        raise PreconditionError("need an integer n >= 1")
    _check_kernel_bits(n)
    check_cap("ceil(n/2)", (n + 1) // 2, "greedy_code_n")
    half = np.arange(n // 2)
    pairs = ((np.arange(1 << half.size)[:, None] >> half) & 1) @ (3 << 2 * half)
    return Code(n, _prefix_free_bit(pairs, n) if n % 2 else pairs, "doubling")


def decode_doubling(y: Word) -> Word | None:
    """The floor(n/2) message bits at the protected positions of the
    doubling construction.

    For even n the duplicated pairs sit at (1,2), (3,4), ... and the
    even positions pass through every grain pattern unchanged.  For odd
    n the free prefix bit shifts the pairs to (2,3), (4,5), ..., so the
    protected positions are 3, 5, ..., n instead.  Either way they are
    bits 0, 2, 4, ... of the packed value, last message bit first.
    Returns None for n = 1 (empty message).
    """
    k = y.n // 2
    if not k:
        return None
    msg = 0
    for i in range(k):
        msg |= (y.value >> 2 * i & 1) << i
    return Word(k, msg)


def hamming_prefix_size(m: int) -> int:
    """Size of the Hamming-prefix code for n = 2^m: exactly 2^n / n."""
    if not _integer(m) or not 2 <= m <= 6:
        raise PreconditionError("m out of range (want an integer 2..6)")
    n = 1 << m
    return (1 << n) // n


def construct_hamming_prefix(m: int) -> Code:
    """Prefix a free bit to every word of the [2^m-1, 2^m-1-m] Hamming
    code, yielding n = 2^m and 2^n/n codewords.

    The prefix bit is never corrupted (position 1), and a single grain
    error in positions 2..n is a single substitution there, which the
    Hamming code corrects; hence the code corrects one grain error.
    Parity-check columns are the numbers 1..2^m-1 in binary, so each
    data position p (not a power of two) together with the parity
    positions 2^a summing to p is a codeword, and the code is the XOR
    span of these 2^m-1-m generators.
    The code has 2^(n-m) words, so n - m is checked against
    caps.greedy_code_n (default 20): m = 4 lists 2^12 words, m = 5
    already means 2^27.
    """
    if not _integer(m) or not 2 <= m <= 6:
        raise PreconditionError("m out of range (want an integer 2..6)")
    n = 1 << m
    _check_kernel_bits(n)
    check_cap("n-m", n - m, "greedy_code_n")
    span = np.zeros(1, dtype=np.int64)
    for p in range(3, n):
        if p & (p - 1):  # not a power of two: data position
            positions = [p] + [1 << a for a in range(m) if p >> a & 1]
            gen = sum(1 << (n - 1 - q) for q in positions)
            span = np.concatenate([span, span ^ gen])
    return Code(n, _prefix_free_bit(span, n), "hamming-prefix")


def construct_greedy_known(n: int, t: int) -> Code:
    """Greedy code for grain locations known to the decoder.

    The code is what a sweep over {0,1}^n in numeric order keeps when it
    keeps every word that differs from no kept word by a nonzero support
    mask (an error vector of weight <= t).  Any two codewords then differ
    outside the mask set D, so no error pattern can make them record the
    same word, and the XOR balls of the kept words cover {0,1}^n, so
    there are at least 2^n / #error-vectors of them.

    The sweep's code is a linear lexicode, and it is built here one bit
    segment at a time.  With L_k the codewords below 2^k and D_k the
    masks with top bit k: a is the least word of [2^k, 2^(k+1)) outside
    L_k ^ D_k, and L_(k+1) is L_k plus the coset a ^ L_k (or L_k if no
    such a exists).  n array steps replace 2^n loop steps.

    The step keeps a valid code: two words of a ^ L_k differ by a
    nonzero word of L_k, which meets D only in 0 by induction; a word of
    L_k and one of a ^ L_k differ by a ^ l for some l in L_k, whose top
    bit is k, and a ^ l is not in D_k because a is outside L_k ^ D_k.

    The step equals the sweep.  The kept words are the P-positions of
    the coin-turning game whose move XORs into x a nonzero mask of D
    with its top bit set in x: the moves from x lead to exactly the
    smaller words within D of x, and x is kept iff none of those is.
    By the coin-turning theorem (Berlekamp, Conway and Guy, Winning
    Ways; Conway and Sloane, "Lexicographic codes", IEEE T-IT 1986) the
    Grundy value of x is the XOR of the values of its single bits, so
    the P-positions, the words of Grundy value 0, form a linear space.
    Its words in [2^k, 2^(k+1)) are then one coset of L_k or none, and
    the least of them is the first one the sweep keeps there, when only
    L_k is kept: the least word outside L_k ^ D_k.  The equality was
    also checked word for word against the sweep for every n <= 20 and
    every t.
    """
    _check_kernel_bits(n)
    check_cap("n", n, "greedy_code_n")
    masks = _error_masks(n, t)
    code = np.zeros(1, dtype=np.int64)
    for k in range(n):
        taken = np.zeros(1 << k, dtype=bool)  # L_k ^ D_k, less 2^k
        for low in (masks[masks >> k == 1] ^ (1 << k)).tolist():
            taken[code ^ low] = True
        u = int(taken.argmin())
        if not taken[u]:
            code = np.concatenate([code, code ^ (1 << k | u)])
    return Code(n, code, "greedy-known")


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------


def verify_grain_correcting(code: Code, t: int) -> bool:
    """True iff no two distinct codewords are t-confusable: no image is
    shared, i.e. the code is list-decodable with lists of size 1."""
    return verify_list_decodable(code, t, 1)


def verify_list_decodable(code: Code, t: int, list_size: int) -> bool:
    """True iff every word of {0,1}^n is an image of at most list_size
    codewords (so a decoder can always answer with a list that long).

    The kernel lists each codeword's images without repeats, so a value
    occurring k times is an image of k codewords.  The codewords go
    through model.in_blocks, which bounds the kernel's temporaries, and
    the check fails at the first block that brings the images past
    list_size * 2^n: some word is then an image of more than list_size
    codewords.
    """
    if not _integer(list_size) or list_size < 1:
        raise PreconditionError("list size must be an integer >= 1")
    _check_image_cap(code.n)
    blocks, total = [np.zeros(0, dtype=np.int64)], 0
    for images in in_blocks(image_values, code.values, code.n, t):
        blocks.append(images)
        total += images.size
        if total > list_size << code.n:
            return False
    counts = np.unique(np.concatenate(blocks), return_counts=True)[1]
    return int(counts.max(initial=0)) <= list_size


def verify_known_pattern(code: Code, t: int) -> bool:
    """True iff every single grain pattern keeps codewords distinct:
    for every error vector e, c -> apply_grains(c, e) is injective.

    Weaker than t-grain-correcting (which forbids collisions across
    *different* patterns too); sufficient when the decoder is told the
    pattern.

    Codewords c != c' collide under the support mask M iff c ^ c' lies
    inside M.  The pattern leaves the positions outside M alone, so a
    difference there survives; and it sets each j in M to the bit at
    j - 1, which is outside M (no adjacent positions, never position 1),
    so when c and c' agree outside M they agree at every j - 1 and
    record the same word.  Every subset of a mask of weight <= t is such
    a mask too, so the code fails iff c ^ M is a codeword for some
    codeword c and nonzero mask M: one gather from a 2^n membership
    array per mask.  The image cap bounds that array (16 MB at n = 24),
    and verify_list_decodable may hold list_size * 2^n int64 already;
    past a raised cap, a length whose array cannot be had is an error.
    """
    _check_image_cap(code.n)
    masks = _error_masks(code.n, t).tolist()
    try:
        member = np.zeros(1 << code.n, dtype=bool)
    except (MemoryError, ValueError) as exc:  # ValueError: 2^n past the index range
        raise GrainlabError(f"no memory for a 2^{code.n}-entry codeword table") from exc
    member[code.values] = True
    for mask in masks:
        if mask and member[code.values ^ mask].any():
            return False
    return True


def decode_known_pattern(code: Code, y: Word, e: ErrorVector) -> Word:
    """Recover the codeword that produced y under the known pattern e.

    Raises GrainlabError if nothing matches (y is not a valid output
    for this code and pattern) or if several codewords match (the code
    fails the known-pattern property for this pattern).
    """
    if y.n != code.n or e.n != code.n:
        raise PreconditionError("length mismatch between code, word and pattern")
    # e keeps the positions outside its mask, so y must agree there
    near = code.values[((code.values ^ y.value) & ~e.mask) == 0].tolist()
    matches = [x for x in near if _apply_mask(x, e.mask) == y.value]
    if not matches:
        raise GrainlabError("no codeword maps to the received word under e")
    if len(matches) > 1:
        raise GrainlabError(
            "multiple codewords map to the received word: code is not "
            "known-pattern decodable for this pattern"
        )
    return Word(code.n, matches[0])


# ---------------------------------------------------------------------------
# code files
# ---------------------------------------------------------------------------


def parse_code_text(text: str) -> Code:
    """Code file format: one 0/1 word per line; '#' starts a comment;
    blank lines ignored; all words must share one length.

    Text in the shape save_code writes ('#' header lines, then lines of
    one width n, each of 0/1 and ending in a newline) is read as one
    byte matrix; any other text goes line by line, which also names the
    line of a bad word.  Either way n is at most model.KERNEL_BITS.
    """
    code = _parse_saved(text)
    return _parse_lines(text) if code is None else code


def _parse_saved(text: str) -> Code | None:
    """The code of text in the shape save_code writes, or None."""
    start = 0
    while text.startswith("#", start):
        start = text.find("\n", start) + 1
        if not start:
            return None
    head, body = text[:start], text[start:].encode(errors="replace")
    width = body.find(b"\n")  # n, the word length
    if (
        width <= 0
        or len(body) % (width + 1)
        or len(head.splitlines()) != head.count("\n")  # no other line breaks
    ):
        return None
    rows = np.frombuffer(body, np.uint8).reshape(-1, width + 1)
    # b"0" | 1 == b"1" | 1 == b"1", and no other byte maps there
    if (rows[:, width] != ord("\n")).any() or ((rows[:, :width] | 1) != ord("1")).any():
        return None
    _check_kernel_bits(width)
    values = np.zeros(len(rows), np.int64)
    for j in range(width):
        values <<= 1
        values |= rows[:, j] & 1
    return Code(width, values, "file")


def _parse_lines(text: str) -> Code:
    words = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line.strip("01"):
            raise PreconditionError(f"line {lineno}: not a 0/1 string: {line!r}")
        try:
            _check_kernel_bits(len(line))
        except PreconditionError as exc:
            raise PreconditionError(f"line {lineno}: {exc}") from None
        if line:
            words.append(line)
    lengths = set(map(len, words))
    if not lengths:
        raise PreconditionError("code file contains no words")
    if len(lengths) > 1:
        raise PreconditionError("codewords have mixed lengths")
    return Code(lengths.pop(), [int(word, 2) for word in words], "file")


def load_code(path: str | Path) -> Code:
    return parse_code_text(Path(path).read_text())


def save_code(code: Code, path: str | Path, header: str | None = None) -> None:
    head = "".join(f"# {line}\n" for line in (header or "").splitlines())
    head += f"# length {code.n}, {code.size} words, provenance {code.provenance}\n"
    Path(path).write_text(head + code.render())
