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
  error-vector XOR.

Arbitrary codes can be loaded from text files (one 0/1 word per line,
'#' comments) and run through the verifiers.

Word and Code are the API types; the verifiers and the decoder run on
Code.values, the sorted packed codewords, through model's closed-form
image kernel or the grain operator applied to the whole array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .config import get_caps
from .errors import CapExceeded, GrainlabError, PreconditionError
from .model import (
    ErrorVector,
    Word,
    _apply_mask,
    _check_image_cap,
    _mask_array,
    image_values,
)

_KERNEL_BLOCK = 1 << 20  # codewords x support masks per kernel call


@dataclass(frozen=True)
class Code:
    n: int
    words: frozenset[Word]
    provenance: str = "file"

    def __post_init__(self):
        for w in self.words:
            if w.n != self.n:
                raise PreconditionError(
                    f"codeword {w} has length {w.n}, expected {self.n}"
                )

    @property
    def size(self) -> int:
        return len(self.words)

    @cached_property
    def values(self) -> np.ndarray:
        """The codewords' packed values in ascending order, read-only;
        int64, or Python ints past the 63 bits int64 holds."""
        dtype = np.int64 if self.n < 64 else object
        values = np.array(sorted(w.value for w in self.words), dtype=dtype)
        values.flags.writeable = False
        return values

    def sorted_words(self) -> list[Word]:
        return [Word(self.n, v) for v in self.values.tolist()]


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def construct_doubling(n: int) -> Code:
    """Code whose even positions duplicate the preceding odd position.

    A grain starting at an odd cell overwrites the next cell with an
    identical bit, and position 1 plus all even positions can never be
    overwritten otherwise, so every grain pattern fixes each codeword's
    even positions.  Size 2^ceil(n/2); odd lengths prefix a free bit.
    """
    if n < 1:
        raise PreconditionError("need n >= 1")
    if n % 2 == 0:
        half = n // 2
        words = []
        for msg in range(1 << half):
            v = 0
            for i in range(half):
                b = (msg >> (half - 1 - i)) & 1
                v = (v << 2) | (b << 1) | b
            words.append(Word(n, v))
    else:
        if n == 1:
            words = [Word(1, 0), Word(1, 1)]
        else:
            inner = construct_doubling(n - 1)
            words = []
            for w in inner.words:
                words.append(Word(n, w.value))
                words.append(Word(n, w.value | (1 << (n - 1))))
    return Code(n, frozenset(words), "doubling")


def decode_doubling(y: Word) -> Word | None:
    """The floor(n/2) message bits at the protected positions of the
    doubling construction.

    For even n the duplicated pairs sit at (1,2), (3,4), ... and the
    even positions pass through every grain pattern unchanged.  For odd
    n the free prefix bit shifts the pairs to (2,3), (4,5), ..., so the
    protected positions are 3, 5, ..., n instead.  Returns None for
    n = 1 (empty message).
    """
    start = 2 if y.n % 2 == 0 else 3
    bits = [y.bit(i) for i in range(start, y.n + 1, 2)]
    if not bits:
        return None
    return Word.from_bits(bits)


def hamming_prefix_size(m: int) -> int:
    """Size of the Hamming-prefix code for n = 2^m: exactly 2^n / n."""
    if not 2 <= m <= 6:
        raise PreconditionError("m out of range (want 2..6)")
    n = 1 << m
    return (1 << n) // n


def _hamming_encode(msg_bits: Sequence[int], m: int) -> int:
    """Encode into the [2^m - 1, 2^m - 1 - m] Hamming code.

    Parity-check columns are the numbers 1..2^m-1 in binary, so parity
    bits live at power-of-two positions and message bits fill the rest
    in natural order.  Returned as a packed int, position 1 = MSB.
    """
    length = (1 << m) - 1
    bits = [0] * (length + 1)  # 1-indexed
    it = iter(msg_bits)
    for pos in range(1, length + 1):
        if pos & (pos - 1):  # not a power of two: data position
            bits[pos] = next(it)
    for a in range(m):
        parity_pos = 1 << a
        parity = 0
        for pos in range(1, length + 1):
            if pos != parity_pos and (pos >> a) & 1:
                parity ^= bits[pos]
        bits[parity_pos] = parity
    value = 0
    for pos in range(1, length + 1):
        value = (value << 1) | bits[pos]
    return value


def construct_hamming_prefix(m: int) -> Code:
    """Prefix a free bit to every word of the [2^m-1, 2^m-1-m] Hamming
    code, yielding n = 2^m and 2^n/n codewords.

    The prefix bit is never corrupted (position 1), and a single grain
    error in positions 2..n is a single substitution there, which the
    Hamming code corrects; hence the code corrects one grain error.
    Materializing the codebook is capped (caps.hamming_m, default 4):
    m = 5 already means 2^27 words.
    """
    if not 2 <= m <= 6:
        raise PreconditionError("m out of range (want 2..6)")
    caps = get_caps()
    if m > caps.hamming_m:
        raise CapExceeded(
            f"m={m} would materialize {hamming_prefix_size(m)} words; "
            f"cap hamming_m={caps.hamming_m}"
        )
    length = (1 << m) - 1
    k = length - m
    n = 1 << m
    words = []
    for msg in range(1 << k):
        msg_bits = [(msg >> (k - 1 - i)) & 1 for i in range(k)]
        inner = _hamming_encode(msg_bits, m)
        words.append(Word(n, inner))
        words.append(Word(n, inner | (1 << (n - 1))))
    return Code(n, frozenset(words), "hamming-prefix")


def construct_greedy_known(
    n: int, t: int, order: Sequence[int] | None = None
) -> Code:
    """Greedy code for grain locations known to the decoder.

    Sweeps candidates (numeric ascending unless an order permutation is
    given) and keeps any word not reachable from a kept word by XOR
    with an error vector.  When the sweep ends, the XOR balls cover
    {0,1}^n, so the result has at least 2^n / #error-vectors words, and
    no two codewords can ever map to the same recorded word under a
    common pattern.
    """
    caps = get_caps()
    if n > caps.greedy_code_n:
        raise CapExceeded(f"n={n} exceeds greedy_code_n={caps.greedy_code_n}")
    if n < 1 or t < 0:
        raise PreconditionError("need n >= 1 and t >= 0")
    masks = _mask_array(n, t)
    total = 1 << n
    if order is None:
        candidates: Iterable[int] = range(total)
    else:
        if sorted(order) != list(range(total)):
            raise PreconditionError("order must be a permutation of 0..2^n-1")
        candidates = order
    forbidden = np.zeros(total, dtype=bool)
    words = []
    for xv in candidates:
        if forbidden[xv]:
            continue
        words.append(Word(n, xv))
        forbidden[xv ^ masks] = True
    return Code(n, frozenset(words), "greedy-known")


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
    occurring k times is an image of k codewords.  Blocks of codewords
    bound the kernel's temporaries; over list_size * 2^n images fail.
    """
    if list_size < 1:
        raise PreconditionError("list size must be >= 1")
    _check_image_cap(code.n)
    step = max(1, _KERNEL_BLOCK // _mask_array(code.n, t).size)
    blocks, total = [np.zeros(0, dtype=np.int64)], 0
    for i in range(0, code.size, step):
        blocks.append(image_values(code.values[i : i + step], code.n, t))
        total += blocks[-1].size
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
    """
    _check_image_cap(code.n)
    for mask in _mask_array(code.n, t).tolist():
        images = np.sort(_apply_mask(code.values, mask))
        if (images[1:] == images[:-1]).any():
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
    matches = code.values[_apply_mask(code.values, e.mask) == y.value]
    if not matches.size:
        raise GrainlabError("no codeword maps to the received word under e")
    if matches.size > 1:
        raise GrainlabError(
            "multiple codewords map to the received word: code is not "
            "known-pattern decodable for this pattern"
        )
    return Word(code.n, int(matches[0]))


# ---------------------------------------------------------------------------
# code files
# ---------------------------------------------------------------------------


def parse_code_text(text: str) -> Code:
    """Code file format: one 0/1 word per line; '#' starts a comment;
    blank lines ignored; all words must share one length."""
    words = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            words.append(Word.parse(line))
        except PreconditionError as exc:
            raise PreconditionError(f"line {lineno}: {exc}") from exc
    if not words:
        raise PreconditionError("code file contains no words")
    n = words[0].n
    if any(w.n != n for w in words):
        raise PreconditionError("codewords have mixed lengths")
    if len(set(words)) != len(words):
        raise PreconditionError("duplicate codewords in file")
    return Code(n, frozenset(words), "file")


def load_code(path: str | Path) -> Code:
    return parse_code_text(Path(path).read_text())


def save_code(code: Code, path: str | Path, header: str | None = None) -> None:
    lines = []
    if header:
        lines.extend(f"# {line}" for line in header.splitlines())
    lines.append(f"# length {code.n}, {code.size} words, provenance {code.provenance}")
    lines.extend(str(w) for w in code.sorted_words())
    Path(path).write_text("\n".join(lines) + "\n")
