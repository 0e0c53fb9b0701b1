"""Enumeration caps and their configuration sources.

All combinatorial operations in this package enumerate exponentially
large spaces, so every entry point is guarded by a cap with a safe
default.  Exceeding a cap raises CapExceeded; nothing is ever silently
truncated.  Caps can be overruled (raised or lowered) via:

  * the environment variable GRAINLAB_CAPS, e.g.
      GRAINLAB_CAPS="error_enum_n=26,partition_m=14"
  * a key=value config file passed to the CLI (--config), which holds
    for that one CLI call, and
  * a `with caps_override(...)` block (tests, embedding code), which
    restores the previous values when the block exits.

CLI flags always win over file/env settings.
"""

from __future__ import annotations

import dataclasses
import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .errors import PreconditionError

#: hard ceiling on word length; anything longer is rejected at parse time
#: (a word's bit conversions go through strings and take time linear in
#: its length; the channel simulators work on the packed int directly)
WORD_LEN_MAX = 1_000_000


@dataclass
class Caps:
    # listing all error vectors of length n (grows like phi^n)
    error_enum_n: int = 24
    # the greedy clique partition (2^m vertices)
    partition_m: int = 16
    partition_s: int = 4
    # exact maximum-code-size search
    exact_m_n: int = 10
    exact_m_n_multi: int = 8          # applies when t >= 2
    # seconds per search; n <= 8 ends far inside it, n = 9 hits it and
    # returns a lower bound flagged exact=False; 0 means no limit
    exact_m_time_limit: float = 60.0
    # greedy known-pattern code construction (2^n candidates)
    greedy_code_n: int = 20
    # materializing the Hamming-prefix code (2^(2^m)/2^m words)
    hamming_m: int = 4
    # exact channel oracles
    channel_exact_n: int = 20
    error_entropy_n: int = 14

    def update_from_pairs(self, pairs: dict[str, str]) -> None:
        fields = {f.name: f for f in dataclasses.fields(self)}
        for key, raw in pairs.items():
            if key not in fields:
                raise PreconditionError(f"unknown cap name: {key!r}")
            kind = fields[key].type
            try:
                value = float(raw) if "float" in str(kind) else int(raw)
            except ValueError as exc:
                raise PreconditionError(f"bad cap value {key}={raw!r}") from exc
            setattr(self, key, value)


def parse_cap_string(text: str) -> dict[str, str]:
    """Parse 'key=value' pairs separated by commas, semicolons or whitespace."""
    pairs: dict[str, str] = {}
    for chunk in text.replace(";", ",").replace(" ", ",").split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise PreconditionError(f"malformed cap entry {chunk!r} (want key=value)")
        key, _, value = chunk.partition("=")
        pairs[key.strip()] = value.strip()
    return pairs


@lru_cache(maxsize=1)
def get_caps() -> Caps:
    """The process-wide caps: the defaults updated from GRAINLAB_CAPS on
    first use, so a bad entry raises PreconditionError at a call (the
    CLI exits 2), not at import."""
    caps = Caps()
    caps.update_from_pairs(parse_cap_string(os.environ.get("GRAINLAB_CAPS", "")))
    return caps


@contextmanager
def caps_override(**kwargs) -> Iterator[Caps]:
    """Override selected caps inside a with block, validated as the
    GRAINLAB_CAPS pairs are; the previous values come back on exit,
    also when the block (or the validation) raises."""
    caps = get_caps()
    saved = dataclasses.asdict(caps)
    try:
        caps.update_from_pairs({k: str(v) for k, v in kwargs.items()})
        yield caps
    finally:
        vars(caps).update(saved)
