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
    holds until the block exits.

CLI flags always win over file/env settings.  Every source goes through
Caps.replace, which checks each value and returns a new, frozen Caps.
"""

from __future__ import annotations

import dataclasses
import math
import os
import re
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .errors import CapExceeded, PreconditionError


@dataclass(frozen=True)
class Caps:
    # listing all error vectors of length n (grows like phi^n)
    error_enum_n: int = 24
    # the greedy clique partition (2^m vertices)
    partition_m: int = 16
    # exact maximum-code-size search, for every t
    exact_m_n: int = 10
    # seconds per search; n <= 8 ends far inside it, n = 9 at t = 1 hits
    # it and returns a lower bound flagged exact=False; 0 means no limit
    exact_m_time_limit: float = 60.0
    # a construction lists at most 2^greedy_code_n words: the greedy
    # code checks n, the doubling code ceil(n/2), the Hamming-prefix
    # code n - m (it has 2^n/n = 2^(n-m) words, n = 2^m)
    greedy_code_n: int = 20
    # every exact channel oracle, the error entropy's included
    channel_exact_n: int = 20

    def replace(self, pairs: dict[str, str]) -> Caps:
        """A copy with the named caps set.  Each value is parsed with
        its default's type and must be finite and >= 0."""
        kinds = {f.name: type(f.default) for f in dataclasses.fields(self)}
        values = {}
        for key, raw in pairs.items():
            if key not in kinds:
                raise PreconditionError(f"unknown cap name: {key!r}")
            try:
                values[key] = kinds[key](raw)
            except ValueError:
                values[key] = math.nan  # reported as a bad value below
            if not 0 <= values[key] < math.inf:
                raise PreconditionError(f"bad cap value {key}={raw!r}, want finite >= 0")
        return dataclasses.replace(self, **values)


def parse_cap_string(text: str) -> dict[str, str]:
    """Parse 'key=value' pairs separated by commas, semicolons, whitespace
    or newlines; '#' starts a comment that runs to the end of its line."""
    pairs: dict[str, str] = {}
    for chunk in re.split(r"[,;\s]+", re.sub(r"#.*", "", text)):
        if not chunk:
            continue
        if "=" not in chunk:
            raise PreconditionError(f"malformed cap entry {chunk!r} (want key=value)")
        key, _, value = chunk.partition("=")
        pairs[key] = value
    return pairs


_override: ContextVar[Caps | None] = ContextVar("grainlab_caps", default=None)


@lru_cache(maxsize=1)
def _env_caps() -> Caps:
    return Caps().replace(parse_cap_string(os.environ.get("GRAINLAB_CAPS", "")))


def get_caps() -> Caps:
    """The caps in effect: the innermost caps_override, else the defaults
    updated from GRAINLAB_CAPS on first use, so a bad entry raises
    PreconditionError at a call (the CLI exits 2), not at import."""
    return _override.get() or _env_caps()


def check_cap(what: str, value: int, cap: str) -> None:
    """Raise CapExceeded when value, the size called what, exceeds the
    named cap in effect."""
    limit = getattr(get_caps(), cap)
    if value > limit:
        raise CapExceeded(f"{what}={value} exceeds {cap}={limit}")


@contextmanager
def caps_override(**kwargs) -> Iterator[Caps]:
    """The caps in effect with the given ones replaced, inside a with
    block; the caps outside it come back on exit, also when the block
    raises.  A bad value raises PreconditionError before the block runs."""
    caps = get_caps().replace({k: str(v) for k, v in kwargs.items()})
    token = _override.set(caps)
    try:
        yield caps
    finally:
        _override.reset(token)
