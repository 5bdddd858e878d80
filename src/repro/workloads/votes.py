"""Vote-pattern generators for protocol-level experiments."""

from __future__ import annotations

import random
from typing import List

from repro.errors import ConfigurationError
from repro.protocols.base import ABORT, COMMIT


def all_yes(n: int) -> List[int]:
    """Every process votes 1 — the vote pattern of a nice execution."""
    if n < 1:
        raise ConfigurationError(f"n must be positive, got {n}")
    return [COMMIT] * n


def all_no(n: int) -> List[int]:
    """Every process votes 0."""
    if n < 1:
        raise ConfigurationError(f"n must be positive, got {n}")
    return [ABORT] * n


def one_no(n: int, which: int = 1) -> List[int]:
    """Every process votes 1 except ``P_which``."""
    votes = all_yes(n)
    if not 1 <= which <= n:
        raise ConfigurationError(f"process index {which} out of range 1..{n}")
    votes[which - 1] = ABORT
    return votes


def random_votes(n: int, no_probability: float = 0.1, seed: int = 0) -> List[int]:
    """Independent votes, each 0 with probability ``no_probability``."""
    if not 0.0 <= no_probability <= 1.0:
        raise ConfigurationError(f"probability must be in [0, 1], got {no_probability}")
    rng = random.Random(seed)
    return [ABORT if rng.random() < no_probability else COMMIT for _ in range(n)]
