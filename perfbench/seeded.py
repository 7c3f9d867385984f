"""Seeded input pieces shared by run.py and worker.py."""

from __future__ import annotations

import random
from fractions import Fraction

PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11)


def rational(rng: random.Random) -> Fraction:
    """A small rational in [-3, 3] with denominator at most 4."""
    return Fraction(rng.randint(-3, 3), rng.randint(1, 4))
