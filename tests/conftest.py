"""Shared fixtures.

Census construction dominates the suite's runtime, so results are cached
per (degree, options) for the whole session and shared across modules.
Property tests run under one deterministic hypothesis profile.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from hgcensus import build_degree_census

# fixed examples and no per-example deadline: the suite stays deterministic
# and does not flake on a loaded host
settings.register_profile("hgcensus", deadline=None, derandomize=True)
settings.load_profile("hgcensus")


@pytest.fixture(scope="session")
def census():
    """Factory returning a cached DegreeCensus for a degree.

    Keyword options are forwarded to build_degree_census and participate
    in the cache key, so budget-limited variants do not collide with the
    default runs.
    """
    cache = {}

    def get(degree: int, **options):
        key = (degree, tuple(sorted(options.items())))
        if key not in cache:
            cache[key] = build_degree_census(degree, **options)
        return cache[key]

    return get


def _minimal_conjugate(T, elems: np.ndarray) -> tuple[int, ...]:
    """Lex-least sorted index tuple among all conjugates of a subgroup,
    by brute force over the whole group."""
    return min(tuple(np.sort(T.conj_many(g, elems)).tolist()) for g in range(T.order))


@pytest.fixture(scope="session")
def minimal_conjugate():
    """The brute-force canonical form that subgroup-class searches are checked against."""
    return _minimal_conjugate
