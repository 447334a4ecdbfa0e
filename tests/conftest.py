import sys
import warnings
from math import comb

import pytest

from veronese import VeroneseParams
from veronese.combinatorics import MAX_Q

# every (n, p, h) with n >= 2 and |T| <= 36
GRID_T36 = [
    (n, p, h)
    for p in (2, 3, 5, 7, 11, 13)
    for h in range(1, MAX_Q.bit_length())
    if p**h <= MAX_Q
    for n in range(2, 9)
    if comb(n + p**h - 1, p**h) <= 36
]

# every (n, p, h) with |T| <= 600, n = 1 and 2 included; |T| >= n
GRID_T600 = [
    (n, p, h)
    for p in (2, 3, 5, 7, 11, 13)
    for h in range(1, MAX_Q.bit_length())
    if p**h <= MAX_Q
    for n in range(1, 601)
    if comb(n + p**h - 1, p**h) <= 600
]


def make_params(n: int, p: int, h: int) -> VeroneseParams:
    # n < 3 warns by design; tests that sweep small n silence it
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return VeroneseParams(n, p, h)


def clear_package_caches() -> None:
    """Empty every lru cache of the package, as in a fresh interpreter."""
    for name, module in list(sys.modules.items()):
        if name == "veronese" or name.startswith("veronese."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


@pytest.fixture
def params321() -> VeroneseParams:
    return VeroneseParams(3, 2, 1)


@pytest.fixture
def params331() -> VeroneseParams:
    return VeroneseParams(3, 3, 1)


@pytest.fixture
def params322() -> VeroneseParams:
    return VeroneseParams(3, 2, 2)
