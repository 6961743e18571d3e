"""Small numeric helpers shared across modules: bisection, clamping, counts, whole-number checks.

Whole numbers are checked by two rules: `_whole` for arrays (edge
endpoints, degree sequences) and `_count` for every scalar count (node
counts, report budgets, trial and step counts, report indices), which
also enforces the count's least value.

All target functions in this package are monotone on their brackets, so
plain bisection is preferred over faster but less robust schemes.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import ConfigError, NoRootError

ABS_TOL = 1e-10
MAX_ITER = 200


def clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def ceil_count(x: float) -> int:
    """ceil(x) with a float-noise guard: values within 1e-9 above an integer round down."""
    return math.ceil(x - 1e-9)


def _whole(values, what: str) -> np.ndarray:
    """`values` as int64; ConfigError unless every entry is a whole number."""
    import numpy as np
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        arr = arr.astype(np.float64)
        if not np.all(np.isfinite(arr) & (arr == np.floor(arr))):
            raise ConfigError(f"{what} must be whole numbers")
    return arr.astype(np.int64, copy=False)


def _count(value, what: str, least: int = 1) -> int:
    """`value` as an int; ConfigError unless it is a whole number >= `least` (NaN and ±inf are not)."""
    if type(value) is int and value >= least:  # the common case, without the float round trip
        return value
    try:
        ok = float(value).is_integer() and value >= least
    except (TypeError, ValueError, OverflowError):  # not a number, or an int beyond float range
        ok = False
    if not ok:
        raise ConfigError(f"{what} must be a whole number >= {least}, got {value!r}")
    return int(value)


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    expand: bool = False,
    what: str = "root",
) -> float:
    """Find x in [lo, hi] with |f(x)| < ABS_TOL by bisection.

    With expand=True the upper endpoint is doubled (up to 60 times) until
    the bracket straddles a sign change. Raises NoRootError if no sign
    change can be established.
    """
    f_lo = f(lo)
    f_hi = f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if expand:
        attempts = 0
        while f_lo * f_hi > 0.0 and attempts < 60:
            lo, f_lo = hi, f_hi
            hi *= 2.0
            f_hi = f(hi)
            attempts += 1
    if f_lo * f_hi > 0.0:
        raise NoRootError(what, lo, hi, f_lo, f_hi)
    for _ in range(MAX_ITER):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if abs(f_mid) < ABS_TOL or (hi - lo) < 1e-16 * max(1.0, abs(mid)):
            return mid
        if f_lo * f_mid <= 0.0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)
