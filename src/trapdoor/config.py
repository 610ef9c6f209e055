"""The shared input rules: integers, rationals, probability vectors, caps, per-letter lengths, states, bits.

Each rule lives here once and every entry point calls it.  No integer input
(a length, count, side or exponent, or an entry of an exact array) is made
from a float, a string, a Fraction or None, and no exact rational (a
coefficient of an affine map) from a float, a string, a bool or None.  An
entry of a probability vector (probabilities, exact_probabilities) is an
exact rational or a finite float: a bool or a string raises.  A cap bounds
a length by its cost where the memory is allocated (4**n entries for a
dense matrix or fractal grid, 2**n for a weight vector or an enumeration
support) and can be overridden through an environment variable.
"""

from __future__ import annotations

import math
import operator
import os
from fractions import Fraction

import numpy as np

DEFAULT_MATRIX_CAP = 14  # dense 2**n x 2**n matrices and 2**k x 2**k fractal grids
DEFAULT_INPUT_CAP = 24   # enumeration input length (worst-case support is 2**n)
DEFAULT_BOUND_CAP = 20   # entropy and weight-vector recursions (vector length is 2**n)

MATRIX_CAP_ENV = "TRAPDOOR_MATRIX_CAP"
INPUT_CAP_ENV = "TRAPDOOR_INPUT_CAP"
BOUND_CAP_ENV = "TRAPDOOR_BOUND_CAP"

_DEFAULTS = {
    MATRIX_CAP_ENV: DEFAULT_MATRIX_CAP,
    INPUT_CAP_ENV: DEFAULT_INPUT_CAP,
    BOUND_CAP_ENV: DEFAULT_BOUND_CAP,
}


def integer(v, what: str) -> int:
    """v as a plain int (an int, a bool or a numpy integer), else ValueError naming ``what``."""
    try:
        return operator.index(v)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {v!r}") from None


def rational(v, what: str) -> Fraction:
    """v as a Fraction (an int or numpy integer but not a bool, a Fraction or a
    Dyadic), else ValueError naming ``what``."""
    from .dyadic import Dyadic  # dyadic imports this module

    if isinstance(v, Fraction):
        return v
    if isinstance(v, Dyadic):
        return v.as_fraction()
    if not isinstance(v, bool):
        try:
            return Fraction(operator.index(v))
        except TypeError:
            pass
    raise ValueError(f"{what} must be an exact rational (an int, Fraction or Dyadic), got {v!r}")


def integer_array(values, what: str) -> np.ndarray:
    """An integer ndarray as it is; anything else scanned into int64, or Python ints past
    int64, once every entry is an int or a numpy integer (not a bool), else ValueError."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values
    arr = np.asarray(values, dtype=object)
    others = set(map(type, arr.flat)) - {int}
    bad = {t for t in others if t is bool or not issubclass(t, np.integer)}
    if bad:
        v = next(v for v in arr.flat if type(v) in bad)
        raise ValueError(f"{what} must be integers, got {v!r}")
    try:
        return arr.astype(np.int64)
    except OverflowError:  # past int64
        return np.frompyfunc(int, 1, 1)(arr) if others else arr


def _entries(p, dim: int) -> np.ndarray | list:
    """p as it is if it is a numpy integer or float array, else as a list of floats and
    Fractions; ValueError unless it has length dim and each entry is a finite float or
    numpy float or what rational takes.  An array is checked by dtype and finiteness."""
    array = isinstance(p, np.ndarray) and p.dtype.kind in "iuf"
    try:
        shape = p.shape if array else (len(p),)
    except TypeError:
        raise ValueError(f"distribution must be a sequence of {dim} numbers, got {p!r}") from None
    if shape != (dim,):
        raise ValueError(f"distribution must have length {dim}")
    out = []
    for i in np.flatnonzero(~np.isfinite(p))[:1] if array else range(dim):
        v = float(p[i]) if isinstance(p[i], (float, np.floating)) else p[i]
        try:
            out.append(v if isinstance(v, float) and math.isfinite(v) else rational(v, ""))
        except ValueError:
            raise ValueError(f"distribution entry {i} is {v!r}, not a finite number") from None
    return p if array else out


def probabilities(p, dim: int) -> np.ndarray:
    """p as a new float64 vector clipped at 0; ValueError for an entry past the
    float range or below -1e-12, or a sum off 1 by more than 1e-9."""
    entries = _entries(p, dim)
    try:
        arr = np.asarray(entries, dtype=float)
    except OverflowError:  # an int or Fraction entry past the float range
        for i, v in enumerate(entries):
            try:
                float(v)
            except OverflowError:
                raise ValueError(f"distribution entry {i} is past the float range") from None
        raise
    if arr.min() < -1e-12:
        raise ValueError("distribution has a negative entry")
    if abs(arr.sum() - 1.0) > 1e-9:
        raise ValueError(f"distribution sums to {arr.sum()}, expected 1")
    return np.clip(arr, 0.0, None)


def exact_probabilities(p, dim: int) -> tuple[np.ndarray, int]:
    """(p_int, scale) with p == p_int / scale exactly, scale the lcm of the
    denominators (floats are dyadic); any sign and sum pass."""
    fracs = list(map(Fraction, np.asarray(_entries(p, dim), dtype=object).tolist()))  # Python numbers
    scale = math.lcm(*(f.denominator for f in fracs))
    return integer_array([f.numerator * (scale // f.denominator) for f in fracs], "distribution"), scale


def cap(env: str) -> int:
    """The cap named by env: the variable's value if it is set, else the default."""
    raw = os.environ.get(env)
    if raw is None:
        return _DEFAULTS[env]
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{env} must be an integer, got {raw!r}") from exc
    if value < 0:
        raise ValueError(f"{env} must be non-negative, got {value}")
    return value


def check_cap(n: int, env: str, cost: str, what: str = "block length") -> int:
    """n as a plain int; ValueError unless it is an integer in [0, the cap read from env].

    ``cost`` says what a length costs, with ``{n}`` standing for the length
    (e.g. "storage is 4**{n} entries"); the message quotes it.
    """
    n = integer(n, what)
    if n < 0:
        raise ValueError(f"{what} must be non-negative")
    limit = cap(env)
    if n > limit:
        raise ValueError(
            f"{what} {n} exceeds the cap {limit} ({cost.format(n=n)}; override with {env})"
        )
    return n


def check_per_letter(n: int) -> int:
    """n as a plain int; ValueError unless n >= 1: a per-letter quantity divides by it."""
    n = integer(n, "block length")
    if n < 1:
        raise ValueError("a per-letter quantity needs block length n >= 1")
    return n


def check_state(s0) -> int:
    """The initial state as a plain int; anything but an integer 0 or 1 raises ValueError."""
    try:
        s = integer(s0, "initial state")
    except ValueError:
        s = None
    if s not in (0, 1):
        raise ValueError("initial state must be 0 or 1")
    return s


def check_bits(bits: str, what: str = "input", length: int | None = None) -> str:
    """bits unchanged if it is a string over 0/1 of the given length, or
    non-empty when no length is given; else ValueError naming ``what``."""
    if not isinstance(bits, str) or set(bits) - {"0", "1"}:
        raise ValueError(f"{what} must be a string over 0/1, got {bits!r}")
    if length is None and not bits:
        raise ValueError(f"{what} must be non-empty")
    if length is not None and len(bits) != length:
        raise ValueError(f"{what} must be a length-{length} bit string, got {bits!r}")
    return bits
