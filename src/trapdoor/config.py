"""The input rules every view shares: caps, per-letter lengths, states, bit strings.

Each rule lives here once and every entry point calls it.  A cap bounds a
length by what it costs where the memory is allocated (4**n entries for a
dense matrix or fractal grid, 2**n for a weight vector or an enumeration
support) and can be overridden through an environment variable.
"""

from __future__ import annotations

import operator
import os

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


def check_cap(n: int, env: str, cost: str, what: str = "block length") -> None:
    """Raise ValueError unless 0 <= n <= the cap read from env.

    ``cost`` says what a length costs, with ``{n}`` standing for the length
    (e.g. "storage is 4**{n} entries"); the message quotes it.
    """
    if n < 0:
        raise ValueError(f"{what} must be non-negative")
    limit = cap(env)
    if n > limit:
        raise ValueError(
            f"{what} {n} exceeds the cap {limit} ({cost.format(n=n)}; override with {env})"
        )


def check_per_letter(n: int) -> None:
    """Raise ValueError unless n >= 1: a per-letter quantity divides by the block length."""
    if n < 1:
        raise ValueError("a per-letter quantity needs block length n >= 1")


def check_state(s0) -> int:
    """The initial state as a plain int; anything but 0 or 1 (bools and numpy
    integers included, floats and strings excluded) raises ValueError."""
    try:
        s = operator.index(s0)
    except TypeError:
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
