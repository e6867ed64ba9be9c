"""Runtime limits and seeded-randomness defaults.

Resolution sizes grow with the input dimension, so every
module constructor checks the dimension cap and every group constructor
checks the order cap; both fail fast with CapExceeded.  The caps are one
(dimension, order) pair in a context variable, set for a block by ``with
limits(...)``; the CLI runs each call in one.  A new thread starts at the
defaults, since Python threads do not inherit context variables.
"""

import contextlib
import contextvars

from .errors import CapExceeded

DEFAULT_DIM_CAP = 4096
DEFAULT_ORDER_CAP = 3125
DEFAULT_SEED = 0

_CAPS = contextvars.ContextVar("permres_caps", default=(DEFAULT_DIM_CAP, DEFAULT_ORDER_CAP))


def dim_cap():
    return _CAPS.get()[0]


def order_cap():
    return _CAPS.get()[1]


@contextlib.contextmanager
def limits(dim_cap=None, order_cap=None):
    """Run the block under these caps; None keeps the enclosing value.

    Both values are checked before either is set, so a refused cap
    leaves the caps as they were.
    """
    for name, cap in (("dimension", dim_cap), ("order", order_cap)):
        if cap is not None and cap <= 0:
            raise ValueError(f"{name} cap must be positive")
    dim, order = _CAPS.get()
    token = _CAPS.set((dim_cap or dim, order_cap or order))
    try:
        yield
    finally:
        _CAPS.reset(token)


def check_dim_cap(dim):
    cap = dim_cap()
    if dim > cap:
        raise CapExceeded(f"module dimension {dim} exceeds cap {cap}")
    return dim


def check_order_cap(p, rank):
    """Refuse |E| = p^rank > cap; for p >= 2 a rank past the cap's bit length
    is refused without forming p^rank."""
    cap = order_cap()
    if rank > cap.bit_length() or p**rank > cap:
        raise CapExceeded(f"group order {p}^{rank} exceeds cap {cap}")
