"""Runtime limits and seeded-randomness defaults.

Resolution sizes grow with the input dimension, so every
module constructor checks the dimension cap and every group constructor
checks the order cap; both fail fast with CapExceeded.  The caps are
process-wide and mutable; the CLI sets them from flags for one call and
restores them when it returns.
"""

from .errors import CapExceeded

DEFAULT_DIM_CAP = 4096
DEFAULT_ORDER_CAP = 3125
DEFAULT_SEED = 0

_dim_cap = DEFAULT_DIM_CAP
_order_cap = DEFAULT_ORDER_CAP


def dim_cap():
    return _dim_cap


def order_cap():
    return _order_cap


def set_caps(dim_cap=None, order_cap=None):
    global _dim_cap, _order_cap
    if dim_cap is not None:
        if dim_cap <= 0:
            raise ValueError("dimension cap must be positive")
        _dim_cap = dim_cap
    if order_cap is not None:
        if order_cap <= 0:
            raise ValueError("order cap must be positive")
        _order_cap = order_cap


def check_dim_cap(dim):
    if dim > _dim_cap:
        raise CapExceeded(f"module dimension {dim} exceeds cap {_dim_cap}")
    return dim


def check_order_cap(p, rank):
    """Refuse |E| = p^rank > cap; for p >= 2 a rank past the cap's bit length
    is refused without forming p^rank."""
    if rank > _order_cap.bit_length() or p**rank > _order_cap:
        raise CapExceeded(f"group order {p}^{rank} exceeds cap {_order_cap}")
