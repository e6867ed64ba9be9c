"""Seeded generation of valid random modules.

Sampling commuting tuples of order-p matrices directly almost never
succeeds, so random modules are built as submodules of free modules:
closures of a few seeded general vectors, then topped up one dimension
at a time with vectors that are socle elements modulo the span built so
far (such a vector always exists and its closure adds exactly one
dimension).  The result is valid by construction and exact in dimension.
"""

from __future__ import annotations

import numpy as np

from .errors import InternalError
from .groups import Group
from .linalg import Mat, complement_projection, nullspace, row_space, vstack
from .modules import (
    Module,
    free_module,
    module_closure,
    submodule,
    trivial_module,
)


def random_module(p: int, rank: int, dim: int, seed: int) -> Module:
    """A valid module of exactly the requested dimension, deterministic in seed."""
    group = Group(p, rank)
    if dim < 0:
        raise ValueError("dimension must be >= 0")
    if dim == 0:
        return trivial_module(group, 0)
    t = dim // group.order + 2
    free = free_module(group, t)
    for offset in range(100):
        rng = np.random.default_rng([seed, offset])
        rows = _sample_rows(free, dim, rng)
        if rows is not None:
            sub, _ = submodule(free, rows)
            bad = sub.defect
            if bad is not None:
                raise InternalError(f"random submodule failed validation: {bad}")
            return sub
    raise InternalError(f"no dimension-{dim} submodule found in 100 attempts")


def _sample_rows(free: Module, dim: int, rng) -> Mat | None:
    p = free.group.p
    rows = Mat.zeros(p, 0, free.dim)
    for _ in range(int(rng.integers(1, 4))):
        v = rng.integers(0, p, size=free.dim)
        cand = module_closure(free, Mat(p, np.vstack([rows.a, v[None, :]])))
        if cand.rows <= dim:
            rows = cand
        if rows.rows == dim:
            return rows
    while rows.rows < dim:
        soc = _socle_over(free, rows)
        for _ in range(50):
            coeffs = rng.integers(0, p, size=soc.cols)
            v = (soc.a @ coeffs) % p
            stacked = row_space(Mat(p, np.vstack([rows.a, v[None, :]])))
            if stacked.rows == rows.rows + 1:
                rows = stacked
                break
        else:
            return None
    return rows


def _socle_over(free: Module, rows: Mat) -> Mat:
    """Column basis of {v : (A_i - I) v lies in the row span, for all i}.

    Any such v outside the span generates, modulo the span, exactly one
    new dimension.
    """
    rho, _ = complement_projection(rows)
    # A e_x = e_sigma[x], so rho A gathers the columns of rho by sigma
    return nullspace(vstack([Mat(rows.p, rho.a[:, sigma] - rho.a) for sigma in free.perms]))
