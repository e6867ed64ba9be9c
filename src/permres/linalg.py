"""Exact dense linear algebra over prime fields F_p.

Matrices are immutable int64 numpy arrays with every entry reduced to
{0, ..., p-1}.  All arithmetic is exact.  Products are evaluated in
float64 so that BLAS does the work; this is exact as long as
(p-1)^2 * inner_dim stays below 2^53, which holds for every p the default
order cap admits.  Beyond that bound (a large p under a raised cap) the
product is taken over Python integers and reduced mod p, exact but slow.
Every p is a prime below 2^31 (``check_prime``), so the int64 products
of two residues that elimination forms never overflow.

Every elimination goes through ``_echelon``: ``rref``, ``row_space``,
``nullspace`` and ``solve`` (through ``solve_pivots``, which also
returns the pivots of the matrix solved) read its reduced form, and
``rank`` and ``rank_profile`` only its pivot columns.  Below
``_ROUND_MIN`` (12) rows or columns, and wherever p^2 * cols reaches
2^50, it clears one pivot column per step on int64 rows
(``_pivot_loop``).  Otherwise it eliminates in pivot rounds on float64
arrays (``_pivot_rounds``): a round takes every distinct leading column
as a pivot at once, and clears those columns with BLAS products.  Every
sum stays below p^2 * cols in absolute value, so the products are exact,
and ``_mod`` reduces them exactly below 2^50.  On the benchmark
workloads an elimination takes one to seven rounds, most often one or
two.
``block_matrix`` is the one dense block layout, zero-filling the blocks
not given: ``block_diag`` is its diagonal case, and the maps of cones,
tensor complexes and direct sums are assembled with it.

Conventions (all deterministic, so downstream outputs are golden-testable):

* ``rref`` normalises pivots to 1 and eliminates above and below.
* ``nullspace`` returns the basis read off the rref free variables in
  increasing column order, with the free variable set to 1.
* ``solve`` returns the particular solution with all free variables 0,
  or ``None`` when the system is inconsistent.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import DimensionMismatch, InternalError

_FLOAT_EXACT_BOUND = 2**53
_ROUND_EXACT_BOUND = 2**50
_ROUND_MIN = 12  # the smaller side from which elimination runs in pivot rounds
_PRIME_BOUND = 2**31


def is_prime(n: int) -> bool:
    """Primality by trial division, at most sqrt(n) steps."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_prime(p: int) -> int:
    """p itself, if it is a prime below 2^31; otherwise ValueError.

    The bound keeps elimination exact in int64, where a row update forms
    products of two residues, and it keeps the trial division to at most
    46,341 steps.
    """
    if not isinstance(p, (int, np.integer)):  # so the memo is keyed by ints alone
        raise ValueError(f"{p!r} is not a prime")
    return _checked_prime(int(p))


@lru_cache(maxsize=None)
def _checked_prime(p: int) -> int:
    if p >= _PRIME_BOUND:
        raise ValueError(f"p = {p} is not below 2^31, the largest field size supported")
    if not is_prime(p):
        raise ValueError(f"{p!r} is not a prime")
    return p


class Mat:
    """An immutable rows x cols matrix over F_p."""

    __slots__ = ("p", "a")

    def __init__(self, p, data):
        p = check_prime(p)
        a = np.array(data, dtype=np.int64)
        if a.ndim != 2:
            raise ValueError(f"expected a 2d array, got shape {a.shape}")
        a %= p
        a.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "a", a)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    @staticmethod
    def _wrap(p: int, a: np.ndarray) -> "Mat":
        """Internal fast path: a must already be int64, reduced, and owned."""
        m = object.__new__(Mat)
        a.setflags(write=False)
        object.__setattr__(m, "p", p)
        object.__setattr__(m, "a", a)
        return m

    @classmethod
    def zeros(cls, p, rows, cols):
        return cls._wrap(check_prime(p), np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, p, n):
        return cls._wrap(check_prime(p), np.eye(n, dtype=np.int64))

    @property
    def rows(self):
        return self.a.shape[0]

    @property
    def cols(self):
        return self.a.shape[1]

    @property
    def shape(self):
        return self.a.shape

    @property
    def T(self):
        return Mat._wrap(self.p, self.a.T.copy())

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.p == other.p
            and self.shape == other.shape
            and np.array_equal(self.a, other.a)
        )

    def __hash__(self):
        return hash((self.p, self.shape, self.a.tobytes()))

    def __repr__(self):
        return f"Mat(p={self.p}, {self.a.tolist()})"

    def _check_field(self, other):
        if self.p != other.p:
            raise DimensionMismatch(f"mixed fields F_{self.p} and F_{other.p}")

    def __add__(self, other):
        self._check_field(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"add {self.shape} vs {other.shape}")
        return Mat._wrap(self.p, (self.a + other.a) % self.p)

    def __sub__(self, other):
        self._check_field(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"sub {self.shape} vs {other.shape}")
        return Mat._wrap(self.p, (self.a - other.a) % self.p)

    def __neg__(self):
        return Mat._wrap(self.p, (-self.a) % self.p)

    def scale(self, k: int):
        return Mat._wrap(self.p, (self.a * (int(k) % self.p)) % self.p)

    def __matmul__(self, other):
        self._check_field(other)
        if self.cols != other.rows:
            raise DimensionMismatch(f"matmul {self.shape} @ {other.shape}")
        return Mat._wrap(self.p, _matmul_mod(self.a, other.a, self.p))

    def kron(self, other):
        self._check_field(other)
        return Mat._wrap(self.p, kron(self.a, other.a) % self.p)

    def is_zero(self):
        return not self.a.any()

    def is_identity(self):
        return self.rows == self.cols and np.array_equal(self.a, np.eye(self.rows, dtype=np.int64))

    def take_rows(self, idx):
        return Mat._wrap(self.p, self.a[np.asarray(idx, dtype=np.intp)].copy())

    def take_cols(self, idx):
        return Mat._wrap(self.p, self.a[:, np.asarray(idx, dtype=np.intp)].copy())

    def col(self, j):
        return Mat._wrap(self.p, self.a[:, j : j + 1].copy())


def kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The Kronecker product of two 2d arrays, unreduced: one broadcast product, one reshape."""
    rows, cols = x.shape[0] * y.shape[0], x.shape[1] * y.shape[1]
    return (x[:, None, :, None] * y[None, :, None, :]).reshape(rows, cols)


def _matmul_mod(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    inner = x.shape[1]
    if inner == 0 or x.shape[0] == 0 or y.shape[1] == 0:
        return np.zeros((x.shape[0], y.shape[1]), dtype=np.int64)
    if (p - 1) * (p - 1) * inner < _FLOAT_EXACT_BOUND:
        prod = x.astype(np.float64) @ y.astype(np.float64)
        return np.rint(prod).astype(np.int64) % p
    # int64 would overflow here; Python integers do not
    return (x.astype(object) @ y.astype(object) % p).astype(np.int64)


def mat_pow(m: Mat, e: int) -> Mat:
    """m^e by left-to-right binary powering: one square per bit after the
    leading one, and one product by m per further set bit."""
    if m.rows != m.cols:
        raise DimensionMismatch("matrix power needs a square matrix")
    e = int(e)
    if e < 0:
        raise ValueError(f"matrix power needs an exponent >= 0, got {e}")
    if e == 0:
        return Mat.identity(m.p, m.rows)
    result = m
    for bit in bin(e)[3:]:
        result = result @ result
        if bit == "1":
            result = result @ m
    return result


def hstack(mats):
    mats = list(mats)
    p = mats[0].p
    for m in mats[1:]:
        if m.p != p or m.rows != mats[0].rows:
            raise DimensionMismatch("hstack needs equal fields and row counts")
    return Mat._wrap(p, np.hstack([m.a for m in mats]))


def vstack(mats):
    mats = list(mats)
    p = mats[0].p
    for m in mats[1:]:
        if m.p != p or m.cols != mats[0].cols:
            raise DimensionMismatch("vstack needs equal fields and column counts")
    return Mat._wrap(p, np.vstack([m.a for m in mats]))


def block_matrix(p, heights, widths, parts):
    """Block rows ``heights`` high, block columns ``widths`` wide, and block
    (i, j) ``parts[i, j]`` or zero; a single part filling it comes back as is."""
    rows_at, cols_at = [0, *accumulate(heights)], [0, *accumulate(widths)]
    shape = (rows_at[-1], cols_at[-1])
    for (i, j), m in parts.items():
        want = (heights[i], widths[j])
        if m.p != p or m.shape != want:
            raise DimensionMismatch(f"block ({i}, {j}) is F_{m.p} {m.shape}, not F_{p} {want}")
    if len(parts) == 1 and m.shape == shape:
        return m  # the loop's one part fills the matrix
    out = np.zeros(shape, dtype=np.int64)
    for (i, j), m in parts.items():
        out[rows_at[i] : rows_at[i + 1], cols_at[j] : cols_at[j + 1]] = m.a
    return Mat._wrap(p, out)


def block_diag(p, mats):
    mats = list(mats)
    parts = {(k, k): m for k, m in enumerate(mats)}
    return block_matrix(p, [m.rows for m in mats], [m.cols for m in mats], parts)


def _echelon(a: np.ndarray, p: int, reduced: bool):
    """Gaussian elimination; returns (echelon form, pivot column list).

    The form is the rref when ``reduced``, else a row echelon form whose
    nonzero rows lead with 1 at the pivots; the module docstring says
    which of ``_pivot_loop`` and ``_pivot_rounds`` makes it.
    """
    rows, cols = np.shape(a)
    if min(rows, cols) < _ROUND_MIN or p * p * cols >= _ROUND_EXACT_BOUND:
        return _pivot_loop(np.array(a, dtype=np.int64), p, reduced)
    return _pivot_rounds(np.asarray(a, dtype=np.float64), p, reduced)


def _pivot_loop(a: np.ndarray, p: int, reduced: bool):
    """``_echelon`` one pivot column per step, in place on the int64 array a."""
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = a[r:, c].nonzero()[0]
        if not nz.size:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i], c:] = a[[i, r], c:]
        v = int(a[r, c])
        if v != 1:
            a[r, c:] = a[r, c:] * pow(v, -1, p) % p
        if reduced:
            # zero the pivot for the scan, so that row r is not its own target
            a[r, c] = 0
            targets = a[:, c].nonzero()[0]
            a[r, c] = 1
        else:
            targets = r + 1 + a[r + 1 :, c].nonzero()[0]
        if targets.size:
            a[targets, c:] = (a[targets, c:] - a[targets, c, None] * a[r, c:]) % p
        pivots.append(c)
        r += 1
    return a, pivots


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p, in place, for a float64 array of integers below 2^50 in
    absolute value.

    floor(x / p + 1/(2p)) is floor(x / p) exactly: x / p sits at least
    1/(2p) inside its unit interval after the shift, and the three
    roundings err by under 1/(2p) below 2^50.  It is several times
    faster than ``%`` on floats.
    """
    q = x * (1.0 / p)
    q += 0.5 / p
    np.floor(q, out=q)
    q *= p
    x -= q
    return x


def _pivot_rounds(w: np.ndarray, p: int, reduced: bool):
    """``_echelon`` of the float64 array w in pivot rounds.

    A round takes, for each distinct leading column of the rows left, the
    first row that leads there.  Those rows S, scaled to lead with 1, and
    their leading columns P meet in a unit upper-triangular block
    D = I - M with M nilpotent, so the rows are independent, and D^-1 is
    (I + M)(I + M^2)(I + M^4)... up to the first vanishing power.  The
    other rows O become O - O[:, P] D^-1 S, zero on P.  A reduced round
    applies the series to S and stores the rows D^-1 S, which are the
    identity on P, and clears P from the earlier pivot rows the same way;
    an unreduced one applies it to O[:, P] instead, and stores S as
    its echelon rows.  Row operations keep every
    column relation, so the leading columns found are the pivots of a.
    Every entry stays below p^2 * cols in absolute value, which the
    dispatch keeps under 2^50, so the products are exact and ``_mod``
    reduces them exactly.
    """
    rows, cols = w.shape
    found, pivots = [], []  # the pivot rows and their columns, round by round
    while True:
        w = w[w.any(axis=1)]
        if not w.size:
            break
        lead = (w != 0).argmax(axis=1)
        # a stable sort by leading column puts the first row of each group first
        order = lead.argsort(kind="stable")
        ordered = lead[order]
        first = np.ones(ordered.size, dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        at, cs = order[first], ordered[first]
        s = w[at]
        if p != 2:
            inv = [pow(v, -1, p) for v in s[np.arange(at.size), cs].astype(np.int64).tolist()]
            s = _mod(s * np.array(inv, dtype=np.float64)[:, None], p)
        w = w[order[~first]]
        if reduced or w.size:
            mult = _mod(-s[:, cs], p)
            mult.flat[:: at.size + 1] = 0
        if reduced:
            while mult.any():
                s = _mod(s + mult @ s, p)
                mult = _mod(mult @ mult, p)
            found = [_mod(f - f[:, cs] @ s, p) for f in found]
            if w.size:
                w = _mod(w - w[:, cs] @ s, p)
        elif w.size:
            y = w[:, cs]
            while mult.any():
                y = _mod(y + y @ mult, p)
                mult = _mod(mult @ mult, p)
            w = _mod(w - y @ s, p)
        found.append(s)
        pivots.append(cs)
    out = np.zeros((rows, cols), dtype=np.int64)
    if not found:
        return out, []
    pivots = np.concatenate(pivots)
    order = pivots.argsort()
    out[: order.size] = np.vstack(found)[order]
    return out, pivots[order].tolist()


def rref(m: Mat):
    """Reduced row echelon form; returns (R, rank, pivot columns)."""
    a, pivots = _echelon(m.a, m.p, reduced=True)
    return Mat._wrap(m.p, a), len(pivots), tuple(pivots)


def rank_profile(m: Mat) -> tuple[int, tuple[int, ...]]:
    """(rank, pivot columns of the echelon form) of m.

    The pivots are the column rank profile: a pivot column is not in the
    span of the columns before it, so any echelon form gives the same.
    """
    pivots = _echelon(m.a, m.p, reduced=False)[1]
    return len(pivots), tuple(pivots)


def rank(m: Mat) -> int:
    return rank_profile(m)[0]


def row_space(m: Mat) -> Mat:
    """Canonical basis of the row space: nonzero rows of the rref."""
    a, pivots = _echelon(m.a, m.p, reduced=True)
    return Mat._wrap(m.p, a[: len(pivots)].copy())


def complement_projection(rows: Mat):
    """(rho, pivots): rho v is v reduced modulo the row span of ``rows``.

    ``pivots`` are the pivot columns of rref(rows); rho subtracts from v
    the multiples of the rref rows that clear its pivot coordinates, so
    rho v depends only on v modulo the span and vanishes on the pivots.
    """
    red, s, pivots = rref(rows)
    rho = np.eye(rows.cols, dtype=np.int64)
    rho[:, list(pivots)] -= red.a[:s].T
    return Mat._wrap(rows.p, rho % rows.p), pivots


def non_pivots(n: int, pivots) -> np.ndarray:
    """The columns 0..n-1 that are not pivots, in increasing order."""
    keep = np.ones(n, dtype=bool)
    keep[list(pivots)] = False
    return keep.nonzero()[0]


def nullspace(m: Mat) -> Mat:
    """Columns form the canonical basis of {x : m x = 0}."""
    a, pivots = _echelon(m.a, m.p, reduced=True)
    free = non_pivots(m.cols, pivots)
    out = np.zeros((m.cols, free.size), dtype=np.int64)
    out[free, np.arange(free.size)] = 1
    out[pivots] = -a[: len(pivots), free] % m.p
    return Mat._wrap(m.p, out)


def solve(a: Mat, b: Mat):
    """Canonical X with a @ X = b (free variables 0), or None if unsolvable."""
    return solve_pivots(a, b)[0]


def solve_pivots(a: Mat, b: Mat):
    """(``solve(a, b)``, the pivot columns of a), from one elimination of [a | b]."""
    if a.p != b.p:
        raise DimensionMismatch(f"mixed fields F_{a.p} and F_{b.p}")
    if a.rows != b.rows:
        raise DimensionMismatch(f"solve: {a.rows} rows vs {b.rows} rows")
    n = a.cols
    red, pivots = _echelon(np.hstack([a.a, b.a]), a.p, reduced=True)
    # pivots increase, so those among the columns of b come last
    k = bisect_left(pivots, n)
    if k < len(pivots):
        return None, tuple(pivots[:k])
    x = np.zeros((n, b.cols), dtype=np.int64)
    x[pivots] = red[:k, n:]
    return Mat._wrap(a.p, x), tuple(pivots)


def inverse(m: Mat) -> Mat:
    if m.rows != m.cols:
        raise DimensionMismatch("inverse of a non-square matrix")
    x = solve(m, Mat.identity(m.p, m.rows))
    if x is None:
        raise InternalError("matrix expected to be invertible is singular")
    return x


def permutation_vector(m: Mat):
    """sigma with m e_x = e_{sigma[x]} if m is a permutation matrix, else None.

    Two passes over the entries: every column's first largest entry is a 1
    and there are only n nonzero entries, so each column holds one 1 and
    nothing else; sigma then hits every row, so each row holds one 1.
    """
    n = m.rows
    if m.cols != n:
        return None
    if not n:
        return np.zeros(0, dtype=np.intp)
    a = m.a
    sigma = a.argmax(axis=0)
    if np.count_nonzero(a) != n or not (a[sigma, np.arange(n)] == 1).all():
        return None
    hit = np.zeros(n, dtype=bool)
    hit[sigma] = True
    return sigma if hit.all() else None


def permutation_matrix(p: int, sigma) -> Mat:
    """The matrix with m e_x = e_{sigma[x]}: the inverse of ``permutation_vector``."""
    n = len(sigma)
    a = np.zeros((n, n), dtype=np.int64)
    a[np.asarray(sigma, dtype=np.intp), np.arange(n)] = 1
    return Mat._wrap(check_prime(p), a)


def first_non_permutation_row(m: Mat):
    """Index of the first row witnessing that m is not a permutation matrix."""
    a = m.a
    if m.rows != m.cols:
        return 0
    bad = np.flatnonzero((a.sum(axis=1) != 1) | ((a != 0) & (a != 1)).any(axis=1))
    if bad.size:
        return int(bad[0])
    bad_col = np.flatnonzero(a.sum(axis=0) != 1)
    if bad_col.size:
        # some row repeats; report the second row hitting that column
        col = int(bad_col[0])
        hits = np.flatnonzero(a[:, col])
        return int(hits[1]) if hits.size > 1 else int(hits[0]) if hits.size else 0
    return None
