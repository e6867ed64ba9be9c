"""Elementary abelian groups E = (C_p)^r and their subgroups.

E is identified with the vector space F_p^r written additively, so
subgroups are exactly F_p-subspaces.  Group elements are exponent
vectors, enumerated in lexicographic order; a subgroup is stored by the
reduced row echelon basis of its subspace, which doubles as its
canonical sorting key.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import config
from .errors import GroupMismatch
from .linalg import Mat, check_prime, non_pivots, nullspace, row_space


@dataclass(frozen=True)
class Group:
    """(C_p)^r with the standard generators e_1, ..., e_r."""

    p: int
    rank: int

    def __post_init__(self):
        # cheap checks first: the order cap bounds p before check_prime trial-divides it
        if not isinstance(self.p, (int, np.integer)) or self.p < 2:
            raise ValueError(f"{self.p!r} is not a prime")
        if not isinstance(self.rank, (int, np.integer)) or self.rank < 1:
            raise ValueError("group rank must be >= 1")
        config.check_order_cap(self.p, self.rank)
        check_prime(self.p)

    @property
    def order(self) -> int:
        return self.p**self.rank

    def elements(self) -> tuple[tuple[int, ...], ...]:
        return _elements(self.p, self.rank)

    def steps(self) -> tuple[tuple[int, int], ...]:
        """The walk over E: one (i, prev) per nonzero element, in element order.

        Entry k belongs to the element x of index k + 1; i is the first
        nonzero coordinate of x and prev the index of x - e_(i+1), which
        comes earlier.  So anything indexed by E is filled in one pass,
        applying the single generator e_(i+1) to the value at prev.
        """
        return _steps(self.p, self.rank)

    def generator(self, i: int) -> tuple[int, ...]:
        """The exponent vector of e_i (1-based i)."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"generator index {i} out of range 1..{self.rank}")
        return tuple(1 if j == i - 1 else 0 for j in range(self.rank))


@lru_cache(maxsize=None)
def _elements(p, rank):
    return tuple(itertools.product(range(p), repeat=rank))


@lru_cache(maxsize=None)
def _steps(p, rank):
    # the first nonzero coordinate is i exactly for the indices in [s, p s),
    # s = p^(rank-1-i), and subtracting e_(i+1) subtracts s from the index
    out = []
    for i in reversed(range(rank)):
        s = p ** (rank - 1 - i)
        out.extend((i, idx - s) for idx in range(s, p * s))
    return tuple(out)


class Subgroup:
    """A subgroup H <= E, stored as the rref basis of its subspace."""

    __slots__ = ("group", "basis", "key")

    def __init__(self, group: Group, rows):
        basis = row_space(Mat(group.p, rows)) if len(rows) else Mat.zeros(group.p, 0, group.rank)
        if basis.cols != group.rank:
            raise GroupMismatch(f"basis rows must have length {group.rank}")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "basis", basis)
        # canonical sort key: (dim, flattened rref basis)
        object.__setattr__(self, "key", (basis.rows, tuple(basis.a.reshape(-1).tolist())))

    def __setattr__(self, name, value):
        raise AttributeError("Subgroup is immutable")

    @classmethod
    def trivial(cls, group):
        return cls(group, [])

    @classmethod
    def full(cls, group):
        return cls(group, Mat.identity(group.p, group.rank).a)

    @classmethod
    def coordinate_hyperplane(cls, group, i):
        """span{e_j : j != i} (1-based i): the paper-style coordinate subgroup."""
        rows = [group.generator(j) for j in range(1, group.rank + 1) if j != i]
        return cls(group, rows)

    @property
    def dim(self) -> int:
        return self.basis.rows

    @property
    def index(self) -> int:
        """[E : H] = p^(r - dim H)."""
        return self.group.p ** (self.group.rank - self.dim)

    def __eq__(self, other):
        return isinstance(other, Subgroup) and (self.group, self.key) == (other.group, other.key)

    def __hash__(self):
        return hash((self.group, self.key))

    def __repr__(self):
        rows = ["".join(str(int(x)) for x in row) for row in self.basis.a]
        return "{" + ",".join(rows) + "}"

    def is_trivial(self):
        return self.dim == 0

    def is_full(self):
        return self.dim == self.group.rank

    def pivots(self):
        return tuple(int(r.tolist().index(1)) for r in self.basis.a) if self.dim else ()

    def free_coords(self):
        """Coordinates complementary to the pivots, in increasing order."""
        return tuple(non_pivots(self.group.rank, self.pivots()).tolist())

    def reduce(self, vec):
        """The canonical coset representative of vec + H (zero on all pivots).

        An n x r array gives the n x r array of its rows' representatives.
        One product clears every pivot: each rref row is zero on the others'.
        """
        v = np.asarray(vec, dtype=np.int64)
        out = (v - v[..., list(self.pivots())] @ self.basis.a) % self.group.p
        return tuple(out.tolist()) if out.ndim == 1 else out

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    def coset_reps(self) -> tuple[tuple[int, ...], ...]:
        """Canonical representatives in lexicographic order: the elements zero on every pivot."""
        pivots = self.pivots()
        return tuple(x for x in self.group.elements() if not any(x[c] for c in pivots))

    def translations(self) -> tuple[np.ndarray, ...]:
        """How each generator moves the cosets of H.

        Entry i - 1 is the index vector sigma of e_i on ``coset_reps()``:
        e_i + reps[x] lies in the coset of reps[sigma[x]].  The reps are
        lexicographic in their free coordinates: an index is those, base p.
        """
        reps = np.array(self.coset_reps(), dtype=np.int64)
        free = list(self.free_coords())
        weights = self.group.p ** np.arange(len(free) - 1, -1, -1)
        return tuple(
            self.reduce(reps + e_i)[:, free] @ weights
            for e_i in np.eye(self.group.rank, dtype=np.int64)
        )

    def __add__(self, other):
        """Subspace sum H + K."""
        self._check_group(other)
        rows = list(self.basis.a) + list(other.basis.a)
        return Subgroup(self.group, rows)

    def intersect(self, other):
        """H ∩ K via annihilators: (ann H + ann K) annihilated again."""
        self._check_group(other)
        return (self.annihilator() + other.annihilator()).annihilator()

    def annihilator(self):
        """{v : <h, v> = 0 for all h in H} under the standard bilinear form."""
        return Subgroup(self.group, nullspace(self.basis).a.T)

    def _check_group(self, other):
        if self.group != other.group:
            raise GroupMismatch("subgroups of different groups")


@lru_cache(maxsize=None)
def all_subgroups(group: Group) -> tuple[Subgroup, ...]:
    """Every subgroup of E, sorted by the canonical key, memoised per group.

    Breadth-first closure: repeatedly extend known subspaces by one
    vector.  Fine for the capped group orders.
    """
    elements = group.elements()
    seen = {Subgroup.trivial(group)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for sub in frontier:
            for vec in elements:
                if not sub.contains(vec):
                    bigger = Subgroup(group, list(sub.basis.a) + [list(vec)])
                    if bigger not in seen:
                        seen.add(bigger)
                        nxt.append(bigger)
        frontier = nxt
    return tuple(sorted(seen, key=lambda s: s.key))
