"""Symbolic permutation modules (+)_j k(E/H_j) and their realizations.

A descriptor is a multiset of subgroups, one per transitive summand; its
realization is the ``block_sum`` of one ``modules.coset_module`` per
part, the one builder of k(E/H), memoised per subgroup, so a realized
module is stored as index vectors and each k(E/H) is built once.
``recognize_all`` goes the other way, for all the terms of a complex
at once, and ``recognize`` is its one-module case.  It reads each
module's ``perms``, the vectors every permutation module holds, proved
permutations when it was made, and its ``defect``, the relations of E
checked once per module.  Then it moves every basis point of their block sum
through E in one ``modules.element_images`` walk (which follows
``Group.steps``), names each orbit by its smallest point and builds one
``Subgroup`` per distinct stabilizer of the whole complex.  Coset
representatives are the vectors supported on the non-pivot coordinates
of the subgroup's rref basis, in lexicographic order, so realizations
are bit-reproducible.

A complex's tags are descriptors.  A ``TaggedModule`` adds the basis:
two int arrays naming each basis vector's part and the lexicographic
index in E of its coset's representative, made by ``realize`` or read
off the orbit walk, only where a solve reads them.
``mackey_tensor`` is memoised: a tensor complex meets each pair of parts
in many degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import config
from .errors import GroupMismatch, InternalError
from .groups import Group, Subgroup
from .linalg import Mat, non_pivots, solve_pivots
from .modules import (
    Module,
    block_sum,
    coset_module,
    element_images,
    fixed_points,
    orbit_columns,
)


@dataclass(frozen=True)
class PermutationDescriptor:
    """A multiset of subgroups naming (+)_j k(E/H_j), sorted so ``==`` compares multisets."""

    group: Group
    parts: tuple[Subgroup, ...]

    def __post_init__(self):
        for part in self.parts:
            if part.group != self.group:
                raise GroupMismatch("descriptor part over a different group")
        object.__setattr__(
            self, "parts", tuple(sorted(self.parts, key=lambda s: s.key))
        )

    @property
    def dim(self) -> int:
        return sum(part.index for part in self.parts)

    def is_free(self) -> bool:
        return all(part.is_trivial() for part in self.parts)

    def __repr__(self):
        return "[" + " + ".join(repr(p) for p in self.parts) + "]"


@dataclass(frozen=True, eq=False)
class TaggedModule:
    """A module together with a permutation basis, from ``realize`` or ``recognize_all``.

    ``parts`` lists the transitive summands.  Basis vector k stands for
    the coset g H of H = ``parts[part_of[k]]`` whose canonical
    representative g has lexicographic index ``element[k]`` in E, so
    ``element == 0`` marks each part's coset H itself; those come in
    part order.  Both arrays are write-protected.
    """

    module: Module
    parts: tuple[Subgroup, ...]
    part_of: np.ndarray
    element: np.ndarray

    def __post_init__(self):
        self.part_of.setflags(write=False)
        self.element.setflags(write=False)

    @property
    def descriptor(self) -> PermutationDescriptor:
        return PermutationDescriptor(self.module.group, self.parts)

    @property
    def base(self) -> np.ndarray:
        """The position of each part's coset H itself, in part order."""
        return np.flatnonzero(self.element == 0)


def realize(d: PermutationDescriptor) -> TaggedModule:
    """The explicit module on the concatenated coset bases of the parts."""
    group = d.group
    config.check_dim_cap(d.dim)
    module = block_sum(group, [coset_module(part) for part in d.parts])
    part_of = np.repeat(np.arange(len(d.parts)), [part.index for part in d.parts])
    reps = np.array([rep for part in d.parts for rep in part.coset_reps()], dtype=np.int64)
    element = reps.reshape(-1, group.rank) @ group.p ** np.arange(group.rank - 1, -1, -1)
    return TaggedModule(module=module, parts=d.parts, part_of=part_of, element=element)


def recognize(m: Module) -> TaggedModule:
    """Certify the basis-level permutation structure and read off the tag.

    The one-module case of ``recognize_all``, which says what it raises
    and how the parts and the basis are read.
    """
    return recognize_all((m,))[0]


def recognize_all(modules) -> tuple[TaggedModule, ...]:
    """``recognize`` of each module, from one orbit walk over their block sum.

    Raises NotPermutationBasis (with the offending generator and row) if
    some generator matrix is not a permutation matrix, and InternalError
    if the generators do not satisfy the relations of E or an orbit's size
    is not the index of its stabilizer; the modules are checked in order,
    so the error is the first failing module's own.  Parts are ordered by
    their smallest basis index; coset representatives are canonical.  One
    walk over E moves every basis point of every module at once: orbits
    never cross the blocks of a block sum, so each module's orbits are
    those starting in its block.  Each orbit is named by its smallest
    point, its stabilizer is the set of elements fixing that point, and
    one ``Subgroup`` serves every orbit with the same stabilizer.
    """
    modules = tuple(modules)
    if not modules:
        return ()
    group = modules[0].group
    if any(m.group != group for m in modules):
        raise GroupMismatch("recognition across different groups")
    for m in modules:
        m.require_perms()
        bad = m.defect
        if bad is not None:
            raise InternalError(f"the generators do not act as E: {bad}")
    offsets = np.cumsum([0] + [m.dim for m in modules])
    perms = np.concatenate([m.perms + off for m, off in zip(modules, offsets)], axis=1)
    d = int(offsets[-1])
    elements = np.array(group.elements(), dtype=np.int64).reshape(group.order, group.rank)
    # images[idx(v), k]: where the group element v sends basis point k
    images = element_images(group, perms, np.arange(d))
    starts, part_of = np.unique(images.min(axis=0), return_inverse=True)
    walks = images[:, starts]
    # fixes[j, idx(v)]: v fixes the start of orbit j; equal rows, one Subgroup
    fixes = np.ascontiguousarray((walks == starts).T)
    keys = fixes.view(np.dtype((np.void, group.order))).ravel()
    _, first_orbit, stab_of = np.unique(keys, return_index=True, return_inverse=True)
    stabs = [Subgroup(group, elements[fixes[j]]) for j in first_orbit]
    # module k's orbits are those numbered first[k] to first[k + 1] - 1
    first = np.searchsorted(starts, offsets)
    index = np.array([h.index for h in stabs], dtype=np.int64)[stab_of]
    size = np.bincount(part_of, minlength=starts.size)
    if not np.array_equal(size, index):
        j = int(np.flatnonzero(size != index)[0])
        local = starts[j] - offsets[np.searchsorted(offsets, starts[j], side="right") - 1]
        raise InternalError(f"orbit of index {local} has size {size[j]}, expected {index[j]}")
    # The elements carrying a start to a point form a coset v + H.  Its
    # lexicographically first element is zero on the pivots of H's rref
    # basis (each pivot entry can be cleared without touching an earlier
    # coordinate), so ``argmax`` finds the index of ``H.reduce(v)`` in E.
    element = (walks[:, part_of] == np.arange(d)).argmax(axis=0)
    stab_of = stab_of.tolist()
    return tuple(
        TaggedModule(
            module=m,
            parts=tuple(stabs[s] for s in stab_of[first[k] : first[k + 1]]),
            part_of=part_of[offsets[k] : offsets[k + 1]] - first[k],
            element=element[offsets[k] : offsets[k + 1]],
        )
        for k, m in enumerate(modules)
    )


class LiftRows:
    """The rows that decide each degree of one chain-map lift, carried up its degrees.

    Degree j of a lift into P solves d_j F y = b, one row per basis
    vector of P_(j-1) (of M at degree 0).  For j >= 1 the columns of
    d_j F and b lie in ker d_(j-1), with d_0 the augmentation, and a
    vector there is fixed by its coordinates off the pivot columns of
    d_(j-1).  So the free part (F = I) is solved on those rows alone,
    with the pivots that the free part's solve at degree j-1 found among
    the columns of d_(j-1); where degree j-1 had no free part, on every
    row.  For H != 1 both sides are H-fixed vectors of a permutation
    module, fixed by one coordinate per H-orbit, so the system keeps one
    row per orbit, read off the ``fixed_points(P_(j-1), H)`` that degree
    j-1 made, or made here.  As P is a complex, the kept rows span the
    row space of the whole system, whose reduced echelon form is unique,
    so every solution, and every verdict that none exists, is the whole
    system's.  ``solve_equivariant`` reads ``keep`` and moves it a degree up.
    """

    def __init__(self):
        self.below = None  # P_(j-1); None at degree 0, whose rows index M
        self.pivots = None  # the pivot columns of d_(j-1), if the free part was solved
        self.fixed = {}  # H -> fixed_points(P_(j-1), H)

    def keep(self, h: Subgroup):
        """The rows to keep for the parts over h, or None for all of them."""
        below = self.below
        if below is None:
            return None
        if h.is_trivial():
            return None if self.pivots is None else non_pivots(below.dim, self.pivots)
        if below.perms is None:
            return None
        f = self.fixed.get(h)
        if f is None:
            f = fixed_points(below, h)
        # one point of each orbit: its smallest
        return f.a.argmax(axis=0)


def solve_equivariant(
    tag: TaggedModule, target: Module, d: Mat, rhs: Mat, rows: LiftRows | None = None
):
    """The canonical module map X : tag.module -> target with d X = rhs.

    ``rhs`` is a module map out of the tagged module, given by its
    columns at the parts' cosets H themselves (``tag.base``), in part
    order.  A map out of k(E/H) is fixed by the image x of the coset H,
    and x only has to be H-fixed (Frobenius reciprocity), so x = F y for
    F the basis of target^H and d F y = rhs at the coset H.  A
    non-trivial H only occurs in a permutation target, where F is the 0/1
    indicator of the H-orbits on its basis (``fixed_points``) and d F sums
    the columns of d over each orbit.  One ``solve_pivots`` serves all the
    parts over the same H; a trivial H has F = I and solves d itself.  A
    lift passes its ``LiftRows``, which names the rows each solve keeps and
    is then moved up to this degree; without it every row is kept.  One
    ``orbit_columns`` walk then sends the basis vector of each coset
    rep + H to A^rep x; on a permutation target each step of that walk
    only moves rows.  Returns None when no such X exists.
    """
    group = target.group
    p, order = group.p, group.order
    x = np.zeros((target.dim, len(tag.parts)), dtype=np.int64)
    by_subgroup = {}
    for j, h in enumerate(tag.parts):
        by_subgroup.setdefault(h, []).append(j)
    fixed, free_pivots = {}, None
    for h, js in by_subgroup.items():
        a, b = d, rhs.take_cols(js)
        keep = None if rows is None else rows.keep(h)
        if keep is not None:
            a, b = a.take_rows(keep), b.take_rows(keep)
        if h.is_trivial():
            y, free_pivots = solve_pivots(a, b)
        else:
            f = fixed[h] = fixed_points(target, h)
            y = solve_pivots(a @ f, b)[0]
            y = None if y is None else f @ y
        if y is None:
            return None
        x[:, js] = y.a
    if rows is not None:
        rows.below, rows.pivots, rows.fixed = target, free_pivots, fixed
    return Mat(p, orbit_columns(target, x)[:, tag.part_of * order + tag.element])


@lru_cache(maxsize=None)
def mackey_tensor(h: Subgroup, k: Subgroup) -> PermutationDescriptor:
    """k(E/H) (x) k(E/K) decomposed: [E : H+K] copies of k(E/(H ∩ K))."""
    if h.group != k.group:
        raise GroupMismatch("Mackey tensor across different groups")
    multiplicity = (h + k).index
    meet = h.intersect(k)
    return PermutationDescriptor(h.group, tuple([meet] * multiplicity))


def tensor_descriptor(
    d1: PermutationDescriptor, d2: PermutationDescriptor
) -> PermutationDescriptor:
    """Multiset union of the Mackey rule over all part pairs."""
    if d1.group != d2.group:
        raise GroupMismatch("tensor of descriptors over different groups")
    config.check_dim_cap(d1.dim * d2.dim)
    parts = []
    for h in d1.parts:
        for k in d2.parts:
            parts.extend(mackey_tensor(h, k).parts)
    return PermutationDescriptor(d1.group, tuple(parts))
