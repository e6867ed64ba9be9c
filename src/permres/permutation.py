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
from .linalg import Mat, solve_pivots
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


def solve_equivariant(tag: TaggedModule, target: Module, d: Mat, rhs: Mat):
    """(X, pivots): the canonical module map X : tag.module -> target with d X = rhs.

    ``rhs`` is a module map out of the tagged module, given by its
    columns at the parts' cosets H themselves (``tag.base``), in part
    order; ``d`` and ``rhs`` may be taken on any rows that decide the
    system.  A map out of k(E/H) is fixed by the image x of the coset H,
    and x only has to be H-fixed (Frobenius reciprocity), so x = F y for
    F the basis of target^H and d F y = rhs at the coset H.  A
    non-trivial H only occurs in a permutation target, where F is the 0/1
    indicator of the H-orbits on its basis (``fixed_points``) and d F sums
    the columns of d over each orbit.  One ``solve_pivots`` serves all the
    parts over the same H; a trivial H has F = I and solves d itself, and
    ``pivots`` are the pivot columns of d it finds (None without a free
    part).  One ``orbit_columns`` walk then sends the basis vector of each
    coset rep + H to A^rep x; on a permutation target each step of that
    walk only moves rows.  X is None when no such map exists.
    """
    group = target.group
    p, order = group.p, group.order
    x = np.zeros((target.dim, len(tag.parts)), dtype=np.int64)
    by_subgroup = {}
    for j, h in enumerate(tag.parts):
        by_subgroup.setdefault(h, []).append(j)
    pivots = None
    for h, js in by_subgroup.items():
        b = rhs.take_cols(js)
        if h.is_trivial():
            y, pivots = solve_pivots(d, b)
        else:
            f = fixed_points(target, h)
            y = solve_pivots(d @ f, b)[0]
            y = None if y is None else f @ y
        if y is None:
            return None, pivots
        x[:, js] = y.a
    return Mat(p, orbit_columns(target, x)[:, tag.part_of * order + tag.element]), pivots


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
