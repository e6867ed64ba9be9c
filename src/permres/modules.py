"""Finite-dimensional modules over elementary abelian p-groups.

A module is given by r commuting generator matrices of multiplicative
order dividing p, acting on column coordinate vectors.  Everything here
is pure and immutable; all submodule bases follow fixed canonical
conventions (rref rows, nullspace columns) so outputs are deterministic.
A module whose generators are all permutation matrices is stored as
one index vector per generator, however it was made, and keeps no
matrix; any other module (the input M, its kernels and its quotients)
keeps its matrices.  ``coset_module`` is the one builder of k(E/H),
memoised per subgroup, and ``block_sum`` and ``tensor`` of permutation
modules are again vectors, so no built term holds a dense generator;
files write such a module as its vectors too, and a dense body of
permutation matrices loads as vectors.  ``free_module`` and
``permutation.realize`` are block sums of ``coset_module``.
``Module(group, action)`` scans its matrices once, when it is made, and
``Module.defect`` is the one relations check (``validate_module``) of
each module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import config
from .errors import GroupMismatch, InternalError, NotInjective, NotPermutationBasis
from .groups import Group, Subgroup
from .linalg import (
    Mat,
    block_diag,
    complement_projection,
    first_non_permutation_row,
    hstack,
    kron,
    mat_pow,
    non_pivots,
    nullspace,
    permutation_matrix,
    permutation_vector,
    rank,
    row_space,
    solve,
    vstack,
)


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Module:
    """An E-representation: one generator per standard generator of E.

    A module whose generators are all permutation matrices keeps them as
    ``perms``, one index vector sigma per generator (A e_x = e_sigma[x])
    as a row of one write-protected rank x dim array, and no matrix;
    ``action`` and ``generator`` make the matrices afresh on every read.
    Any other module keeps its matrices and has ``perms = None``.  The
    two constructors alone decide the form: ``Module(group, action)``
    scans the matrices once, and ``Module.from_perms`` proves each vector
    a permutation.  So the form follows from the generators, and two
    modules are equal when their ``perms`` are, or else their matrices.
    """

    group: Group
    dim: int
    _matrices: tuple[Mat, ...] | None
    perms: np.ndarray | None

    def __init__(self, group: Group, action):
        action = tuple(action)
        if len(action) != group.rank:
            raise ValueError(f"need {group.rank} generator matrices, got {len(action)}")
        d = action[0].rows
        for a in action:
            if a.p != group.p or a.shape != (d, d):
                raise ValueError("generator matrices must be square, equal size, over F_p")
        config.check_dim_cap(d)
        # the one scan, up to the first generator that is no permutation
        perms = list(itertools.takewhile(lambda s: s is not None, map(permutation_vector, action)))
        if len(perms) < len(action):
            self.__dict__.update(group=group, dim=d, _matrices=action, perms=None)
            return
        vectors = np.array(perms, dtype=np.int64)
        vectors.setflags(write=False)
        self.__dict__.update(group=group, dim=d, _matrices=None, perms=vectors)

    @classmethod
    def from_perms(cls, group: Group, perms) -> "Module":
        """The permutation module whose generator i sends e_x to e_(perms[i][x]).

        ``perms`` is copied into one write-protected rank x d array, and
        each row is proved a permutation of 0..d-1 (its sorted entries are
        0..d-1), so ``perms`` stays a checked fact.
        """
        try:
            vectors = np.array(perms, dtype=np.int64)
        except ValueError:  # numpy refuses vectors of different lengths
            raise ValueError("generator vectors of different lengths") from None
        if vectors.ndim != 2 or len(vectors) != group.rank:
            raise ValueError(f"need {group.rank} generator vectors of one length")
        d = vectors.shape[1]
        ok = np.sort(vectors, axis=1) == np.arange(d)
        if not ok.all():
            i = int(np.flatnonzero(~ok.all(axis=1))[0])
            raise ValueError(f"generator {i + 1} is not a permutation of 0..{d - 1}")
        vectors.setflags(write=False)
        config.check_dim_cap(d)
        m = object.__new__(cls)
        m.__dict__.update(group=group, dim=d, _matrices=None, perms=vectors)
        return m

    def generator(self, i: int) -> Mat:
        """The matrix of generator i (0-based), made afresh for a permutation module."""
        if self.perms is None:
            return self._matrices[i]
        return permutation_matrix(self.group.p, self.perms[i])

    @property
    def action(self) -> tuple[Mat, ...]:
        if self.perms is None:
            return self._matrices
        return tuple(self.generator(i) for i in range(self.group.rank))

    @cached_property
    def defect(self) -> str | None:
        """``validate_module``'s verdict, taken once per module: the first
        identity of E that the generators fail, or None."""
        return validate_module(self)

    def require_perms(self) -> np.ndarray:
        """``perms`` when every generator is a permutation matrix.

        Otherwise raises NotPermutationBasis, naming the first generator
        that is not one and its first offending row.
        """
        if self.perms is None:
            for i, a in enumerate(self._matrices):
                row = first_non_permutation_row(a)
                if row is not None:
                    raise NotPermutationBasis(i, row)
        return self.perms

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Module):
            return NotImplemented
        if (self.group, self.dim) != (other.group, other.dim):
            return False
        if self.perms is None or other.perms is None:
            # the generators decide the form, so a module of each form compares unequal
            return self._matrices == other._matrices
        return np.array_equal(self.perms, other.perms)

    def __hash__(self):
        gens = hash(self._matrices) if self.perms is None else self.perms.tobytes()
        return hash((self.group, self.dim, gens))

    def __repr__(self):
        return f"Module(p={self.group.p}, rank={self.group.rank}, dim={self.dim})"


def _act(m: Module, i: int, x: Mat) -> Mat:
    """A_i x.  A generator stored as sigma moves the rows: (A x)[sigma[y]] = x[y]."""
    if m.perms is None:
        return m._matrices[i] @ x
    out = np.empty_like(x.a)
    out[m.perms[i]] = x.a
    return Mat._wrap(x.p, out)


def _act_right(x: Mat, m: Module, i: int) -> Mat:
    """x A_i.  A generator stored as sigma gathers the columns: (x A)[:, y] = x[:, sigma[y]]."""
    if m.perms is None:
        return x @ m._matrices[i]
    return Mat._wrap(x.p, x.a[:, m.perms[i]])


@dataclass(frozen=True)
class ModuleMap:
    """A matrix intertwining two module structures (target.dim x source.dim)."""

    source: Module
    target: Module
    matrix: Mat

    def __post_init__(self):
        if self.source.group != self.target.group:
            raise GroupMismatch("module map across different groups")
        if self.matrix.shape != (self.target.dim, self.source.dim):
            raise ValueError(
                f"map matrix {self.matrix.shape} does not match "
                f"{self.target.dim} x {self.source.dim}"
            )

    def __matmul__(self, other: "ModuleMap") -> "ModuleMap":
        if other.target is not self.source and other.target != self.source:
            raise ValueError("composition mismatch")
        return ModuleMap(other.source, self.target, self.matrix @ other.matrix)

    def rank(self) -> int:
        return rank(self.matrix)

    def is_injective(self) -> bool:
        return self.rank() == self.source.dim

    def is_surjective(self) -> bool:
        return self.rank() == self.target.dim


@dataclass(frozen=True)
class ShortExactSequence:
    """0 -> L -> M -> N -> 0, carried by the inclusion and the projection."""

    incl: ModuleMap
    proj: ModuleMap


def identity_map(m: Module) -> ModuleMap:
    return ModuleMap(m, m, Mat.identity(m.group.p, m.dim))


def zero_map(source: Module, target: Module) -> ModuleMap:
    return ModuleMap(source, target, Mat.zeros(source.group.p, target.dim, source.dim))


def check_module_map(f: ModuleMap):
    """None if f intertwines the two actions, else a report string.

    Between two permutation modules, sigma (source) and tau (target),
    f A_s = A_t f reads f[tau[y], sigma[x]] = f[y, x]: one gather, no
    product, and only at the nonzeros (y, x) of f.  (y, x) -> (tau[y],
    sigma[x]) permutes the positions, so once it keeps the value of every
    nonzero it maps the nonzeros onto themselves, and the zeros onto
    zeros.  Otherwise each side is a product, or a gather on the side
    that is a permutation module.
    """
    sigma, tau = f.source.perms, f.target.perms
    if sigma is not None and tau is not None:
        ys, xs = f.matrix.a.nonzero()
        values = f.matrix.a[ys, xs]
    for i in range(f.source.group.rank):
        if sigma is not None and tau is not None:
            ok = np.array_equal(f.matrix.a[tau[i][ys], sigma[i][xs]], values)
        else:
            ok = _act_right(f.matrix, f.source, i) == _act(f.target, i, f.matrix)
        if not ok:
            return f"map does not intertwine generator {i + 1}"
    return None


def check_ses(ses: ShortExactSequence):
    """None if the sequence is short exact, else a report string."""
    if ses.incl.target != ses.proj.source:
        return "inclusion target differs from projection source"
    for name, f in (("inclusion", ses.incl), ("projection", ses.proj)):
        bad = check_module_map(f)
        if bad is not None:
            return f"{name}: {bad}"
    incl_rank = ses.incl.rank()
    if incl_rank != ses.incl.source.dim:
        return "inclusion is not injective"
    proj_rank = ses.proj.rank()
    if proj_rank != ses.proj.target.dim:
        return "projection is not surjective"
    if not (ses.proj.matrix @ ses.incl.matrix).is_zero():
        return "projection composed with inclusion is nonzero"
    if incl_rank + proj_rank != ses.incl.target.dim:
        return "ranks do not add up to the middle dimension"
    return None


# ---------------------------------------------------------------------------
# constructors


def trivial_module(group: Group, n: int) -> Module:
    if n < 0:
        raise ValueError("dimension must be >= 0")
    return Module.from_perms(group, [np.arange(n)] * group.rank)


def coset_module(h: Subgroup) -> Module:
    """k(E/H) on ``h.coset_reps()``: generator i permutes them by ``h.translations()[i]``.

    The one builder of k(E/H), kept as its index vectors; every realized
    permutation module is a ``block_sum`` of these.  Each is built once per
    subgroup (``_coset_module``), and the dim cap is checked on every call.
    """
    config.check_dim_cap(h.index)
    return _coset_module(h)


@lru_cache(maxsize=None)
def _coset_module(h: Subgroup) -> Module:
    """k(E/H) itself: immutable, its vectors write-protected, so one serves every call."""
    return Module.from_perms(h.group, h.translations())


def free_module(group: Group, t: int) -> Module:
    """(kE)^t with the group-element basis in lexicographic order per block."""
    if t < 0:
        raise ValueError("rank must be >= 0")
    config.check_dim_cap(t * group.order)
    # kE itself may exceed the cap when t = 0
    blocks = [coset_module(Subgroup.trivial(group))] if t else []
    return block_sum(group, blocks * t)


def _perm_pow(sigma: np.ndarray, e: int) -> np.ndarray:
    """sigma^e for a permutation vector, by binary powering on index vectors."""
    result = np.arange(len(sigma))
    square = sigma
    while e:
        if e & 1:
            result = square[result]
        square = square[square]
        e >>= 1
    return result


def validate_module(m: Module):
    """None if the module invariants hold, else the first failed identity.

    A permutation module is checked on its vectors sigma (A e_x =
    e_sigma[x], so A B is sigma_A[sigma_B]); any other module by dense
    products of the matrices it keeps.  Callers read the verdict once
    per module, as ``Module.defect``.
    """
    d, p, perms, action = m.dim, m.group.p, m.perms, m._matrices
    for i in range(m.group.rank):
        if perms is None:
            ok = mat_pow(action[i], p).is_identity()
        else:
            ok = np.array_equal(_perm_pow(perms[i], p), np.arange(d))
        if not ok:
            return f"generator {i + 1}: order does not divide p"
    for i, j in itertools.combinations(range(m.group.rank), 2):
        if perms is None:
            ok = action[i] @ action[j] == action[j] @ action[i]
        else:
            ok = np.array_equal(perms[i][perms[j]], perms[j][perms[i]])
        if not ok:
            return f"commutativity i={i + 1} j={j + 1}"
    return None


# ---------------------------------------------------------------------------
# submodules, quotients, kernels


def submodule(m: Module, rows: Mat):
    """Submodule spanned by the given row basis (must be action-invariant).

    rows is canonicalised to rref; returns (S, incl) with incl the column
    embedding S -> m.
    """
    incl = row_space(rows).T
    s = _restricted(m, incl)
    return s, ModuleMap(s, m, incl)


def _restricted(m: Module, basis: Mat) -> Module:
    """m on the invariant span of basis, which has full column rank: one solve
    of basis X = [A_1 basis | ... | A_r basis], split by columns, gives each X."""
    x = solve(basis, hstack([_act(m, i, basis) for i in range(m.group.rank)]))
    if x is None:
        raise InternalError("subspace is not action-invariant")
    return Module(m.group, tuple(Mat(x.p, a) for a in np.hsplit(x.a, m.group.rank)))


def permutation_submodule(m: Module, keep) -> Module:
    """The span of the basis vectors ``keep`` of a permutation module, stored as vectors.

    Every generator must permute ``keep`` among itself (a union of
    orbits); otherwise the restricted vectors are no permutations and
    ``Module.from_perms`` raises ValueError.  Point ``keep[k]`` becomes k.
    """
    keep = np.asarray(keep, dtype=np.int64)
    position = np.full(m.dim, -1, dtype=np.int64)
    position[keep] = np.arange(keep.size)
    return Module.from_perms(m.group, [position[sigma[keep]] for sigma in m.require_perms()])


def radical(m: Module):
    """rad M = sum_i image(A_i - I), with its canonical inclusion."""
    rows = _radical_rows(m, Mat.identity(m.group.p, m.dim))
    return submodule(m, rows)


def module_closure(m: Module, rows: Mat) -> Mat:
    """Row basis of the smallest submodule containing the given row span."""
    current = row_space(rows)
    while True:
        moved = [_act(m, i, current.T).T for i in range(m.group.rank)]
        bigger = row_space(vstack([current] + moved))
        if bigger.rows == current.rows:
            return bigger
        current = bigger


def _radical_rows(m: Module, rows: Mat) -> Mat:
    """Row basis of sum_i (A_i - I) W for the row-span W."""
    stacked = vstack([_act(m, i, rows.T).T - rows for i in range(m.group.rank)])
    return row_space(stacked)


def radical_series(m: Module) -> list[Mat]:
    """Row bases of M = rad^0 M > rad^1 M > ... > 0 (last entry empty)."""
    chain = [row_space(Mat.identity(m.group.p, m.dim))]
    while chain[-1].rows > 0:
        chain.append(_radical_rows(m, chain[-1]))
    return chain


def quotient(m: Module, incl: ModuleMap):
    """M / image(incl) on the canonical complement basis.

    The quotient coordinates are the non-pivot coordinates of the rref of
    the image; returns (Q, proj).
    """
    if incl.target != m:
        raise ValueError("inclusion does not land in the module")
    if not incl.is_injective():
        raise NotInjective("quotient by a non-injective map")
    rho, pivots = complement_projection(incl.matrix.T)
    free = non_pivots(m.dim, pivots)
    proj_mat = rho.take_rows(free)
    section = Mat.identity(m.group.p, m.dim).take_cols(free)
    action = tuple(proj_mat @ _act(m, i, section) for i in range(m.group.rank))
    q = Module(m.group, action)
    proj = ModuleMap(m, q, proj_mat)
    if not (proj.matrix @ incl.matrix).is_zero():
        raise InternalError("quotient projection does not kill the image")
    return q, proj


def kernel(f: ModuleMap):
    """ker f with the canonical nullspace basis; returns (K, incl)."""
    basis = nullspace(f.matrix)
    k = _restricted(f.source, basis)
    return k, ModuleMap(k, f.source, basis)


# ---------------------------------------------------------------------------
# sums, tensors, duals, hom


@dataclass(frozen=True)
class DirectSum:
    module: Module
    inj1: ModuleMap
    inj2: ModuleMap
    proj1: ModuleMap
    proj2: ModuleMap


def block_sum(group: Group, mods) -> Module:
    """The block-diagonal direct sum of the modules, in order; one module is its own sum.

    When every summand is a permutation module, so is the sum: the
    vectors are concatenated, each shifted by the dims before it.
    """
    if any(m.group != group for m in mods):
        raise GroupMismatch("direct sum across different groups")
    if len(mods) == 1:
        return mods[0]
    if all(m.perms is not None for m in mods):
        offsets = itertools.accumulate((m.dim for m in mods), initial=0)
        shifted = [m.perms + off for m, off in zip(mods, offsets)]
        empty = np.zeros((group.rank, 0), dtype=np.int64)
        return Module.from_perms(group, np.concatenate([empty, *shifted], axis=1))
    action = tuple(block_diag(group.p, [m.generator(i) for m in mods]) for i in range(group.rank))
    return Module(group, action)


def direct_sum(m: Module, n: Module) -> DirectSum:
    """The block sum of two modules with its injections and projections."""
    s = block_sum(m.group, (m, n))
    p = m.group.p
    dm, dn = m.dim, n.dim
    i1 = np.vstack([np.eye(dm, dtype=np.int64), np.zeros((dn, dm), dtype=np.int64)])
    i2 = np.vstack([np.zeros((dm, dn), dtype=np.int64), np.eye(dn, dtype=np.int64)])
    return DirectSum(
        module=s,
        inj1=ModuleMap(m, s, Mat(p, i1)),
        inj2=ModuleMap(n, s, Mat(p, i2)),
        proj1=ModuleMap(s, m, Mat(p, i1.T)),
        proj2=ModuleMap(s, n, Mat(p, i2.T)),
    )


def tensor(m: Module, n: Module) -> Module:
    """Diagonal action; basis index (a, b) -> a * dim(n) + b.

    Of two permutation modules sigma and tau, the tensor is the
    permutation module sigma(a) * dim(n) + tau(b).
    """
    if m.group != n.group:
        raise GroupMismatch("tensor across different groups")
    config.check_dim_cap(m.dim * n.dim)
    if m.perms is not None and n.perms is not None:
        pairs = m.perms[:, :, None] * n.dim + n.perms[:, None, :]
        return Module.from_perms(m.group, pairs.reshape(m.group.rank, -1))
    action = tuple(a.kron(b) for a, b in zip(m.action, n.action))
    return Module(m.group, action)


def dual(m: Module) -> Module:
    """Contragredient: generator i acts by transpose of inverse (= A^(p-1))."""
    action = tuple(mat_pow(a, m.group.p - 1).T for a in m.action)
    return Module(m.group, action)


def hom_space(m: Module, n: Module) -> list[Mat]:
    """Canonical basis of the intertwiners {X : X A_i^M = A_i^N X}.

    The equations act on the row-major vec of X (n.dim x m.dim):
    vec(X A) = (I (x) A^T) vec X and vec(B X) = (B (x) I) vec X, one block
    of rows per generator.
    """
    if m.group != n.group:
        raise GroupMismatch("hom across different groups")
    dm, dn = m.dim, n.dim
    if dm == 0 or dn == 0:
        return []
    eye_m = np.eye(dm, dtype=np.int64)
    eye_n = np.eye(dn, dtype=np.int64)
    system = vstack(
        [
            Mat(m.group.p, kron(eye_n, a_m.a.T) - kron(a_n.a, eye_m))
            for a_m, a_n in zip(m.action, n.action)
        ]
    )
    basis = nullspace(system)
    return [Mat(m.group.p, basis.a[:, j].reshape(dn, dm)) for j in range(basis.cols)]


def fixed_points(m: Module, h: Subgroup) -> Mat:
    """Columns form the canonical basis of M^H = {v : A^x v = v for x in H}.

    M must be a permutation module in its basis (else NotPermutationBasis).
    Then M^H is spanned by the 0/1 indicators of the H-orbits on the
    basis.  These are the columns of the canonical nullspace of the
    stacked A^x - I, whose free variable on each orbit is its largest
    point, so the columns come ordered by the largest point of their orbit.
    The H-orbit of x is column x of the ``element_images`` rows at the
    elements of H.
    """
    perms = m.require_perms()
    d, p = m.dim, m.group.p
    in_h = ~h.reduce(np.array(m.group.elements(), dtype=np.int64)).any(axis=1)
    top = element_images(m.group, perms, np.arange(d))[in_h].max(axis=0)
    # number the orbits by their largest points, in increasing order
    largest, orbit = np.unique(top, return_inverse=True)
    f = np.zeros((d, largest.size), dtype=np.int64)
    f[np.arange(d), orbit] = 1
    return Mat._wrap(p, f)


# ---------------------------------------------------------------------------
# composition series


def composition_series(m: Module) -> list[ModuleMap]:
    """Inclusions of a full flag 0 = L_0 < L_1 < ... < L_s = M, s = dim M.

    The radical series is refined one canonical basis vector at a time;
    every intermediate subspace between consecutive radical layers is
    automatically a submodule, and every quotient is 1-dimensional.
    """
    p = m.group.p
    chain = radical_series(m)
    flags = [Mat.zeros(p, 0, m.dim)]
    current = flags[0]
    for layer in reversed(chain[:-1]):
        for row in layer.a:
            stacked = Mat(p, np.vstack([current.a, row[None, :]]))
            reduced = row_space(stacked)
            if reduced.rows > current.rows:
                current = reduced
                flags.append(current)
    if current.rows != m.dim:
        raise InternalError("flag does not exhaust the module")
    return [submodule(m, rows)[1] for rows in flags]


def ses_from_flag(incl_small: ModuleMap, incl_big: ModuleMap) -> ShortExactSequence:
    """The sequence 0 -> L_(i-1) -> L_i -> L_i / L_(i-1) -> 0 from two flag steps."""
    if incl_small.target != incl_big.target:
        raise ValueError("flag inclusions must land in the same module")
    core = solve(incl_big.matrix, incl_small.matrix)
    if core is None:
        raise ValueError("first subspace is not contained in the second")
    step = ModuleMap(incl_small.source, incl_big.source, core)
    _, proj = quotient(incl_big.source, step)
    return ShortExactSequence(incl=step, proj=proj)


# ---------------------------------------------------------------------------
# covers, Heller loops, free summands


@dataclass(frozen=True)
class Cover:
    free: Module
    map: ModuleMap
    free_rank: int


def element_images(group: Group, perms, start) -> np.ndarray:
    """images[idx(v)] = sigma^v(start), for all v in lexicographic order.

    ``start`` is a basis index or an array of them; for an array, row
    idx(v) holds the images of every start, so column k is the walk of
    start[k].  One pass follows ``Group.steps``.
    """
    start = np.asarray(start, dtype=np.int64)
    images = np.empty((group.order,) + start.shape, dtype=np.int64)
    images[0] = start
    for idx, (i, prev) in enumerate(group.steps(), start=1):
        images[idx] = perms[i][images[prev]]
    return images


def orbit_columns(m: Module, vecs: np.ndarray) -> np.ndarray:
    """The orbits of the columns of the d x t array ``vecs`` under m, as d x (t |E|).

    Block j (columns j |E| to (j + 1) |E| - 1) holds A^x v_j for all x in
    E, in lexicographic element order.  When every generator is a
    permutation, A^x e_y = e_images[x, y] makes the walk one scatter of
    rows, (A^x w)[images[x, y]] = w[y]; otherwise each step is a dense
    product.
    """
    group, p = m.group, m.group.p
    d, t = vecs.shape
    walk = np.empty((group.order, d, t), dtype=np.int64)
    if m.perms is not None:
        images = element_images(group, m.perms, np.arange(d))
        walk[np.arange(group.order)[:, None], images] = vecs % p
    else:
        walk[0] = vecs % p
        for idx, (i, prev) in enumerate(group.steps(), start=1):
            walk[idx] = m.action[i].a @ walk[prev] % p
    return walk.transpose(1, 2, 0).reshape(d, t * group.order)


def projective_cover(m: Module) -> Cover:
    """Minimal free module mapping onto M.

    The rank is dim(M / rad M); the j-th free generator maps to the
    canonical lift (standard basis vector at the j-th non-pivot
    coordinate of the rref of rad M).
    """
    rad_rows = _radical_rows(m, Mat.identity(m.group.p, m.dim))
    pivots = [np.flatnonzero(row)[0] for row in rad_rows.a]
    free_coords = non_pivots(m.dim, pivots)
    t = free_coords.size
    f = free_module(m.group, t)
    gens = np.zeros((m.dim, t), dtype=np.int64)
    gens[free_coords, np.arange(t)] = 1
    matrix = Mat(m.group.p, orbit_columns(m, gens))
    pi = ModuleMap(f, m, matrix)
    if rank(matrix) != m.dim:
        raise InternalError("projective cover is not surjective")
    return Cover(free=f, map=pi, free_rank=t)


def omega(m: Module):
    """The Heller loop: kernel of the projective cover, with its inclusion."""
    cover = projective_cover(m)
    return kernel(cover.map)


def omega_iter(m: Module, n: int) -> Module:
    for _ in range(n):
        m = omega(m)[0]
    return m


def norm_matrix(m: Module) -> Mat:
    """The norm element sum_{g in E} g acting on M.

    Over F_p, 1 + x + ... + x^(p-1) = (x - 1)^(p-1), so the norm is the
    product over the generators of (A_i - I)^(p-1): O(r log p) dense
    products.  ``free_rank`` forms it only off permutation modules;
    ``strip_free`` needs its columns.
    """
    p = m.group.p
    eye = Mat.identity(p, m.dim)
    result = eye
    for a in m.action:
        result = result @ mat_pow(a - eye, p - 1)
    return result


def free_rank(m: Module) -> int:
    """Number of free direct summands = rank of the norm element on M.

    On a permutation module (every generator a permutation and the
    relations of E holding) the norm kills k(E/H) for H nontrivial and
    has rank 1 on kE, so the rank is the number of regular orbits: the
    points that no nonzero element fixes, over |E|.  One
    ``element_images`` walk finds them.  Without the relations the walk
    need not be an action, so any other module takes the norm matrix.
    """
    if m.perms is not None and m.defect is None:
        images = element_images(m.group, m.perms, np.arange(m.dim))
        regular = (images[1:] != images[0]).all(axis=0)
        return int(np.count_nonzero(regular)) // m.group.order
    return rank(norm_matrix(m))


@dataclass(frozen=True)
class StripResult:
    module: Module
    stripped: int
    iso: ModuleMap  # from (module (+) (kE)^stripped) onto the original


def strip_free(m: Module) -> StripResult:
    """Split off all free direct summands: M ~ M' (+) (kE)^t, free_rank(M') = 0.

    While the norm is nonzero, the cyclic submodule generated by a vector
    with nonzero norm image is free of rank 1 and splits off via a
    retraction (the group algebra is self-injective); recurse on the
    retraction kernel.
    """
    group = m.group
    p = group.p
    free_one = free_module(group, 1)
    embeddings = []
    current = m
    incl_current = Mat.identity(p, m.dim)
    while True:
        nu = norm_matrix(current)
        if nu.is_zero():
            break
        j = int(np.flatnonzero(nu.a.any(axis=0))[0])
        v = np.zeros((current.dim, 1), dtype=np.int64)
        v[j, 0] = 1
        phi = Mat(p, orbit_columns(current, v))
        rho = _retraction(current, phi)
        embeddings.append(incl_current @ phi)
        k, kappa = kernel(ModuleMap(current, free_one, rho))
        incl_current = incl_current @ kappa.matrix
        current = k
    t = len(embeddings)
    source = block_sum(group, (current, free_module(group, t)))
    iso_mat = hstack([incl_current] + embeddings)
    if rank(iso_mat) != m.dim or iso_mat.shape != (m.dim, m.dim):
        raise InternalError("free-summand splitting is not an isomorphism")
    return StripResult(module=current, stripped=t, iso=ModuleMap(source, m, iso_mat))


def _retraction(current: Module, phi: Mat) -> Mat:
    """rho: current -> kE, a module map with rho o phi = identity.

    A map into kE sends v to sum_g lam(A^(-g) v) e_g for one functional
    lam, and it retracts the free orbit phi exactly when lam phi = e_0.
    Its rows lam A^(-g) are one orbit walk of the dual action.
    """
    group = current.group
    lam = solve(phi.T, Mat.identity(group.p, group.order).col(0))
    if lam is None:
        raise InternalError("no retraction onto a free cyclic submodule")
    return Mat(group.p, orbit_columns(dual(current), lam.a).T)


# ---------------------------------------------------------------------------
# isomorphism probing


@dataclass(frozen=True)
class IsoProbe:
    verdict: str  # "iso" | "not_isomorphic" | "inconclusive"
    map: ModuleMap | None


def iso_probe(
    m: Module,
    n: Module,
    trials: int = 64,
    seed: int = config.DEFAULT_SEED,
) -> IsoProbe:
    """Search the hom space for an invertible intertwiner.

    Exhaustive (hence a proof either way) when the hom space has at most
    16 elements; otherwise seeded random sampling, allowed to give up.
    """
    if m.group != n.group:
        raise GroupMismatch("iso probe across different groups")
    if m.dim != n.dim:
        return IsoProbe("not_isomorphic", None)
    if m.dim == 0:
        return IsoProbe("iso", zero_map(m, n))
    basis = hom_space(m, n)
    if len(basis) != len(hom_space(n, m)):
        return IsoProbe("not_isomorphic", None)
    if not basis:
        return IsoProbe("not_isomorphic", None)
    p = m.group.p
    if p ** len(basis) <= 16:
        candidates = itertools.product(range(p), repeat=len(basis))
        exhausted = "not_isomorphic"
    else:
        rng = np.random.default_rng(seed)
        candidates = (rng.integers(0, p, size=len(basis)) for _ in range(trials))
        exhausted = "inconclusive"
    for coeffs in candidates:
        cand = _combine(basis, coeffs)
        if rank(cand) == m.dim:
            return IsoProbe("iso", ModuleMap(m, n, cand))
    return IsoProbe(exhausted, None)


def _combine(basis: list[Mat], coeffs) -> Mat:
    acc = Mat.zeros(basis[0].p, basis[0].rows, basis[0].cols)
    for c, h in zip(coeffs, basis):
        if c:
            acc = acc + h.scale(int(c))
    return acc
