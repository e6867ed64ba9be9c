"""Bounded chain complexes of modules, with certification.

Homological indexing: differentials lower degree, d_j : C_j -> C_(j-1),
and an optional augmentation eps : C_0 -> M is treated as the degree-0
boundary for exactness purposes.

The constructors check only the shapes of what they glue: a direct sum
of terms is one ``block_sum``, and a map one ``linalg.block_matrix`` of
its blocks by position (no numpy here).  Tags are descriptors: ``cone``
and ``direct_sum_complexes`` take the multiset union of their inputs',
``tensor_complexes`` the Mackey rule, and none recognizes a term.
``tag_complex`` recognizes all the terms in one ``recognize_all`` walk;
``lift_chain_map``, for the terms it solves from, and ``check_tags`` draw
their bases from ``_bases``, that walk or, where some term has no
permutation basis, one term at a time, so a lower failure is reported first.
``truncate`` drops one degree of a complex it takes to be exact.
``certify_resolution`` is the one place that recomputes d^2 = 0, all
homology dimensions, tag recognition and freeness, trusting none of them;
``check_tags`` compares the stored descriptors, composed or read from a file.
Its degree-by-degree checks stop at the first failing degree (``_first_failure``).

``d-squared`` and ``exact`` read one pass up the complex, ``_rank_pass``,
with d_0 the augmentation.  A vector of ker d_(j-1) is fixed by its
coordinates off the pivot columns of d_(j-1), so those non-pivot
coordinates embed ker d_(j-1).  Once d_(j-1) d_j = 0 is shown, d_j lands
in that kernel, so its rows there have its rank and pivots, and their
product with d_(j+1) is zero exactly when d_j d_(j+1) is.  The rows are
restricted only above a zero product, so every rank and verdict is exact.
``lift_chain_map`` makes the same argument for its solves: above degree
0 the right-hand side and the image of d_j both lie in ker d_(j-1) of the
target, so every part of degree j is solved on the rows off the pivots
of d_(j-1), which the free-part solve one degree down found (on every
row where that degree had no free part).  The kept rows span the row
space of the whole system, so every solution and every failure is the
whole system's.  It forms each right-hand side only on those rows, at
the parts' cosets H themselves.

Sign conventions (the certified statements are sign-independent):

* cone(f)_j = Q_(j-1) (+) P_j with d(q, p) = (-d q, f(q) + d p);
* tensor differential d(a (x) b) = d a (x) b + (-1)^deg(a) a (x) d b.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .errors import LiftFailed, NotResolution, PermresError
from .groups import Group
from .linalg import Mat, block_diag, block_matrix, non_pivots, rank_profile, solve
from .modules import (
    Module,
    ModuleMap,
    block_sum,
    check_module_map,
    free_rank,
    kernel,
    tensor,
    trivial_module,
)
from .permutation import (
    PermutationDescriptor,
    recognize,
    recognize_all,
    solve_equivariant,
    tensor_descriptor,
)


@dataclass(frozen=True)
class Complex:
    """Terms C_0 ... C_n with differentials diffs[j] : C_(j+1) -> C_j."""

    terms: tuple[Module, ...]
    diffs: tuple[ModuleMap, ...]
    aug: ModuleMap | None = None
    tags: tuple[PermutationDescriptor, ...] | None = None

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a complex needs at least one term (use a zero module)")
        if len(self.diffs) != len(self.terms) - 1:
            raise ValueError("need exactly one differential per adjacent pair")
        for j, d in enumerate(self.diffs):
            if d.source != self.terms[j + 1] or d.target != self.terms[j]:
                raise ValueError(f"differential {j + 1} does not match its terms")
        if self.aug is not None and self.aug.source != self.terms[0]:
            raise ValueError("augmentation source must be the degree-0 term")
        if self.tags is not None and len(self.tags) != len(self.terms):
            raise ValueError("tags must align with terms")

    @property
    def top(self) -> int:
        return len(self.terms) - 1

    @property
    def group(self) -> Group:
        return self.terms[0].group

    def dims(self) -> tuple[int, ...]:
        return tuple(t.dim for t in self.terms)

    def term_dim(self, j: int) -> int:
        """dim C_j, 0 outside degrees 0..top."""
        return self.terms[j].dim if 0 <= j <= self.top else 0

    def boundary(self, j: int) -> ModuleMap | None:
        """d_j for j >= 1, the augmentation for j = 0, None out of range."""
        if j == 0:
            return self.aug
        if 1 <= j <= self.top:
            return self.diffs[j - 1]
        return None


@dataclass(frozen=True)
class ChainMap:
    """Degree-wise components f_j : source_j -> target_j (None = zero)."""

    source: Complex
    target: Complex
    components: tuple[ModuleMap | None, ...]
    base: ModuleMap | None = None  # the map of augmentation targets being lifted

    def __post_init__(self):
        if len(self.components) != self.source.top + 1:
            raise ValueError("one component per source degree (None allowed)")
        for j, f in enumerate(self.components):
            if f is None:
                continue
            if f.source != self.source.terms[j]:
                raise ValueError(f"component {j} has the wrong source")
            if j > self.target.top or f.target != self.target.terms[j]:
                raise ValueError(f"component {j} has the wrong target")

    def component_matrix(self, j: int) -> Mat:
        p = self.source.group.p
        if 0 <= j <= self.source.top and self.components[j] is not None:
            return self.components[j].matrix
        return Mat.zeros(p, self.target.term_dim(j), self.source.term_dim(j))


def check_chain_map(f: ChainMap):
    """None if d f = f d in every degree (augmentations included), else a report."""
    p = f.source.group.p
    if f.base is not None and f.source.aug is not None and f.target.aug is not None:
        lhs = f.target.aug.matrix @ f.component_matrix(0)
        rhs = f.base.matrix @ f.source.aug.matrix
        if lhs != rhs:
            return "chain-map identity fails at degree 0 (augmentations)"
    for j in range(1, f.source.top + 1):
        if j <= f.target.top:
            lhs = f.target.diffs[j - 1].matrix @ f.component_matrix(j)
        else:
            lhs = Mat.zeros(p, f.target.term_dim(j - 1), f.source.terms[j].dim)
        rhs = f.component_matrix(j - 1) @ f.source.diffs[j - 1].matrix
        if lhs != rhs:
            return f"chain-map identity fails at degree {j}"
    return None


# ---------------------------------------------------------------------------
# basic invariants


def _rank_pass(c: Complex) -> tuple[list[int], list[bool]]:
    """One elimination per map, bottom up: (ranks, squares).

    ``ranks[j]`` is rank d_j for j = 0..top+1, with d_0 the augmentation
    (0 without one) and d_(top+1) = 0; ``squares[j]`` says d_j d_(j+1) = 0
    for j = 0..top-1.  Each map is taken on the rows off the pivots below
    it where the product below is zero, whole otherwise (module docstring).
    """
    ranks, squares = [], []
    rows = None  # the coordinates of C_(j-1) that embed ker d_(j-1), or None for all
    for j in range(c.top + 1):
        d = c.boundary(j)
        if d is None:  # d_0 = 0 without an augmentation
            ranks.append(0)
            squares.append(True)
            continue
        m = d.matrix if rows is None else d.matrix.take_rows(rows)
        r, pivots = rank_profile(m)
        ranks.append(r)
        if j < c.top:
            zero = (m @ c.diffs[j].matrix).is_zero()
            squares.append(zero)
            rows = non_pivots(m.cols, pivots) if zero else None
    return ranks + [0], squares[: c.top]


def _homology(c: Complex, ranks: list[int] | None = None) -> list[int]:
    """[dim coker eps, dim H_0, ..., dim H_top], from the ranks of ``_rank_pass``.

    Without an augmentation d_0 = 0 and the cokernel entry is 0.
    """
    if ranks is None:
        ranks = _rank_pass(c)[0]
    coker = 0 if c.aug is None else c.aug.target.dim - ranks[0]
    return [coker] + [c.terms[j].dim - ranks[j] - ranks[j + 1] for j in range(c.top + 1)]


def homology_dims(c: Complex) -> list[int]:
    """dim H_j = dim C_j - rank d_j - rank d_(j+1), exact arithmetic."""
    return _homology(c)[1:]


def euler_characteristic(c: Complex) -> int:
    return sum((-1) ** j * t.dim for j, t in enumerate(c.terms))


def is_resolution(c: Complex) -> bool:
    """Augmented, exact everywhere, and the augmentation is surjective."""
    return c.aug is not None and not any(_homology(c))


def free_up_to(c: Complex, m: int) -> bool:
    """Every term in degrees 0..min(m, top) is free, by its tag or its free rank."""
    if m < 0:
        raise ValueError("freeness degree must be >= 0")
    for j in range(0, min(m, c.top) + 1):
        if c.tags is not None:
            if not c.tags[j].is_free():
                return False
        elif free_rank(c.terms[j]) * c.group.order != c.terms[j].dim:
            return False
    return True


# ---------------------------------------------------------------------------
# builders


def tag_complex(c: Complex) -> Complex:
    """Attach recognized tags to every term (all must be permutation bases)."""
    return Complex(c.terms, c.diffs, c.aug, tuple(t.descriptor for t in recognize_all(c.terms)))


def _union(group: Group, descriptors) -> PermutationDescriptor:
    """The multiset union: the descriptor of the block sum of the described modules."""
    return PermutationDescriptor(group, tuple(part for d in descriptors for part in d.parts))


def single_term_complex(module: Module, aug: ModuleMap | None = None) -> Complex:
    return Complex((module,), (), aug)


def retarget_augmentation(c: Complex, new_target: Module) -> Complex:
    """Swap the augmentation target for a module with identical matrices."""
    if c.aug is None:
        raise ValueError("complex is not augmented")
    if c.aug.target != new_target:
        raise ValueError("new target must have identical action matrices")
    aug = ModuleMap(c.terms[0], new_target, c.aug.matrix)
    return Complex(c.terms, c.diffs, aug, c.tags)


def direct_sum_complexes(a: Complex, b: Complex) -> Complex:
    """Degree-wise direct sum; augmented onto the direct sum of targets.

    Tagged when both inputs are, each tag the union of the summands' tags.
    """
    group = a.group
    p = group.p
    n = max(a.top, b.top)
    terms = [block_sum(group, a.terms[j : j + 1] + b.terms[j : j + 1]) for j in range(n + 1)]
    diffs = []
    for j in range(1, n + 1):
        parts = {(k, k): c.diffs[j - 1].matrix for k, c in enumerate((a, b)) if j <= c.top}
        heights = [a.term_dim(j - 1), b.term_dim(j - 1)]
        mat = block_matrix(p, heights, [a.term_dim(j), b.term_dim(j)], parts)
        diffs.append(ModuleMap(terms[j], terms[j - 1], mat))
    aug = None
    if a.aug is not None and b.aug is not None:
        tgt = block_sum(group, (a.aug.target, b.aug.target))
        aug = ModuleMap(terms[0], tgt, block_diag(p, [a.aug.matrix, b.aug.matrix]))
    tags = None
    if a.tags is not None and b.tags is not None:
        tags = tuple(
            _union(group, a.tags[j : j + 1] + b.tags[j : j + 1]) for j in range(n + 1)
        )
    return Complex(tuple(terms), tuple(diffs), aug, tags)


def cone(f: ChainMap) -> Complex:
    """Mapping cone: cone_j = Q_(j-1) (+) P_j, d(q, p) = (-d q, f(q) + d p).

    Tagged when both complexes are, each tag the union of the summands' tags.
    """
    q, pc = f.source, f.target
    group = q.group
    p = group.p
    n = max(q.top + 1, pc.top)
    terms = [
        block_sum(group, (q.terms[j - 1 : j] if j else ()) + pc.terms[j : j + 1])
        for j in range(n + 1)
    ]
    diffs = []
    for j in range(1, n + 1):
        # block rows Q_(j-2), P_(j-1); block columns Q_(j-1), P_j
        parts = {(1, 0): f.component_matrix(j - 1)}
        if 2 <= j <= q.top + 1:
            parts[0, 0] = -q.diffs[j - 2].matrix
        if j <= pc.top:
            parts[1, 1] = pc.diffs[j - 1].matrix
        heights = [q.term_dim(j - 2), pc.term_dim(j - 1)]
        mat = block_matrix(p, heights, [q.term_dim(j - 1), pc.term_dim(j)], parts)
        diffs.append(ModuleMap(terms[j], terms[j - 1], mat))
    tags = None
    if q.tags is not None and pc.tags is not None:
        tags = tuple(
            _union(group, (q.tags[j - 1 : j] if j else ()) + pc.tags[j : j + 1])
            for j in range(n + 1)
        )
    return Complex(tuple(terms), tuple(diffs), tags=tags)


def tensor_complexes(a: Complex, b: Complex) -> Complex:
    """Total complex of the double complex, Koszul sign on the left degree.

    (A (x) B)_n = (+)_(i+j=n) A_i (x) B_j with summands in increasing i.
    Tagged when both inputs are, A_i (x) B_j by the Mackey rule.
    """
    group = a.group
    p = group.p
    if b.group != group:
        raise ValueError("tensor of complexes over different groups")
    n_total = a.top + b.top

    def summands(n):
        return [(i, n - i) for i in range(max(0, n - b.top), min(n, a.top) + 1)]

    # each distinct term, Koszul block and pair of tags is formed once per
    # call: along a periodic factor the terms, differentials and dims repeat
    a_times = cache(lambda i, m: tensor(a.terms[i], m))
    d_one = cache(lambda i, n: a.diffs[i - 1].matrix.kron(Mat.identity(p, n)))
    one_d = cache(lambda n, d: Mat.identity(p, n).kron(d))
    mackey = cache(tensor_descriptor)
    summed = [[a_times(i, b.terms[j]) for i, j in summands(n)] for n in range(n_total + 1)]
    terms = [block_sum(group, mods) for mods in summed]
    dims = [[t.dim for t in mods] for mods in summed]
    diffs = []
    for n in range(1, n_total + 1):
        row = {s: k for k, s in enumerate(summands(n - 1))}
        parts = {}
        for k, (i, j) in enumerate(summands(n)):
            if i >= 1:
                parts[row[i - 1, j], k] = d_one(i, b.terms[j].dim)
            if j >= 1:
                d = b.diffs[j - 1].matrix
                parts[row[i, j - 1], k] = one_d(a.terms[i].dim, -d if i % 2 else d)
        mat = block_matrix(p, dims[n - 1], dims[n], parts)
        diffs.append(ModuleMap(terms[n], terms[n - 1], mat))
    aug = None
    if a.aug is not None and b.aug is not None:
        tgt = tensor(a.aug.target, b.aug.target)
        aug = ModuleMap(terms[0], tgt, a.aug.matrix.kron(b.aug.matrix))
    tags = None
    if a.tags is not None and b.tags is not None:
        tags = tuple(
            _union(group, [mackey(a.tags[i], b.tags[j]) for i, j in summands(n)])
            for n in range(n_total + 1)
        )
    return Complex(tuple(terms), tuple(diffs), aug, tags)


def syzygy(c: Complex, j: int) -> Module:
    """The j-th syzygy K_j = ker(d_(j-1)), with d_0 the augmentation (j >= 1).

    Above the top degree the complex is zero, so the syzygy is too.
    """
    if j < 1:
        raise ValueError(f"syzygy index {j} out of range")
    if j - 1 > c.top:
        return trivial_module(c.group, 0)
    b = c.boundary(j - 1)
    if b is None:
        raise ValueError("complex is not augmented")
    return kernel(b)[0]


def truncate(c: Complex) -> Complex:
    """Drop degree 0 and re-augment onto ker(eps): a resolution of the syzygy.

    The input is taken to be exact; only the re-augmentation is checked.
    """
    if c.aug is None:
        raise NotResolution("cannot truncate an unaugmented complex")
    k, kappa = kernel(c.aug)
    if c.top == 0:
        if k.dim != 0:
            raise NotResolution("augmentation of a length-0 resolution has a kernel")
        z = trivial_module(c.group, 0)
        tags = None if c.tags is None else (PermutationDescriptor(c.group, ()),)
        return Complex((z,), (), ModuleMap(z, k, Mat.zeros(c.group.p, 0, 0)), tags)
    mat = solve(kappa.matrix, c.diffs[0].matrix)
    if mat is None:
        raise NotResolution("image of d_1 is not contained in ker(eps)")
    aug = ModuleMap(c.terms[1], k, mat)
    return Complex(c.terms[1:], c.diffs[1:], aug, None if c.tags is None else c.tags[1:])


# ---------------------------------------------------------------------------
# chain-map lifting


def _bases(terms):
    """The terms' permutation bases, drawn in degree order.

    One ``recognize_all`` walk; where some term has no permutation basis,
    ``recognize`` of one term at a time as it is drawn, so a caller that
    stops at a lower degree's failure never reaches the term that has none.
    """
    try:
        return iter(recognize_all(terms))
    except PermresError:
        return map(recognize, terms)


def lift_chain_map(f: ModuleMap, q: Complex, pc: Complex, ell: int) -> ChainMap:
    """Lift f through two resolutions: eps_P f_0 = f eps_Q and d f_j = f_(j-1) d.

    Preconditions: q resolves f.source by permutation modules, pc resolves
    f.target with top degree <= ell, and a lift exists (projectivity
    guarantees one when q is free up to the top degree of pc).  Each
    component is the canonical ``solve_equivariant`` out of its term,
    whose basis ``_bases`` draws (NotPermutationBasis if it has none), on
    the rows off the pivots that the solve one degree down returned
    (module docstring).  Components above pc are zero, so
    f_top d_(top+1) = 0 is checked, not solved.
    """
    if q.aug is None or pc.aug is None:
        raise LiftFailed("both complexes must be augmented")
    if q.aug.target != f.source or pc.aug.target != f.target:
        raise LiftFailed("augmentation targets do not match the map being lifted")
    if pc.top > ell:
        raise LiftFailed(f"target complex has top degree {pc.top} > ell = {ell}")
    top = min(q.top, pc.top)
    components: list[ModuleMap | None] = []
    prev = f.matrix
    rows = None  # the coordinates of P_(j-1) that embed ker d_(j-1), or None for all
    for j, tag in enumerate(_bases(q.terms[: top + 1])):
        d = pc.boundary(j).matrix
        if rows is not None:
            d, prev = d.take_rows(rows), prev.take_rows(rows)
        rhs = prev @ q.boundary(j).matrix.take_cols(tag.base)
        x, pivots = solve_equivariant(tag, pc.terms[j], d, rhs)
        if x is None:
            raise LiftFailed(f"no lift exists at degree {j}")
        components.append(ModuleMap(q.terms[j], pc.terms[j], x))
        prev = x
        rows = None if pivots is None else non_pivots(pc.terms[j].dim, pivots)
    if top < q.top and not (prev @ q.diffs[top].matrix).is_zero():
        raise LiftFailed(f"automatic vanishing fails at degree {top + 1}")
    components += [None] * (q.top - top)
    return ChainMap(q, pc, tuple(components), base=f)


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class CertReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def first_failure(self):
        for c in self.checks:
            if not c.ok:
                return c
        return None

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "PASS" if c.ok else "FAIL"
            suffix = f" ({c.detail})" if c.detail else ""
            out.append(f"{c.name}: {status}{suffix}")
        return out


def _first_failure(pairs) -> str | None:
    """``degree j: what`` for the first pair (j, what) whose ``what`` is not None.

    The pairs are drawn lazily, so nothing above the first failure is checked.
    """
    return next((f"degree {j}: {what}" for j, what in pairs if what is not None), None)


def check_tags(terms, descriptors) -> str | None:
    """None if each term is recognized with its descriptor, else "degree j: ...".

    The terms' bases come from ``_bases``, so a lower degree's differing
    tag is named before a higher term without a permutation basis.
    """
    bases = _bases(terms)

    def verdict(want):
        try:
            got = next(bases).descriptor
        except PermresError as exc:  # NotPermutationBasis names the generator and row
            return str(exc)
        return None if got == want else "recognized tag differs from the stored tag"

    return _first_failure((j, verdict(want)) for j, want in enumerate(descriptors))


def certify_resolution(
    c: Complex,
    m: int | None = None,
    require_tags: bool = False,
) -> CertReport:
    """Recompute every claimed identity of a resolution from scratch."""
    checks = []

    def add(name, ok, detail=""):
        checks.append(CheckResult(name, bool(ok), detail))

    add("augmented", c.aug is not None, "" if c.aug is not None else "no augmentation")

    bad = _first_failure((j, t.defect) for j, t in enumerate(c.terms))
    if bad is None and c.aug is not None:
        msg = c.aug.target.defect
        if msg is not None:
            bad = f"target: {msg}"
    add("terms-valid", bad is None, bad or "")

    maps = enumerate((c.aug,) + c.diffs)
    bad = _first_failure((j, check_module_map(b)) for j, b in maps if b is not None)
    add("maps-intertwine", bad is None, bad or "")

    ranks, squares = _rank_pass(c)
    bad = next((f"d_{j} o d_{j + 1} != 0" for j in range(1, c.top) if not squares[j]), None)
    if bad is None and c.top >= 1 and not squares[0]:
        bad = "eps o d_1 != 0"
    add("d-squared", bad is None, bad or "")

    if c.aug is not None:
        defect, *hdims = _homology(c, ranks)
        bad = next((f"dim H_{j} = {h}" for j, h in enumerate(hdims) if h), None)
        if defect:
            bad = f"augmentation rank deficit {defect}"
        add("exact", bad is None, bad or "")
        chi = euler_characteristic(c)
        add(
            "euler-characteristic",
            chi == c.aug.target.dim,
            f"chi = {chi}, target dim = {c.aug.target.dim}",
        )
    else:
        add("exact", False, "no augmentation")

    if c.tags is not None:
        bad = check_tags(c.terms, c.tags)
        add("tags", bad is None, bad or "")
    elif require_tags:
        add("tags", False, "complex is untagged")

    if m is not None:
        ok = free_up_to(c, m)
        add("free-up-to", ok, f"m = {m}")

    return CertReport(tuple(checks))
