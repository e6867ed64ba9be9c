"""The resolution engine.

Builds, for any module M over E = (C_p)^r and any m >= 0, a finite
resolution of M by permutation modules that is free up to degree m:

* ``periodic_complex`` -- the 2-periodic coset complexes Q(i) over the
  coordinate hyperplanes, alternating (g - 1) and norm differentials;
* ``trivial_resolution`` -- their tensor product, a resolution of k;
* ``rotate`` -- turns 0 -> L -> M -> N -> 0 into 0 -> ΩN -> L (+) P -> M -> 0
  via the projective cover P of N;
* ``splice`` -- lifts a map between resolved modules and takes the
  mapping cone, resolving the cokernel;
* ``good_resolution`` -- strips the free summands, then walks a
  composition series from the bottom, splicing once per step with the
  truncated tensor resolution of k, free only as far as the lift needs,
  so each step adds 2r to the length and the term dims depend only on
  (p, r, dim M, m) and the free rank of M;
* ``trim`` -- removes a free direct summand of the target from degree 0.

Build once, certify once: the construction never re-checks what it
built (only the inputs of the public ``rotate`` and ``splice``), and
``certify_resolution`` recomputes every claim of the final result
independently, exactly once.  Tags are descriptors, stated where a
term is built (``coset_module``, ``free_module``) and composed by the
Mackey rule and multiset union; a permutation basis is made only where
a solve reads one (``rotate``; ``lift_chain_map``, in one walk over the
terms it solves from; ``trim``).  ``trim`` certifies its own output, and certifies its
input only when that fails, to tell an invalid input from a fault of
its own.
Every lift out of a permutation module (the cover map in ``rotate``, each
degree of the chain-map lift) is one ``solve_equivariant``: it solves for
the image of each coset H among the H-fixed points of the target and
extends them with one batched ``orbit_columns`` walk.  Wherever H is
non-trivial the target is a term of a permutation resolution, so its
H-fixed points are the indicators of the H-orbits on its basis and the
walk moves rows instead of multiplying matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    CertReport,
    Complex,
    certify_resolution,
    cone,
    direct_sum_complexes,
    lift_chain_map,
    tensor_complexes,
    truncate,
)
from .errors import InternalError, LiftFailed, NotResolution, OddLength, SelectionFailed
from .groups import Group, Subgroup
from .linalg import Mat, hstack, inverse, rank, solve, vstack
from .modules import (
    Cover,
    Module,
    ModuleMap,
    ShortExactSequence,
    block_sum,
    check_module_map,
    check_ses,
    composition_series,
    coset_module,
    free_module,
    free_rank,
    identity_map,
    kernel,
    permutation_submodule,
    projective_cover,
    ses_from_flag,
    strip_free,
)
from .permutation import PermutationDescriptor, realize, recognize, solve_equivariant


@dataclass(frozen=True)
class GoodResolution:
    """A fully certified output: exact, fully tagged, free up to degree m."""

    complex: Complex
    m: int
    report: CertReport


def _certified(c: Complex, m: int) -> GoodResolution:
    report = certify_resolution(c, m=m, require_tags=True)
    if not report.ok:
        raise InternalError(f"output fails its own certificate: {report.first_failure()}")
    return GoodResolution(complex=c, m=m, report=report)


# ---------------------------------------------------------------------------
# the periodic complexes Q(i) and the tensor resolution of k


def periodic_complex(group: Group, i: int, ell: int) -> Complex:
    """The length-ell coset complex over the i-th coordinate hyperplane.

    Degrees 0..ell-1 carry k(E/H_i); degree ell carries k, embedded onto
    the norm element (the sum of all cosets).  Differentials alternate
    multiplication by (g - 1) (odd degrees) and by the norm (even),
    where g is the translation of the cosets by e_i; the augmentation
    sends every coset to 1.  ell must be even for exactness.
    """
    if ell < 2 or ell % 2:
        raise OddLength(f"length must be an even integer >= 2, got {ell}")
    if not 1 <= i <= group.rank:
        raise ValueError(f"coordinate index {i} out of range 1..{group.rank}")
    p = group.p
    coset_tag = PermutationDescriptor(group, (Subgroup.coordinate_hyperplane(group, i),))
    k_tag = PermutationDescriptor(group, (Subgroup.full(group),))
    coset, k = (coset_module(tag.parts[0]) for tag in (coset_tag, k_tag))
    gm1 = coset.generator(i - 1) - Mat.identity(p, p)
    # g permutes the p cosets in one cycle, so the norm sum_k g^k is all ones
    norm = Mat(p, [[1] * p] * p)
    ones_col = Mat(p, [[1]] * p)
    ones_row = Mat(p, [[1] * p])
    terms = [coset] * ell + [k]
    diffs = []
    for j in range(1, ell):
        diffs.append(ModuleMap(coset, coset, gm1 if j % 2 else norm))
    diffs.append(ModuleMap(k, coset, ones_col))
    aug = ModuleMap(coset, k, ones_row)
    return Complex(tuple(terms), tuple(diffs), aug, (coset_tag,) * ell + (k_tag,))


def _even_length(m: int) -> int:
    """Smallest even integer >= m + 1: guarantees freeness through degree m."""
    return m + 1 if (m + 1) % 2 == 0 else m + 2


def _trivial_complex(group: Group, m: int) -> Complex:
    ell = _even_length(m)
    c = periodic_complex(group, 1, ell)
    for i in range(2, group.rank + 1):
        c = tensor_complexes(c, periodic_complex(group, i, ell))
    return c


def trivial_resolution(group: Group, m: int) -> GoodResolution:
    """A certified resolution of k, fully tagged and free up to degree m.

    The external tensor product of the periodic complexes Q(1), ..., Q(r),
    all of even length >= m + 1.  Every term in degree n <= m is an
    intersection of all r coordinate hyperplanes, hence free; degree 0 is
    the whole group algebra.
    """
    if m < 0:
        raise ValueError("freeness degree must be >= 0")
    return _certified(_trivial_complex(group, m), m)


# ---------------------------------------------------------------------------
# rotation (projective-cover shift of a short exact sequence)


@dataclass(frozen=True)
class Rotation:
    """0 -> ΩN -> L (+) P -> M -> 0 produced from 0 -> L -> M -> N -> 0."""

    ses: ShortExactSequence
    cover: Cover


def rotate(ses: ShortExactSequence) -> Rotation:
    bad = check_ses(ses)
    if bad is not None:
        raise ValueError(f"input is not short exact: {bad}")
    incl, proj = ses.incl, ses.proj
    mod_l, mod_m, mod_n = incl.source, incl.target, proj.target
    group = mod_m.group
    cover = projective_cover(mod_n)
    # phi : P -> M covers pi_P through proj; P is t free parts, tagged by realize
    free_tag = realize(PermutationDescriptor(group, (Subgroup.trivial(group),) * cover.free_rank))
    cover_at_base = cover.map.matrix.take_cols(free_tag.base)
    phi_mat = solve_equivariant(free_tag, mod_m, proj.matrix, cover_at_base)[0]
    if phi_mat is None:
        raise InternalError("projection admits no preimage of a cover generator")
    middle = block_sum(group, (mod_l, cover.free))
    psi = ModuleMap(middle, mod_m, hstack([incl.matrix, phi_mat]))
    omega_n, kappa = kernel(cover.map)
    corest = solve(incl.matrix, phi_mat @ kappa.matrix)
    if corest is None:
        raise InternalError("phi does not carry ΩN into L")
    embed = ModuleMap(omega_n, middle, vstack([-corest, kappa.matrix]))
    return Rotation(ses=ShortExactSequence(incl=embed, proj=psi), cover=cover)


# ---------------------------------------------------------------------------
# splice: resolve the cokernel through a lift and a mapping cone


def splice(res_l: Complex, res_m: Complex, f: ModuleMap, quot: ModuleMap) -> Complex:
    """Resolve coker(f) = N from resolutions of L and M.

    ``f : L -> M`` must be injective with ``quot : M -> N`` its cokernel
    (together they are short exact).  ``res_l`` must have permutation
    terms and a chain-map lift must exist (projectivity guarantees one
    when ``res_l`` is free up to the top degree of ``res_m``); the mapping
    cone, re-augmented through ``quot``, is then exact.  The output is not
    certified here: pass it to ``certify_resolution``.
    """
    if res_l.aug is None or res_m.aug is None:
        raise ValueError("both inputs must be augmented")
    if res_l.aug.target != f.source or res_m.aug.target != f.target:
        raise ValueError("resolutions do not resolve the ends of f")
    bad = check_ses(ShortExactSequence(incl=f, proj=quot))
    if bad is not None:
        raise ValueError(f"f and quot are not short exact: {bad}")
    lift = lift_chain_map(f, res_l, res_m, res_m.top)
    cn = cone(lift)
    aug = ModuleMap(cn.terms[0], quot.target, quot.matrix @ res_m.aug.matrix)
    return Complex(cn.terms, cn.diffs, aug, cn.tags)


# ---------------------------------------------------------------------------
# the end-to-end construction


def _free_term(group: Group, t: int) -> Complex:
    """(kE)^t resolving itself, tagged with t trivial parts."""
    module = free_module(group, t)
    tag = PermutationDescriptor(group, (Subgroup.trivial(group),) * t)
    return Complex((module,), (), identity_map(module), (tag,))


def _splice_step(res_m: Complex, rot: Rotation, m: int) -> Complex:
    """Resolve the middle of a rotated flag step from res_m, which resolves its end.

    The tensor resolution of k, truncated once, resolves the rotation's
    kernel Ωk.  Made free up to m' = max(m, ell / r), ell the length of
    res_m, it gives the output length ell + 2r.  Where the lift fails, m'
    grows by 2 until the truncated resolution is free up to
    max(m, ell) + 1, where projectivity guarantees a lift.
    """
    group = res_m.group
    ell = res_m.top
    bound = _even_length(max(m, ell) + 1)
    m_omega = max(m, ell // group.rank)
    while True:
        res_omega = truncate(_trivial_complex(group, m_omega))
        if res_omega.aug.target != rot.ses.incl.source:
            raise InternalError("truncated resolution target differs from ΩN")
        try:
            return splice(res_omega, res_m, rot.ses.incl, rot.ses.proj)
        except LiftFailed:
            if _even_length(m_omega) >= bound:
                raise
            m_omega += 2


def good_resolution(module: Module, m: int) -> GoodResolution:
    """A certified permutation resolution of M, free up to degree m.

    Free modules resolve themselves.  Otherwise split M = M' (+) (kE)^s
    with ``strip_free`` and walk a composition series 0 = L_0 < L_1 <
    ... < L_d = M' from the bottom (d = dim M'; it refines the radical
    series, so L_1 is the trivial line k): L_1 is resolved by the tensor
    resolution of k.  Each step 0 -> L_(j-1) -> L_j -> k -> 0 is rotated
    through the cover kE of its top and spliced by ``_splice_step``,
    which adds 2r to the length; unless a lift fails, the output length
    is r (_even_length(m) + 2 (d - 1)), and every term dim follows from
    (p, r, d, m) alone, whatever the module's radical layers are.
    Finally the free one-term complex of rank s is added and the
    augmentation carried through the splitting isomorphism.
    """
    if m < 0:
        raise ValueError("freeness degree must be >= 0")
    bad = module.defect
    if bad is not None:
        raise ValueError(f"invalid module: {bad}")
    group = module.group
    if free_rank(module) * group.order == module.dim:
        cover = projective_cover(module)
        free = _free_term(group, cover.free_rank)
        return _certified(Complex(free.terms, (), cover.map, free.tags), m)
    strip = strip_free(module)
    incls = composition_series(strip.module)
    # L_1 lies in the socle: it is k, with the matrices of res's augmentation target
    res = _trivial_complex(group, m)
    for j in range(2, len(incls)):
        rot = rotate(ses_from_flag(incls[j - 1], incls[j]))
        res_m = direct_sum_complexes(res, _free_term(group, rot.cover.free_rank))
        if res_m.aug.target != rot.ses.proj.source:
            raise InternalError("direct-sum augmentation target mismatch")
        res = _splice_step(res_m, rot, m)
    if strip.stripped:
        res = direct_sum_complexes(res, _free_term(group, strip.stripped))
    return _certified(Complex(res.terms, res.diffs, strip.iso @ res.aug, res.tags), m)


# ---------------------------------------------------------------------------
# trimming a free summand off the resolved module


def trim(res: Complex, proj_m: ModuleMap, proj_q: ModuleMap) -> Complex:
    """From a resolution of M (+) Q with Q free, produce one of M.

    The epimorphism from degree 0 onto Q forces Q to split off a set of
    free parts of the degree-0 term (recognized): select them greedily
    (one scan, each part accepted when it adds a full p^r to the rank),
    then cancel them against Q, restricting the augmentation and d_1.
    The output is certified.  Where that or an identity on the way fails,
    the input is certified too: NotResolution names the input's failed
    check, and InternalError is left for a failure on a valid input.
    """
    if res.aug is None:
        raise SelectionFailed("input complex is not augmented")
    if res.tags is None:
        raise SelectionFailed("input complex must be tagged")
    target = res.aug.target
    for name, f in (("proj_m", proj_m), ("proj_q", proj_q)):
        if f.source != target:
            raise SelectionFailed(f"{name} does not start at the resolved module")
        bad = check_module_map(f)
        if bad is not None:
            raise SelectionFailed(f"{name}: {bad}")
    group = target.group
    order = group.order
    q_mod = proj_q.target
    if q_mod.dim % order:
        raise SelectionFailed("Q dimension is not a multiple of the group order")
    t = q_mod.dim // order
    if free_rank(q_mod) != t:
        raise SelectionFailed("Q is not free")
    if rank(vstack([proj_m.matrix, proj_q.matrix])) != target.dim:
        raise SelectionFailed("the two projections do not split the target")
    if t == 0:
        return res
    try:
        tag0 = recognize(res.terms[0])
    except InternalError as exc:  # permutation generators that do not act as E
        raise _trim_failure(res, str(exc)) from exc
    if tag0.descriptor != res.tags[0]:
        raise _trim_failure(res, "degree 0: recognized tag differs from the stored tag")
    composite = proj_q.matrix @ res.aug.matrix
    selected: list[int] = []
    chosen = tag0.part_of < 0  # the basis vectors of the selected parts
    # Rank is submodular: a part that adds less than |E| against the parts
    # chosen so far never adds |E| against more of them, so one scan suffices.
    for idx, part in enumerate(tag0.parts):
        if len(selected) == t:
            break
        if part.is_trivial():
            cols = (chosen | (tag0.part_of == idx)).nonzero()[0]
            if rank(composite.take_cols(cols)) == cols.size:
                chosen[cols] = True
                selected.append(idx)
    if len(selected) < t:
        raise SelectionFailed("no set of free parts maps isomorphically onto Q")
    w_cols = chosen.nonzero()[0]
    keep_cols = (~chosen).nonzero()[0]
    eps_m = proj_m.matrix @ res.aug.matrix
    a = eps_m.take_cols(keep_cols)
    b = eps_m.take_cols(w_cols)
    c_blk = composite.take_cols(keep_cols)
    alpha = composite.take_cols(w_cols)
    alpha_inv = inverse(alpha)
    eps_new = a - b @ alpha_inv @ c_blk
    new_term = permutation_submodule(res.terms[0], keep_cols)
    new_terms = (new_term,) + res.terms[1:]
    new_diffs = list(res.diffs)
    if res.top >= 1:
        d1 = res.diffs[0].matrix
        # the W-block of the straightened differential vanishes since eps d_1 = 0
        w_block = d1.take_rows(w_cols) + alpha_inv @ c_blk @ d1.take_rows(keep_cols)
        if not w_block.is_zero():
            raise _trim_failure(res, "free-summand cancellation left a nonzero W-block")
        new_diffs[0] = ModuleMap(res.terms[1], new_term, d1.take_rows(keep_cols))
    aug = ModuleMap(new_term, proj_m.target, eps_new)
    kept = tuple(part for idx, part in enumerate(tag0.parts) if idx not in selected)
    tags = (PermutationDescriptor(group, kept),) + res.tags[1:]
    out = Complex(new_terms, tuple(new_diffs), aug, tags)
    report = certify_resolution(out, require_tags=True)
    if not report.ok:
        raise _trim_failure(res, f"trimmed complex not exact: {report.first_failure()}")
    return out


def _trim_failure(res: Complex, what: str) -> Exception:
    """NotResolution naming the first check the input fails, or, if the
    input is a certified tagged resolution, InternalError(what)."""
    failed = certify_resolution(res, require_tags=True).first_failure()
    if failed is None:
        return InternalError(what)
    return NotResolution(f"input is not a resolution: {failed.name} FAIL ({failed.detail})")
