from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permres import complexes, linalg, modules
from permres.complexes import (
    ChainMap,
    CheckResult,
    Complex,
    certify_resolution,
    check_chain_map,
    cone,
    direct_sum_complexes,
    euler_characteristic,
    free_up_to,
    homology_dims,
    is_resolution,
    lift_chain_map,
    retarget_augmentation,
    single_term_complex,
    tag_complex,
    tensor_complexes,
    truncate,
)
from permres.errors import LiftFailed, NotPermutationBasis, NotResolution
from permres.groups import Group, Subgroup
from permres.io import complex_from_obj, complex_to_obj
from permres.linalg import Mat, inverse
from permres.modules import (
    Module,
    ModuleMap,
    check_module_map,
    direct_sum,
    free_module,
    identity_map,
    trivial_module,
    zero_map,
)
from permres.permutation import PermutationDescriptor, realize, recognize
from permres.random_modules import random_module
from permres import resolution
from permres.resolution import (
    _free_term,
    _trivial_complex,
    good_resolution,
    periodic_complex,
    trivial_resolution,
)

from helpers import (
    ref_action,
    ref_certify_lines,
    ref_densify,
    ref_lift,
    ref_permutation_vector,
    ref_rank,
)
from test_modules import cached_matrices

C2 = Group(2, 1)
C3 = Group(3, 1)
V4 = Group(2, 2)


def periodic_piece_c2():
    """0 -> k -> kC_2 -> kC_2 -> k -> 0, hand-built.

    Hand ranks over F_2: eps = [1 1] has rank 1, g - 1 = [[1,1],[1,1]] has
    rank 1, and the norm embedding [[1],[1]] has rank 1, so every homology
    vanishes.
    """
    f = free_module(C2, 1)
    k = trivial_module(C2, 1)
    gm1 = Mat(2, [[1, 1], [1, 1]])
    d1 = ModuleMap(f, f, gm1)
    d2 = ModuleMap(k, f, Mat(2, [[1], [1]]))
    eps = ModuleMap(f, k, Mat(2, [[1, 1]]))
    return Complex((f, f, k), (d1, d2), eps)


def conjugated(mod):
    """The same module in a basis that is not a permutation basis."""
    g = Mat(mod.group.p, np.triu(np.ones((mod.dim, mod.dim), dtype=np.int64)))
    g_inv = inverse(g)
    out = Module(mod.group, tuple(g @ a @ g_inv for a in mod.action))
    with pytest.raises(NotPermutationBasis):
        recognize(out)
    return out


def with_term(c, j, term):
    """c with the term of degree j replaced by a module of the same dim, its matrices kept."""
    terms = c.terms[:j] + (term,) + c.terms[j + 1 :]
    diffs = tuple(ModuleMap(terms[k + 1], terms[k], d.matrix) for k, d in enumerate(c.diffs))
    return Complex(terms, diffs, ModuleMap(terms[0], c.aug.target, c.aug.matrix), c.tags)


def non_permutation(group, d):
    """A module of dim d whose first generator is a unipotent, non-permutation matrix."""
    a = np.eye(d, dtype=np.int64)
    a[0, 1] = 1
    identity = Mat.identity(group.p, d)
    return Module(group, (Mat(group.p, a),) + (identity,) * (group.rank - 1))


def wrong_order(group, d):
    """A vector module of dim d whose first generator is a (p + 1)-cycle."""
    sigma = np.arange(d)
    sigma[: group.p + 1] = np.roll(sigma[: group.p + 1], 1)
    return Module.from_perms(group, [sigma] + [np.arange(d)] * (group.rank - 1))


def with_wrong_tag(c, j):
    tags = list(c.tags)
    tags[j] = PermutationDescriptor(c.group, (Subgroup.full(c.group),))
    return Complex(c.terms, c.diffs, c.aug, tuple(tags))


class TestHomology:
    def test_single_term_identity(self):
        m = free_module(C3, 1)
        c = single_term_complex(m, identity_map(m))
        assert homology_dims(c) == [0]
        assert is_resolution(c)

    def test_periodic_piece_is_exact(self):
        c = periodic_piece_c2()
        assert homology_dims(c) == [0, 0, 0]
        assert is_resolution(c)
        assert euler_characteristic(c) == 1

    def test_zero_differentials(self):
        k = trivial_module(C2, 1)
        c = Complex((k, k), (zero_map(k, k),))
        assert homology_dims(c) == [1, 1]
        assert not is_resolution(c)

    def test_augmentation_must_be_surjective(self):
        k2 = trivial_module(C2, 2)
        k = trivial_module(C2, 1)
        c = single_term_complex(k, zero_map(k, k))
        assert not is_resolution(c)
        c2 = single_term_complex(k2, ModuleMap(k2, k, Mat(2, [[1, 0]])))
        assert not is_resolution(c2)  # H_0 = 1


class TestFreeUpTo:
    def test_free_single_term(self):
        f = free_module(C3, 2)
        for term in (f, conjugated(f)):
            c = single_term_complex(term, identity_map(term))
            for m in range(4):
                assert free_up_to(c, m)

    def test_trivial_term_is_not_free(self):
        c = periodic_piece_c2()
        assert free_up_to(c, 0)
        assert free_up_to(c, 1)
        assert not free_up_to(c, 2)  # degree 2 is k
        free = conjugated(free_module(C3, 2))
        mixed = conjugated(direct_sum(free_module(C3, 1), trivial_module(C3, 1)).module)
        c = Complex((free, mixed), (zero_map(mixed, free),))
        assert free_up_to(c, 0)
        assert not free_up_to(c, 1)

    def test_tagged_path(self):
        c = tag_complex(periodic_piece_c2())
        assert free_up_to(c, 1)
        assert not free_up_to(c, 2)
        # the tagged and the untagged path agree wherever both exist
        f = free_module(C2, 1)
        mixed = direct_sum(f, trivial_module(C2, 1)).module
        for c in (
            periodic_piece_c2(),
            single_term_complex(f, identity_map(f)),
            Complex((f, mixed), (zero_map(mixed, f),)),
            periodic_complex(V4, 2, 4),
            trivial_resolution(V4, 1).complex,
        ):
            untagged = Complex(c.terms, c.diffs, c.aug)
            for m in range(c.top + 2):
                assert free_up_to(untagged, m) == free_up_to(tag_complex(c), m)


class TestCone:
    def test_cone_of_identity_is_exact(self):
        c = tag_complex(periodic_piece_c2())
        ident = ChainMap(c, c, tuple(identity_map(t) for t in c.terms))
        assert check_chain_map(ident) is None
        cn = cone(ident)
        assert all(h == 0 for h in homology_dims(cn))
        assert cn.tags is not None
        # composed tags are exactly the recognized descriptors
        for tag, term in zip(cn.tags, cn.terms):
            assert tag == recognize(term).descriptor

    def test_cone_of_zero_from_zero_complex(self):
        c = periodic_piece_c2()
        z = single_term_complex(trivial_module(C2, 0))
        f = ChainMap(z, c, (None,))
        cn = cone(f)
        assert cn.dims() == c.dims()
        for got, want in zip(cn.diffs, c.diffs):
            assert got.matrix == want.matrix


class TestTensor:
    def test_unit(self):
        a = periodic_piece_c2()
        k = trivial_module(C2, 1)
        unit = single_term_complex(k, identity_map(k))
        t = tensor_complexes(a, unit)
        assert t.dims() == a.dims()
        for got, want in zip(t.diffs, a.diffs):
            assert got.matrix == want.matrix
        assert is_resolution(t)

    def test_euler_multiplicative(self):
        a = periodic_piece_c2()
        t = tensor_complexes(a, a)
        assert euler_characteristic(t) == euler_characteristic(a) ** 2
        assert is_resolution(t)

    def test_koszul_signs_over_c3(self):
        # 2-periodic piece over C_3: eps, g-1, norm, then k on top
        f = free_module(C3, 1)
        k = trivial_module(C3, 1)
        g = f.action[0]
        eye = Mat.identity(3, 3)
        gm1 = g - eye
        norm = eye + g + g @ g
        c = Complex(
            (f, f, k),
            (ModuleMap(f, f, gm1), ModuleMap(k, f, Mat(3, np.ones((3, 1), dtype=np.int64)))),
            ModuleMap(f, k, Mat(3, np.ones((1, 3), dtype=np.int64))),
        )
        assert is_resolution(c)
        t = tensor_complexes(c, c)
        assert is_resolution(t)
        assert t.dims() == (9, 18, 15, 6, 1)


class TestMackeyTags:
    """tensor_complexes states its tags by the Mackey rule, recognizing nothing."""

    @pytest.mark.parametrize("p, r", [(2, 2), (3, 2), (2, 3)])
    def test_periodic_pieces(self, p, r):
        group = Group(p, r)
        t = periodic_complex(group, 1, 2)
        for i in range(2, r + 1):
            t = tensor_complexes(t, periodic_complex(group, i, 2))
        for tag, term in zip(t.tags, t.terms):
            assert tag == recognize(term).descriptor

    @pytest.mark.parametrize(
        "p, r, h, k",
        [
            (2, 2, [[0, 1]], [[0, 1]]),  # H = K a line: p copies of k(E/H)
            (3, 2, [[1, 1]], [[1, 1]]),
            (2, 3, [[1, 0, 0]], [[0, 1, 0]]),  # H + K a plane: 2 copies of kE
            (2, 3, [[1, 0, 0], [0, 1, 0]], [[1, 0, 0]]),  # K < H: 2 copies of k(E/K)
        ],
    )
    def test_single_terms_with_multiplicity(self, p, r, h, k):
        group = Group(p, r)
        h, k = Subgroup(group, h), Subgroup(group, k)
        assert (h + k).index > 1
        a, b = (
            Complex((realize(d).module,), (), tags=(d,))
            for d in (PermutationDescriptor(group, (h,)), PermutationDescriptor(group, (k,)))
        )
        t = tensor_complexes(a, b)
        assert t.tags[0] == recognize(t.terms[0]).descriptor
        assert len(t.tags[0].parts) == (h + k).index

    def test_tensor_complexes_recognizes_nothing(self, monkeypatch):
        a = periodic_complex(V4, 1, 2)
        b = periodic_complex(V4, 2, 2)

        def no_recognize(m):
            raise AssertionError("a term was recognized")

        monkeypatch.setattr(complexes, "recognize", no_recognize)
        monkeypatch.setattr(complexes, "recognize_all", no_recognize)
        assert tensor_complexes(a, b).tags is not None


class TestTruncate:
    def test_truncate_length_zero(self):
        f = free_module(C2, 1)
        c = single_term_complex(f, identity_map(f))
        t = truncate(c)
        assert t.dims() == (0,)
        assert t.aug.target.dim == 0
        assert is_resolution(t)

    def test_truncate_periodic_piece(self):
        c = tag_complex(periodic_piece_c2())
        t = truncate(c)
        assert t.dims() == (2, 1)
        assert t.aug.target.dim == 1  # ker of the augmentation of kC_2
        assert is_resolution(t)
        assert t.tags is not None and len(t.tags) == 2

    def test_truncate_requires_resolution(self):
        k = trivial_module(C2, 1)
        c = single_term_complex(k, zero_map(k, k))
        with pytest.raises(NotResolution):
            truncate(c)

    def test_a_tagged_length_zero_complex_stays_tagged(self):
        f = free_module(C2, 1)
        t = truncate(tag_complex(single_term_complex(f, identity_map(f))))
        assert t.tags == (PermutationDescriptor(C2, ()),)
        assert certify_resolution(t, m=0, require_tags=True).ok

    def test_refusals_name_their_reason(self):
        c = periodic_piece_c2()
        # d_1 = 1 does not land in ker(eps)
        not_into_kernel = Complex(c.terms, (identity_map(c.terms[1]), c.diffs[1]), c.aug)
        for bad, message in (
            (Complex(c.terms, c.diffs), "cannot truncate an unaugmented complex"),
            (not_into_kernel, "image of d_1 is not contained in ker(eps)"),
        ):
            with pytest.raises(NotResolution) as info:
                truncate(bad)
            assert str(info.value) == message


class TestLift:
    def test_zero_map_lifts_to_zero(self):
        c = tag_complex(periodic_piece_c2())
        k = trivial_module(C2, 1)
        lift = lift_chain_map(zero_map(k, k), c, c, ell=c.top)
        assert check_chain_map(lift) is None
        for comp in lift.components:
            assert comp.matrix.is_zero()

    def test_identity_lift_is_a_chain_map(self):
        c = tag_complex(periodic_piece_c2())
        k = trivial_module(C2, 1)
        lift = lift_chain_map(identity_map(k), c, c, ell=c.top)
        assert check_chain_map(lift) is None
        # degree 0 must still cover the augmentation identity
        assert (c.aug.matrix @ lift.components[0].matrix) == c.aug.matrix

    @pytest.mark.parametrize("p, r", [(2, 3), (3, 2)])
    def test_identity_lift_through_non_free_parts(self, p, r):
        c = trivial_resolution(Group(p, r), 0).complex
        # parts of every codimension, the trivial module k included
        dims = {part.dim for tag in c.tags for part in tag.parts}
        assert dims == set(range(r + 1))
        lift = lift_chain_map(identity_map(c.aug.target), c, c, ell=c.top)
        assert check_chain_map(lift) is None
        for comp in lift.components:
            assert check_module_map(comp) is None

    def test_non_permutation_source_is_refused(self):
        # kC_2 -> k in a basis that is not a permutation basis
        k = trivial_module(C2, 1)
        f = conjugated(free_module(C2, 1))
        q = single_term_complex(f, ModuleMap(f, k, Mat(2, [[1, 0]])))
        assert check_module_map(q.aug) is None
        with pytest.raises(NotPermutationBasis):
            lift_chain_map(identity_map(k), q, periodic_piece_c2(), ell=2)

    @pytest.mark.parametrize(
        "free, bad_at, error",
        [
            # no lift out of k(E/H) onto kE at degree 0, before the bad degree 1
            (True, 1, (LiftFailed, "no lift exists at degree 0")),
            (True, 0, (NotPermutationBasis, "generator 1 is not a permutation matrix")),
            # a lift onto k(E/H) exists at degree 0, so degree 1 is named
            (False, 1, (NotPermutationBasis, "generator 1 is not a permutation matrix")),
        ],
    )
    def test_the_lowest_failing_degree_is_reported(self, free, bad_at, error):
        q = periodic_complex(V4, 1, 2)
        pc = trivial_resolution(V4, 1).complex if free else q
        f = identity_map(q.aug.target)
        bad = with_term(q, bad_at, non_permutation(V4, q.terms[bad_at].dim))
        kind, text = error
        with pytest.raises(kind, match=text):
            lift_chain_map(f, bad, pc, pc.top)

    def test_lift_across_shorter_target(self):
        q = tag_complex(periodic_piece_c2())
        f = free_module(C2, 1)
        p = single_term_complex(f, ModuleMap(f, trivial_module(C2, 1), Mat(2, [[1, 1]])))
        # p is not a resolution of k (it has H_0 = 1), but the lifting
        # equations at degrees 0..top(p) are still solvable for f = id
        with pytest.raises(Exception):
            lift_chain_map(identity_map(trivial_module(C2, 1)), q, p, ell=0)

    def test_a_longer_source_checks_vanishing_once(self):
        # q stops one degree above the target p, and f_0 d_1 = g - 1 is not zero
        c = periodic_piece_c2()
        q = Complex(c.terms[:2], c.diffs[:1], c.aug)
        f = free_module(C2, 1)
        p = single_term_complex(f, ModuleMap(f, trivial_module(C2, 1), Mat(2, [[1, 1]])))
        with pytest.raises(LiftFailed, match=r"^automatic vanishing fails at degree 1$"):
            lift_chain_map(identity_map(trivial_module(C2, 1)), q, p, ell=0)

    def test_inputs_are_checked(self):
        c = tag_complex(periodic_piece_c2())
        k = c.aug.target
        unaugmented = Complex(c.terms, c.diffs, tags=c.tags)
        for f, q, pc, ell, message in (
            (identity_map(k), unaugmented, c, 2, "both complexes must be augmented"),
            (identity_map(k), c, unaugmented, 2, "both complexes must be augmented"),
            (
                identity_map(trivial_module(C2, 2)),
                c,
                c,
                2,
                "augmentation targets do not match the map being lifted",
            ),
            (identity_map(k), c, c, 1, "target complex has top degree 2 > ell = 1"),
        ):
            with pytest.raises(LiftFailed) as info:
                lift_chain_map(f, q, pc, ell)
            assert str(info.value) == message

    def test_check_chain_map_names_the_failing_degree(self):
        c = tag_complex(periodic_piece_c2())
        k = c.aug.target
        f0, f1, f2 = lift_chain_map(identity_map(k), c, c, ell=c.top).components
        zero = [zero_map(t, t) for t in c.terms]
        for components, report in (
            ((zero[0], f1, f2), "chain-map identity fails at degree 0 (augmentations)"),
            ((f0, zero[1], f2), "chain-map identity fails at degree 1"),
        ):
            assert check_chain_map(ChainMap(c, c, components, base=identity_map(k))) == report

    def test_components_above_the_target_are_zero(self):
        # k resolving itself: f_0 = eps, and eps d_1 = 0, so the lift exists
        q = periodic_piece_c2()
        k = q.aug.target
        lift = lift_chain_map(identity_map(k), q, single_term_complex(k, identity_map(k)), ell=0)
        assert lift.components[0].matrix == q.aug.matrix
        assert lift.components[1:] == (None, None)
        assert check_chain_map(lift) is None


def _lift_outcome(f, q, pc):
    """(components, None) of ``lift_chain_map``, or (None, its LiftFailed message)."""
    try:
        lift = lift_chain_map(f, q, pc, pc.top)
    except LiftFailed as e:
        return None, str(e)
    assert check_chain_map(lift) is None
    return [c.matrix.a for c in lift.components[: pc.top + 1]], None


def _matches_reference(f, q, pc):
    """The lift against ``ref_lift``, which solves every part on all its rows;
    returns the LiftFailed message, or None."""
    got, message = _lift_outcome(f, q, pc)
    data = []
    for c in (q, pc):
        data += [[c.aug.matrix.a] + [d.matrix.a for d in c.diffs], [ref_action(t) for t in c.terms]]
    want, want_message = ref_lift(f.source.group.p, f.matrix.a, *data)
    assert message == want_message
    if got is not None:
        assert len(got) == len(want)
        for j, (a, b) in enumerate(zip(got, want)):
            assert np.array_equal(a, b), f"component {j}"
    return message


def _splice_lifts(module, m):
    """(f, q, pc) of every lift that ``good_resolution(module, m)`` makes."""
    calls = []
    real = resolution.lift_chain_map

    def recording(f, q, pc, ell):
        calls.append((f, q, pc))
        return real(f, q, pc, ell)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resolution, "lift_chain_map", recording)
        good_resolution(module, m)
    return calls


class TestLiftRows:
    """Each degree of a lift solves every part on the rows that decide it,
    those off the pivots of d_(j-1).  The components and the failures must
    be those of the whole systems."""

    @settings(max_examples=12, deadline=None)
    @given(
        st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2)]),
        st.integers(2, 3),
        st.integers(0, 2),
        st.integers(0, 10**6),
    )
    def test_splice_lifts_match_the_whole_systems(self, pr, dim, m, seed):
        p, r = pr
        for f, q, pc in _splice_lifts(random_module(p, r, dim, seed), m):
            _matches_reference(f, q, pc)
            # shorter resolutions of the kernel, where lifts may fail
            for short in (0, 1):
                q_short = truncate(_trivial_complex(f.source.group, short))
                if q_short.top < q.top and q_short.aug.target == f.source:
                    _matches_reference(f, q_short, pc)

    @pytest.mark.parametrize("p, r, dim, seed", [(2, 2, 3, 1), (3, 2, 3, 633), (5, 1, 3, 2)])
    def test_short_sources_fail_where_the_whole_systems_do(self, p, r, dim, seed):
        messages = set()
        for f, q, pc in _splice_lifts(random_module(p, r, dim, seed), 2):
            q_short = truncate(_trivial_complex(f.source.group, 0))
            messages.add(_matches_reference(f, q_short, pc))
        assert messages - {None}, "no short source failed to lift"


class TestAssembly:
    def test_direct_sum_complexes(self):
        a = tag_complex(periodic_piece_c2())
        f = free_module(C2, 1)
        b = tag_complex(single_term_complex(f, identity_map(f)))
        s = direct_sum_complexes(a, b)
        assert s.dims() == (4, 2, 1)
        assert is_resolution(s)
        assert s.aug.target.dim == 3
        # composed tags are exactly the recognized descriptors
        assert s.tags is not None
        for tag, term in zip(s.tags, s.terms):
            assert tag == recognize(term).descriptor

    @pytest.mark.parametrize("p, r", [(2, 2), (3, 2)])
    @pytest.mark.parametrize("t", [0, 1, 3])
    def test_free_term_tags_are_recognized_ones(self, p, r, t):
        group = Group(p, r)
        free = _free_term(group, t)
        assert free.terms[0] == free_module(group, t)
        s = direct_sum_complexes(trivial_resolution(group, 1).complex, free)
        # stated and composed tags are exactly the recognized descriptors
        for tag, term in zip(free.tags + s.tags, free.terms + s.terms):
            assert tag == recognize(term).descriptor

    def test_retarget(self):
        c = periodic_piece_c2()
        other = trivial_module(C2, 1)
        r = retarget_augmentation(c, other)
        assert r.aug.target is other


class TestCertify:
    def test_good_report(self):
        c = tag_complex(periodic_piece_c2())
        report = certify_resolution(c, m=1, require_tags=True)
        assert report.ok, report.lines()

    def test_corrupted_differential_is_caught(self):
        c = periodic_piece_c2()
        bad_d1 = ModuleMap(c.terms[1], c.terms[0], Mat(2, [[1, 0], [1, 1]]))
        bad = Complex(c.terms, (bad_d1, c.diffs[1]), c.aug)
        report = certify_resolution(bad)
        assert not report.ok
        assert report.first_failure() is not None

    def test_swapped_claims_fail_naming_the_degree(self):
        c = trivial_resolution(V4, 1).complex
        assert c.tags[0] != c.tags[1]
        swapped = (c.tags[1], c.tags[0]) + c.tags[2:]
        # degree 3 is k(E/H_1) + k(E/H_2); claim k(E/H_1) twice, as large and as free
        h1, h2 = c.tags[3].parts
        assert h1 != h2
        doubled = c.tags[:3] + (PermutationDescriptor(V4, (h1, h1)),) + c.tags[4:]
        for tags, degree in ((swapped, 0), (doubled, 3)):
            report = certify_resolution(Complex(c.terms, c.diffs, c.aug, tags), m=1)
            assert report.first_failure() == CheckResult(
                "tags", False, f"degree {degree}: recognized tag differs from the stored tag"
            )

    # the first failing degree is named, whether its tag differs or it has no
    # permutation basis, with the other lines unchanged
    @pytest.mark.parametrize(
        "bad, bad_at, tag_at, lines",
        [
            (
                non_permutation,
                3,
                1,
                [
                    "terms-valid: PASS",
                    "maps-intertwine: FAIL (degree 3: map does not intertwine generator 1)",
                    "tags: FAIL (degree 1: recognized tag differs from the stored tag)",
                    "free-up-to: FAIL (m = 1)",
                ],
            ),
            (
                non_permutation,
                1,
                3,
                [
                    "terms-valid: PASS",
                    "maps-intertwine: FAIL (degree 1: map does not intertwine generator 1)",
                    "tags: FAIL (degree 1: generator 1 is not a permutation matrix "
                    "(first offending row 0))",
                    "free-up-to: PASS (m = 1)",
                ],
            ),
            (
                wrong_order,
                2,
                0,
                [
                    "terms-valid: FAIL (degree 2: generator 1: order does not divide p)",
                    "maps-intertwine: FAIL (degree 2: map does not intertwine generator 1)",
                    "tags: FAIL (degree 0: recognized tag differs from the stored tag)",
                    "free-up-to: FAIL (m = 1)",
                ],
            ),
            (
                wrong_order,
                0,
                2,
                [
                    "terms-valid: FAIL (degree 0: generator 1: order does not divide p)",
                    "maps-intertwine: FAIL (degree 1: map does not intertwine generator 1)",
                    "tags: FAIL (degree 0: the generators do not act as E: "
                    "generator 1: order does not divide p)",
                    "free-up-to: PASS (m = 1)",
                ],
            ),
        ],
        ids=["tag-then-term", "term-then-tag", "tag-then-order", "order-then-tag"],
    )
    def test_a_wrong_tag_and_a_bad_term(self, bad, bad_at, tag_at, lines):
        c = trivial_resolution(V4, 3).complex
        corrupted = with_wrong_tag(with_term(c, bad_at, bad(V4, c.terms[bad_at].dim)), tag_at)
        terms_valid, maps, tags, free = lines
        assert certify_resolution(corrupted, m=1).lines() == [
            "augmented: PASS",
            terms_valid,
            maps,
            "d-squared: PASS",
            "exact: PASS",
            "euler-characteristic: PASS (chi = 1, target dim = 1)",
            tags,
            free,
        ]

    # the scans stop at the first failing degree: nothing above it is checked
    def test_maps_are_checked_up_to_the_first_failure(self, monkeypatch):
        c = periodic_piece_c2()
        bad_d1 = ModuleMap(c.terms[1], c.terms[0], Mat(2, [[1, 0], [1, 1]]))
        calls = []
        monkeypatch.setattr(
            complexes, "check_module_map", lambda f: calls.append(f) or check_module_map(f)
        )
        report = certify_resolution(Complex(c.terms, (bad_d1, c.diffs[1]), c.aug))
        assert report.first_failure() == CheckResult(
            "maps-intertwine", False, "degree 1: map does not intertwine generator 1"
        )
        assert [id(f) for f in calls] == [id(c.aug), id(bad_d1)]

    def test_terms_are_validated_up_to_the_first_failure(self, monkeypatch):
        c = trivial_resolution(V4, 1).complex
        bad = with_term(c, 1, wrong_order(V4, c.terms[1].dim))
        seen = []
        monkeypatch.setattr(
            Module, "defect", property(lambda m: seen.append(m) or modules.validate_module(m))
        )
        # untagged, so no recognition reads a defect after terms-valid
        report = certify_resolution(Complex(bad.terms, bad.diffs, bad.aug))
        assert report.checks[1] == CheckResult(
            "terms-valid", False, "degree 1: generator 1: order does not divide p"
        )
        assert [id(m) for m in seen] == [id(t) for t in bad.terms[:2]]

    def test_a_target_that_is_not_a_module(self):
        c = trivial_resolution(C3, 1).complex
        bad = Module(C3, (Mat(3, [[2]]),))  # order 2, which does not divide 3
        aug = ModuleMap(c.terms[0], bad, c.aug.matrix)
        lines = certify_resolution(Complex(c.terms, c.diffs, aug)).lines()
        assert lines[1] == "terms-valid: FAIL (target: generator 1: order does not divide p)"

    def test_tags_are_required_on_request(self):
        c = periodic_piece_c2()
        assert "tags: FAIL (complex is untagged)" not in certify_resolution(c).lines()
        assert certify_resolution(c, require_tags=True).lines()[-1] == (
            "tags: FAIL (complex is untagged)"
        )

    def test_euler_diagnostic(self):
        k = trivial_module(C2, 1)
        k2 = trivial_module(C2, 2)
        c = single_term_complex(k2, ModuleMap(k2, k, Mat(2, [[1, 0]])))
        report = certify_resolution(c)
        names = {chk.name: chk.ok for chk in report.checks}
        assert not names["exact"]
        assert not names["euler-characteristic"]

    @staticmethod
    def _resolution(permutation_target):
        if permutation_target:
            return trivial_resolution(V4, 3)
        return good_resolution(random_module(3, 2, 3, seed=4), 1)

    @staticmethod
    def _scanned(monkeypatch):
        """The matrices ``permutation_vector`` is called on in ``modules``."""
        calls = []
        scan = modules.permutation_vector
        monkeypatch.setattr(modules, "permutation_vector", lambda a: calls.append(a) or scan(a))
        return calls

    @staticmethod
    def _scan_length(mod):
        """How many generators a module made from matrices scans: all of a
        permutation module's, else those up to the first that is no permutation."""
        found = [ref_permutation_vector(a) is not None for a in ref_action(mod)]
        return len(found) if all(found) else found.index(False) + 1

    @pytest.mark.parametrize("permutation_target", [True, False])
    def test_each_module_is_scanned_once(self, monkeypatch, permutation_target):
        res = self._resolution(permutation_target)
        obj = ref_densify(complex_to_obj(res.complex, m=res.m))
        # a dense file: each body is scanned once, as it is read
        calls = self._scanned(monkeypatch)
        c = complex_from_obj(obj).complex
        maps = c.diffs + (c.aug,)
        ends = c.terms + tuple(f.source for f in maps) + tuple(f.target for f in maps)
        bodies = {id(x): x for x in ends}.values()
        assert len({id(a) for a in calls}) == len(calls)
        assert len(calls) == sum(map(self._scan_length, bodies))
        assert all(x.perms is not None for x in c.terms)
        assert (c.aug.target.perms is not None) == permutation_target
        # permres verify: the certificate, which checks the stored tags, scans nothing
        calls.clear()
        assert c.tags is not None
        assert certify_resolution(c, m=res.m).ok
        assert calls == []

    @pytest.mark.parametrize("permutation_target", [True, False])
    def test_a_vector_file_makes_no_generator_matrix(self, monkeypatch, permutation_target):
        res = self._resolution(permutation_target)
        obj = complex_to_obj(res.complex, m=res.m)
        calls = self._scanned(monkeypatch)
        for owner in (modules, linalg):
            monkeypatch.setattr(owner, "permutation_matrix", lambda *a: pytest.fail("a matrix"))
        c = complex_from_obj(obj).complex
        # only a target M that is not a permutation module is scanned, once,
        # as it is read, and never again
        target = c.aug.target
        assert len(calls) == (0 if permutation_target else self._scan_length(target))
        calls.clear()
        assert c.tags is not None
        assert certify_resolution(c, m=res.m).ok
        assert calls == []
        # every term is read as index vectors, and keeps no matrix
        assert not any(cached_matrices(t) for t in c.terms)


def _square_zero_complex(p, seed, augmented, target, dims):
    """Trivial C_p-modules with d^2 = 0: each map is a random combination of
    a nullspace basis of the map below (eps, or the zero map without one)."""
    rng = np.random.default_rng(seed)
    group = Group(p, 1)
    terms = tuple(trivial_module(group, n) for n in dims)
    below = Mat(p, rng.integers(0, p, (target, dims[0]) if augmented else (0, dims[0])))
    aug = ModuleMap(terms[0], trivial_module(group, target), below) if augmented else None
    diffs = []
    for j in range(1, len(dims)):
        null = linalg.nullspace(below)
        below = null @ Mat(p, rng.integers(0, p, (null.cols, dims[j])))
        diffs.append(ModuleMap(terms[j], terms[j - 1], below))
    return Complex(terms, tuple(diffs), aug)


BUILT = {
    "trivial(2,2,3)": lambda: trivial_resolution(V4, 3).complex,
    "good(2,2,2,1)": lambda: good_resolution(random_module(2, 2, 2, 1), 1).complex,
    "good(3,1,2,1)": lambda: good_resolution(random_module(3, 1, 2, 1), 1).complex,
    "good(5,1,2,1)": lambda: good_resolution(random_module(5, 1, 2, 1), 1).complex,
}


@cache
def _built(name):
    return BUILT[name]()


def _changed(c, changes):
    """c with entry ``flat`` of map k (the augmentation at k = 0, d_k above it)
    raised by ``delta``, for each (k, flat, delta); empty maps are left alone."""
    maps = [c.aug, *c.diffs]
    for k, flat, delta in changes:
        f = maps[k]
        if f is None or not f.matrix.a.size:
            continue
        a = f.matrix.a.copy()
        a.flat[flat % a.size] += delta
        maps[k] = ModuleMap(f.source, f.target, Mat(c.group.p, a))
    return Complex(c.terms, tuple(maps[1:]), maps[0], c.tags)


@st.composite
def square_zero_complexes(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    dims = [draw(st.integers(0, 6))]
    for _ in range(draw(st.integers(0, 4))):
        # about the dim of the kernel below, so that some degrees are exact
        dims.append(max(0, dims[-1] + draw(st.integers(-3, 1))))
    augmented = draw(st.integers(0, 4)) > 0
    return _square_zero_complex(
        p, draw(st.integers(0, 2**32 - 1)), augmented, draw(st.integers(0, 3)), dims
    )


@st.composite
def corrupted_complexes(draw):
    """A complex of either kind with 1-3 entries changed below, at and above one degree."""
    if draw(st.booleans()):
        c = draw(square_zero_complexes())
    else:
        c = _built(draw(st.sampled_from(sorted(BUILT))))
    j = draw(st.integers(0, c.top))
    changes = st.lists(
        st.tuples(
            st.integers(max(0, j - 1), min(c.top, j + 1)),
            st.integers(0, 10**6),
            st.integers(1, c.group.p - 1),
        ),
        min_size=1,
        max_size=3,
    )
    return _changed(c, draw(changes))


def _oracle_lines(c):
    return ref_certify_lines(
        c.group.p,
        list(c.dims()),
        [d.matrix.a.tolist() for d in c.diffs],
        None if c.aug is None else c.aug.matrix.a.tolist(),
        0 if c.aug is None else c.aug.target.dim,
    )


def _pass_lines(c):
    lines = certify_resolution(c).lines()
    return [line for line in lines if line.split(":")[0] in ("d-squared", "exact")]


class TestRankPass:
    """The one bottom-up pass against full products and ranks on all rows."""

    @settings(max_examples=150, deadline=None)
    @given(square_zero_complexes())
    def test_square_zero_complexes(self, c):
        assert _pass_lines(c) == _oracle_lines(c)

    @settings(max_examples=150, deadline=None)
    @given(corrupted_complexes())
    def test_corrupted_complexes(self, c):
        assert _pass_lines(c) == _oracle_lines(c)

    @pytest.mark.parametrize("name", sorted(BUILT))
    def test_built_resolutions(self, name):
        c = _built(name)
        assert _pass_lines(c) == _oracle_lines(c) == ["d-squared: PASS", "exact: PASS"]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_homology_after_a_nonzero_product(self, k):
        # one entry of d_k changed: d_(k-1) d_k or d_k d_(k+1) is no longer 0
        c = _changed(_built("trivial(2,2,3)"), [(k, 5, 1)])
        assert _pass_lines(c) == _oracle_lines(c)
        maps = (c.aug, *c.diffs)
        ranks = [ref_rank(f.matrix.a.tolist(), 2) for f in maps] + [0]
        want = [n - ranks[j] - ranks[j + 1] for j, n in enumerate(c.dims())]
        assert homology_dims(c) == want
