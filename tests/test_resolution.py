import hashlib

import numpy as np
import pytest

from permres.complexes import (
    certify_resolution,
    euler_characteristic,
    free_up_to,
    homology_dims,
    is_resolution,
    single_term_complex,
    syzygy,
    tag_complex,
    tensor_complexes,
    truncate,
)
from permres import resolution
from permres.errors import LiftFailed, OddLength, SelectionFailed
from permres.groups import Group
from permres.io import canonical_dumps, complex_to_obj
from permres.linalg import Mat
from permres.modules import (
    ModuleMap,
    ShortExactSequence,
    block_sum,
    composition_series,
    direct_sum,
    free_module,
    free_rank,
    identity_map,
    omega,
    omega_iter,
    ses_from_flag,
    trivial_module,
    zero_map,
)
from permres.permutation import recognize
from permres.resolution import (
    good_resolution,
    periodic_complex,
    rotate,
    splice,
    trim,
    trivial_resolution,
)
from permres.random_modules import random_module

from helpers import ref_densify, ref_rank
from test_modules import cached_matrices
from test_acceptance import END_TO_END_CORPUS

C2 = Group(2, 1)
C3 = Group(3, 1)
V4 = Group(2, 2)


class TestPeriodicComplex:
    def test_c2_length_2(self):
        c = periodic_complex(C2, 1, 2)
        assert c.dims() == (2, 2, 1)
        both = Mat(2, [[1, 1], [1, 1]])  # over F_2, g - 1 and the norm coincide
        assert c.diffs[0].matrix == both
        assert c.diffs[1].matrix == Mat(2, [[1], [1]])
        assert c.aug.matrix == Mat(2, [[1, 1]])
        assert is_resolution(c)

    def test_c3_length_2(self):
        c = periodic_complex(C3, 1, 2)
        assert c.dims() == (3, 3, 1)
        g = free_module(C3, 1).action[0]
        gm1 = g - Mat.identity(3, 3)
        assert c.diffs[0].matrix == gm1
        # brute-force oracle ranks: g-1 has rank 2, the norm has rank 1
        assert ref_rank(gm1.a.tolist(), 3) == 2
        norm = (np.ones((3, 3), dtype=np.int64)).tolist()
        assert ref_rank(norm, 3) == 1
        assert is_resolution(c)

    def test_odd_length_rejected(self):
        with pytest.raises(OddLength):
            periodic_complex(C2, 1, 3)
        with pytest.raises(OddLength):
            periodic_complex(C2, 1, 0)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("ell", [2, 4, 6])
    def test_exact_for_all_tested_parameters(self, p, ell):
        c = periodic_complex(Group(p, 1), 1, ell)
        assert all(h == 0 for h in homology_dims(c))

    def test_hyperplane_factor_in_rank_2(self):
        c = periodic_complex(V4, 2, 2)
        assert c.dims() == (2, 2, 1)
        # e_1 fixes the cosets of H_2 = span{e_1}, e_2 permutes them
        assert c.terms[0].action[0].is_identity()
        assert not c.terms[0].action[1].is_identity()


class TestTrivialResolution:
    def test_rank_one_is_the_periodic_complex(self):
        got = trivial_resolution(C2, 0).complex
        want = periodic_complex(C2, 1, 2)
        assert got.dims() == want.dims()
        for a, b in zip(got.diffs, want.diffs):
            assert a.matrix == b.matrix
        assert got.aug.matrix == want.aug.matrix

    def test_v4_m1_term_dims(self):
        res = trivial_resolution(V4, 1)
        assert res.complex.dims() == (4, 8, 8, 4, 1)
        assert euler_characteristic(res.complex) == 1
        assert free_up_to(res.complex, 1)
        assert res.complex.terms[0] == free_module(V4, 1)

    def test_v4_m2_is_longer_and_free_up_to_3(self):
        res = trivial_resolution(V4, 2)
        assert res.complex.top == 8
        # convolution of (2,2,2,2,1) with itself
        assert res.complex.dims() == (4, 8, 12, 16, 16, 12, 8, 4, 1)
        assert free_up_to(res.complex, 3)
        assert not free_up_to(res.complex, 4)
        assert euler_characteristic(res.complex) == 1

    def test_tensor_of_two_periodic_complexes_matches(self):
        q1 = periodic_complex(V4, 1, 2)
        q2 = periodic_complex(V4, 2, 2)
        t = tensor_complexes(q1, q2)
        assert t.dims() == (4, 8, 8, 4, 1)
        assert is_resolution(t)
        assert recognize(t.terms[0]).descriptor.is_free()

    def test_all_terms_tagged(self):
        res = trivial_resolution(Group(3, 2), 0)
        assert res.complex.tags is not None
        assert len(res.complex.tags) == res.complex.top + 1


class TestRotate:
    def flag_ses(self, module, step):
        incls = composition_series(module)
        return ses_from_flag(incls[step - 1], incls[step])

    def test_zero_quotient(self):
        m = trivial_module(C2, 2)
        incls = composition_series(m)
        ses = ses_from_flag(incls[2], incls[2])
        rot = rotate(ses)
        assert rot.cover.free.dim == 0
        assert rot.ses.incl.source.dim == 0
        assert rot.ses.proj.source.dim == m.dim

    def test_free_quotient(self):
        f = free_module(C2, 1)
        k = trivial_module(C2, 0)
        ds = direct_sum(k, f)
        from permres.modules import ShortExactSequence

        ses = ShortExactSequence(incl=ds.inj1, proj=ds.proj2)
        rot = rotate(ses)
        assert rot.ses.incl.source.dim == 0  # Omega of a free module
        assert rot.ses.proj.source.dim == f.dim

    @pytest.mark.parametrize(
        "case, report",
        [
            ("other middle", "inclusion target differs from projection source"),
            ("incl not equivariant", "inclusion: map does not intertwine generator 1"),
            ("proj not equivariant", "projection: map does not intertwine generator 1"),
            ("incl zero", "inclusion is not injective"),
            ("proj zero", "projection is not surjective"),
            ("incl onto proj", "projection composed with inclusion is nonzero"),
            ("middle too large", "ranks do not add up to the middle dimension"),
        ],
    )
    def test_an_input_that_is_not_short_exact(self, case, report):
        k, k2, k3 = (trivial_module(C2, n) for n in (1, 2, 3))
        f = free_module(C2, 1)
        norm, aug = ModuleMap(k, f, Mat(2, [[1], [1]])), ModuleMap(f, k, Mat(2, [[1, 1]]))
        incl, proj = {
            "other middle": (identity_map(k), aug),
            "incl not equivariant": (ModuleMap(k, f, Mat(2, [[1], [0]])), aug),
            "proj not equivariant": (norm, ModuleMap(f, k, Mat(2, [[1, 0]]))),
            "incl zero": (zero_map(k, f), aug),
            "proj zero": (norm, zero_map(f, k)),
            "incl onto proj": (
                ModuleMap(k, k2, Mat(2, [[1], [0]])),
                ModuleMap(k2, k, Mat(2, [[1, 0]])),
            ),
            "middle too large": (
                ModuleMap(k, k3, Mat(2, [[1], [0], [0]])),
                ModuleMap(k3, k, Mat(2, [[0, 1, 0]])),
            ),
        }[case]
        with pytest.raises(ValueError) as info:
            rotate(ShortExactSequence(incl=incl, proj=proj))
        assert str(info.value) == f"input is not short exact: {report}"

    def test_socle_step_of_kc2(self):
        ses = self.flag_ses(free_module(C2, 1), 2)
        rot = rotate(ses)
        dims = (
            rot.ses.incl.source.dim,
            rot.ses.proj.source.dim,
            rot.ses.proj.target.dim,
        )
        assert dims == (1, 3, 2)


class TestSplice:
    def test_zero_source(self):
        f = free_module(C2, 1)
        res_m = tag_complex(single_term_complex(f, identity_map(f)))
        z = trivial_module(C2, 0)
        res_l = tag_complex(single_term_complex(z, identity_map(z)))
        out = splice(res_l, res_m, zero_map(z, f), identity_map(f))
        assert is_resolution(out)
        assert out.aug.target == f

    def test_iso_gives_zero_target(self):
        f = free_module(C2, 1)
        res = tag_complex(single_term_complex(f, identity_map(f)))
        out = splice(res, res, identity_map(f), zero_map(f, trivial_module(C2, 0)))
        assert is_resolution(out)
        assert out.aug.target.dim == 0

    def test_flag_step_of_kc2(self):
        # resolve the socle (a trivial line) and k (+) kC_2, splice to kC_2
        f = free_module(C2, 1)
        incls = composition_series(f)
        ses = ses_from_flag(incls[1], incls[2])
        rot = rotate(ses)
        base = trivial_resolution(C2, 1).complex
        from permres.complexes import direct_sum_complexes, retarget_augmentation

        res_l1 = retarget_augmentation(base, incls[1].source)
        extra = tag_complex(
            single_term_complex(rot.cover.free, identity_map(rot.cover.free))
        )
        res_m = direct_sum_complexes(res_l1, extra)
        ell = res_m.top
        res_omega = truncate(trivial_resolution(C2, max(1, ell) + 1).complex)
        assert res_omega.aug.target == rot.ses.incl.source
        out = splice(res_omega, res_m, rot.ses.incl, rot.ses.proj)
        assert is_resolution(out)
        assert out.aug.target == f
        assert free_up_to(out, 1)


    def test_inputs_are_checked(self):
        f = free_module(C2, 1)
        res = tag_complex(single_term_complex(f, identity_map(f)))
        unaugmented = single_term_complex(f)
        k = trivial_module(C2, 1)
        res_k = trivial_resolution(C2, 1).complex
        one, zero = identity_map(f), zero_map(f, k)
        for res_l, res_m, quot, message in (
            (unaugmented, res, zero, "both inputs must be augmented"),
            (res, unaugmented, zero, "both inputs must be augmented"),
            (res_k, res, zero, "resolutions do not resolve the ends of f"),
            (
                res,
                res,
                ModuleMap(f, k, Mat(2, [[1, 1]])),
                "f and quot are not short exact: projection composed with inclusion is nonzero",
            ),
        ):
            with pytest.raises(ValueError) as info:
                splice(res_l, res_m, one, quot)
            assert str(info.value) == message


class TestGoodResolution:
    def test_free_module_resolves_itself(self):
        f = free_module(V4, 1)
        res = good_resolution(f, 3)
        assert res.complex.top == 0
        assert res.complex.terms[0] == f
        assert res.report.ok
        assert free_up_to(res.complex, 3)

    def test_zero_module(self):
        res = good_resolution(trivial_module(C2, 0), 1)
        assert res.complex.dims() == (0,)
        assert res.report.ok

    def test_trivial_module_is_the_tensor_resolution(self):
        res = good_resolution(trivial_module(V4, 1), 1)
        want = trivial_resolution(V4, 1).complex
        assert res.complex.dims() == want.dims()
        assert res.report.ok

    def test_omega_k_over_c3(self):
        w = omega(trivial_module(C3, 1))[0]
        res = good_resolution(w, 1)
        assert res.report.ok
        assert euler_characteristic(res.complex) == w.dim

    def test_small_random_modules(self):
        for p, r, dim, seed, m in [
            (2, 1, 2, 3, 1),
            (2, 2, 3, 5, 0),
            (3, 1, 3, 2, 1),
        ]:
            mod = random_module(p, r, dim, seed)
            res = good_resolution(mod, m)
            assert res.report.ok
            assert euler_characteristic(res.complex) == mod.dim
            assert free_up_to(res.complex, m)

    def test_output_bytes_are_pinned(self):
        # sha256 of the canonical output file; a construction change shows
        # in the dense pins, which are the files' digests from before terms
        # were written as index vectors, and a format change in the others
        golden = {
            (2, 1, 3, 1, 603): (
                "75b9d0a0ba986b02a6df52347c69698a36a78952e185aa9ffe381ec6bdd22ea4",
                "532d1dcf9d098317961f04867b8aa59c6e839033a42c93f152681d02e42436c7",
            ),
            (3, 2, 2, 1, 632): (
                "7156f266b33ec5cdb6ccad6ed3c2bfcdd83c403c258cbf557503d8cefaf6bc29",
                "70e47dc2e489a94c9e22f804a6bf7b8463ace7657fabc243898d78dde5b86822",
            ),
            (2, 3, 2, 0, 7): (
                "717ad7b1c5dd6bef2572ae77f759f5c06524a4ac667e166c4914e046bd33aa92",
                "fea9d2ebfbdf8ec6a16d146a57d823ea2a0049ac7fded6e335bb9bf4c12d6885",
            ),
        }
        for (p, r, dim, m, seed), (dense, vectors) in golden.items():
            res = good_resolution(random_module(p, r, dim, seed), m)
            obj = complex_to_obj(res.complex, m=res.m)
            for o, digest in ((ref_densify(obj), dense), (obj, vectors)):
                assert hashlib.sha256(canonical_dumps(o).encode()).hexdigest() == digest

    def test_syzygy_identity(self):
        mod = random_module(2, 2, 3, seed=5)
        m = 2
        res = good_resolution(mod, m)
        assert res.report.ok
        for j in range(1, m + 1):
            k_j = syzygy(res.complex, j)
            w_j = omega_iter(mod, j)
            assert k_j.dim - mod.group.order * free_rank(k_j) == w_j.dim

    @staticmethod
    def rule_length(mod, m):
        # r (even(m) + 2 (dim M - 1)) for M without free summands: even(m) the
        # smallest even integer >= m + 1, one 2r per composition step
        even = m + 1 + (m + 1) % 2
        return mod.group.rank * (even + 2 * (mod.dim - 1))

    def test_length_rule_on_the_end_to_end_corpus(self):
        checked = 0
        for p, r, dim, m, seed in END_TO_END_CORPUS:
            mod = random_module(p, r, dim, seed)
            if free_rank(mod):
                continue
            res = good_resolution(mod, m)
            assert res.complex.top == self.rule_length(mod, m), (p, r, dim, m, seed)
            checked += 1
        assert checked >= 10

    def test_term_dims_depend_only_on_dim_and_free_rank(self):
        # modules with different radical layers, same (p, r, dim, free rank)
        for p, r, dim, m in [(3, 1, 3, 2), (2, 2, 3, 1), (3, 2, 3, 1)]:
            seen = {}
            for seed in range(6):
                mod = random_module(p, r, dim, seed)
                seen.setdefault(free_rank(mod), set()).add(good_resolution(mod, m).complex.dims())
            assert all(len(dims) == 1 for dims in seen.values()), (p, r, dim, seen)

    def test_non_free_module_plus_free_summands(self):
        mod = random_module(2, 2, 3, seed=5)
        assert free_rank(mod) == 0
        mixed = block_sum(V4, (mod, free_module(V4, 2)))
        m = 2
        res = good_resolution(mixed, m)
        assert res.report.ok
        assert res.complex.aug.target == mixed
        assert res.complex.top == self.rule_length(mod, m)
        assert euler_characteristic(res.complex) == mixed.dim
        for j in range(1, m + 1):
            k_j = syzygy(res.complex, j)
            w_j = omega_iter(mixed, j)
            assert k_j.dim - V4.order * free_rank(k_j) == w_j.dim

    def test_failed_lift_retries_with_a_longer_resolution(self, monkeypatch):
        mod = random_module(3, 2, 3, seed=633)
        m = 1
        real = resolution.splice
        calls = []

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(resolution, "splice", counted)
        plain = good_resolution(mod, m)
        plain_calls = len(calls)
        assert plain_calls >= 1
        calls.clear()

        def fails_once(*args):
            calls.append(1)
            if len(calls) == 1:
                raise LiftFailed("forced failure")
            return real(*args)

        monkeypatch.setattr(resolution, "splice", fails_once)
        res = good_resolution(mod, m)
        assert res.report.ok
        assert res.complex.aug.target == mod
        assert res.complex.top == plain.complex.top + 2 * mod.group.rank
        assert len(calls) == plain_calls + 1

    def test_fallback_stops_at_the_projective_bound(self, monkeypatch):
        calls = []

        def always_fails(*args):
            calls.append(1)
            raise LiftFailed("forced failure")

        monkeypatch.setattr(resolution, "splice", always_fails)
        with pytest.raises(LiftFailed):
            good_resolution(random_module(3, 2, 3, seed=633), 1)
        # the first step has ell = 4: periodic lengths 4 (m' = ell / r) and
        # 6 (m' = max(m, ell) + 1, where a lift always exists), then no more
        assert len(calls) == 2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_built_terms_keep_no_dense_generator(self, seed):
        """Every term is a permutation module kept as index vectors: neither
        the construction nor the certificate leaves a generator matrix on it."""
        res = good_resolution(random_module(2, 2, 3, seed), 1)
        c = res.complex
        assert certify_resolution(c, m=1, require_tags=True).ok
        assert c.top > 0
        for j, term in enumerate(c.terms):
            assert term.perms is not None, j
            assert cached_matrices(term) == [], j


class TestTrim:
    def build_sum_resolution(self, mod, t, m=1):
        group = mod.group
        base = good_resolution(mod, m).complex
        f = free_module(group, t)
        extra = tag_complex(single_term_complex(f, identity_map(f)))
        from permres.complexes import direct_sum_complexes

        res = direct_sum_complexes(base, extra)
        ds = direct_sum(mod, f)
        proj_m = ModuleMap(res.aug.target, mod, ds.proj1.matrix)
        proj_q = ModuleMap(res.aug.target, f, ds.proj2.matrix)
        return res, proj_m, proj_q

    def test_zero_q_is_identity(self):
        mod = trivial_module(C2, 1)
        res, proj_m, proj_q = self.build_sum_resolution(mod, 0)
        assert trim(res, proj_m, proj_q) is res

    def test_full_trim_to_zero(self):
        f = free_module(C2, 1)
        res = tag_complex(single_term_complex(f, identity_map(f)))
        z = trivial_module(C2, 0)
        proj_m = zero_map(f, z)
        proj_q = identity_map(f)
        out = trim(res, proj_m, proj_q)
        assert out.dims() == (0,)
        assert out.aug.target.dim == 0

    def test_k_plus_kc2(self):
        k = trivial_module(C2, 1)
        res, proj_m, proj_q = self.build_sum_resolution(k, 1, m=1)
        before = len([p for p in res.tags[0].parts if p.is_trivial()])
        out = trim(res, proj_m, proj_q)
        assert is_resolution(out)
        assert out.aug.target == k
        after = len([p for p in out.tags[0].parts if p.is_trivial()])
        assert before - after == 1
        assert free_up_to(out, 1)

    @pytest.mark.parametrize(
        "case, reason",
        [
            ("unaugmented", "input complex is not augmented"),
            ("untagged", "input complex must be tagged"),
            ("other source", "proj_m does not start at the resolved module"),
            ("proj_q not equivariant", "proj_q: map does not intertwine generator 1"),
            ("Q of odd dim", "Q dimension is not a multiple of the group order"),
            ("Q not free", "Q is not free"),
            ("no splitting", "the two projections do not split the target"),
            ("no free part", "no set of free parts maps isomorphically onto Q"),
        ],
    )
    def test_refusals_name_their_reason(self, case, reason):
        z, k, k2 = (trivial_module(C2, n) for n in (0, 1, 2))
        f = free_module(C2, 1)
        res, proj_m, proj_q = self.build_sum_resolution(k, 1)
        target = res.aug.target
        if case == "unaugmented":
            res = single_term_complex(f)
        elif case == "untagged":
            res = single_term_complex(f, identity_map(f))
        elif case == "other source":
            proj_m = identity_map(k)
        elif case == "proj_q not equivariant":
            proj_q = ModuleMap(target, f, Mat(2, [[0, 1, 0], [0, 1, 0]]))
        elif case == "Q of odd dim":
            proj_m, proj_q = zero_map(target, z), proj_m
        elif case == "Q not free":
            res = good_resolution(k2, 1).complex
            proj_m, proj_q = zero_map(k2, z), identity_map(k2)
        elif case == "no splitting":
            proj_m = zero_map(target, z)
        elif case == "no free part":
            # k embedded onto the norm of kC_2: Q = kC_2 covers no free part of degree 0
            res = tag_complex(single_term_complex(k, ModuleMap(k, f, Mat(2, [[1], [1]]))))
            proj_m, proj_q = zero_map(f, z), identity_map(f)
        with pytest.raises(SelectionFailed) as info:
            trim(res, proj_m, proj_q)
        assert str(info.value) == reason

    def test_trim_rejects_non_free_q(self):
        k = trivial_module(C2, 1)
        res = tag_complex(
            single_term_complex(free_module(C2, 1), ModuleMap(free_module(C2, 1), k, Mat(2, [[1, 1]])))
        )
        # pretend the target splits off a "free" part that is not free
        with pytest.raises(SelectionFailed):
            trim(res, zero_map(k, trivial_module(C2, 0)), identity_map(k))
