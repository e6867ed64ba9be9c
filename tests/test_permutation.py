import itertools
from functools import cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from helpers import ref_free_rank, ref_permutation_vector, ref_recognize
from test_acceptance import END_TO_END_CORPUS
from test_io_cli import VERIFY_INPUTS

from permres import modules
from permres.complexes import ChainMap, cone
from permres.errors import GroupMismatch, InternalError, NotPermutationBasis
from permres.groups import Group, Subgroup, all_subgroups
from permres.linalg import Mat, permutation_matrix, permutation_vector
from permres.modules import (
    Module,
    free_module,
    free_rank,
    identity_map,
    permutation_submodule,
    tensor,
    trivial_module,
)
from permres.permutation import (
    PermutationDescriptor,
    element_images,
    mackey_tensor,
    realize,
    recognize,
    recognize_all,
    tensor_descriptor,
)
from permres.random_modules import random_module
from permres.resolution import good_resolution, periodic_complex, trivial_resolution

V4 = Group(2, 2)
C2_3 = Group(2, 3)
C3_2 = Group(3, 2)


def desc(group, *parts):
    return PermutationDescriptor(group, tuple(parts))


class TestSubgroups:
    def test_counts(self):
        # subspace counts: Gaussian binomials
        assert len(all_subgroups(V4)) == 1 + 3 + 1
        assert len(all_subgroups(C2_3)) == 1 + 7 + 7 + 1
        assert len(all_subgroups(C3_2)) == 1 + 4 + 1

    def test_sum_and_intersection(self):
        h = Subgroup(V4, [[0, 1]])
        k = Subgroup(V4, [[1, 0]])
        assert (h + k).is_full()
        assert h.intersect(k).is_trivial()
        assert h.intersect(h) == h

    def test_coset_reps(self):
        h = Subgroup(V4, [[0, 1]])  # span{e_2}: free coordinate is 0
        assert h.coset_reps() == ((0, 0), (1, 0))
        assert h.reduce((1, 1)) == (1, 0)

    def test_batch_reduce_matches_each_vector(self):
        for group in (V4, C3_2, C2_3):
            p = group.p
            elements = group.elements()
            for sub in all_subgroups(group):
                rows = sub.basis.a.tolist()
                members = {
                    tuple(sum(c * row[k] for c, row in zip(coeffs, rows)) % p for k in range(group.rank))
                    for coeffs in itertools.product(range(p), repeat=len(rows))
                }
                batch = sub.reduce(np.array(elements, dtype=np.int64))
                assert batch.shape == (group.order, group.rank)
                for v, row in zip(elements, batch.tolist()):
                    assert sub.reduce(v) == tuple(row)
                    # brute force: the one element of v + H that is zero on every pivot
                    coset = {tuple((a + b) % p for a, b in zip(v, h)) for h in members}
                    assert [w for w in coset if not any(w[c] for c in sub.pivots())] == [tuple(row)]
                    assert sub.contains(v) == (v in members)

    def test_step_table(self):
        for group in (Group(2, 1), V4, C2_3, C3_2, Group(5, 2)):
            elements = group.elements()
            assert len(group.steps()) == group.order - 1
            for idx, (i, prev) in enumerate(group.steps(), start=1):
                x = elements[idx]
                assert not any(x[:i]) and x[i] != 0
                moved = tuple((v + (c == i)) % group.p for c, v in enumerate(elements[prev]))
                assert moved == x

    def test_translations(self):
        for group in (V4, C2_3, C3_2):
            for sub in all_subgroups(group):
                reps = sub.coset_reps()
                moves = sub.translations()
                assert len(moves) == group.rank
                for i, sigma in enumerate(moves):
                    assert sorted(sigma.tolist()) == list(range(len(reps)))
                    e_i = group.generator(i + 1)
                    for x, rep in enumerate(reps):
                        diff = [a - b - c for a, b, c in zip(reps[sigma[x]], rep, e_i)]
                        assert sub.contains(diff)

    def test_caps_and_group_mismatch(self):
        from permres.errors import CapExceeded, GroupMismatch
        from permres.groups import Group

        with pytest.raises(CapExceeded):
            Group(2, 20)  # order 2^20 blows the default cap
        with pytest.raises(GroupMismatch):
            mackey_tensor(Subgroup.trivial(V4), Subgroup.trivial(C3_2))


class TestRealize:
    def test_trivial_part_is_free(self):
        d = desc(V4, Subgroup.trivial(V4))
        tagged = realize(d)
        assert tagged.module == free_module(V4, 1)

    def test_full_part_is_trivial_module(self):
        d = desc(V4, Subgroup.full(V4))
        assert realize(d).module == trivial_module(V4, 1)

    def test_coordinate_hyperplane(self):
        h1 = Subgroup.coordinate_hyperplane(V4, 1)  # span{e_2}
        tagged = realize(desc(V4, h1))
        m = tagged.module
        assert m.dim == 2
        assert m.action[0] == Mat(2, [[0, 1], [1, 0]])  # e_1 swaps the two cosets
        assert m.action[1].is_identity()  # e_2 fixes them

    def test_dim_formula(self):
        for group in (V4, C3_2):
            subs = all_subgroups(group)
            d = desc(group, *subs)
            assert realize(d).module.dim == d.dim
            assert d.dim == sum(s.index for s in subs)


class TestRecognize:
    def test_round_trip(self):
        subs = all_subgroups(V4)
        d = desc(V4, subs[0], subs[1], subs[1], subs[-1])
        tagged = realize(d)
        back = recognize(tagged.module)
        assert back.descriptor == d
        assert np.array_equal(back.part_of, tagged.part_of)
        assert np.array_equal(back.element, tagged.element)
        assert not any(t.part_of.flags.writeable or t.element.flags.writeable for t in (back, tagged))
        # re-realizing the recognized descriptor reproduces the matrices
        assert realize(back.descriptor).module == tagged.module

    def test_trivial_module_tags_as_full_parts(self):
        tagged = recognize(trivial_module(V4, 2))
        assert tagged.descriptor == desc(V4, Subgroup.full(V4), Subgroup.full(V4))

    def assert_positions_are_orbits(self, tag):
        group = tag.module.group
        perms = [permutation_vector(a) for a in tag.module.action]
        elements = group.elements()
        positions = []
        for idx in range(len(tag.parts)):
            pos = np.flatnonzero(tag.part_of == idx)
            # a part's positions in coset-representative order
            positions.append(pos[np.argsort(tag.element[pos])].tolist())
        assert sorted(k for pos in positions for k in pos) == list(range(tag.module.dim))
        for part, pos in zip(tag.parts, positions):
            reps = part.coset_reps()
            assert tag.element[pos].tolist() == [elements.index(r) for r in reps]
            images = element_images(group, perms, pos[0])
            for v, image in zip(elements, images):
                assert image == pos[reps.index(part.reduce(v))]
            if part.is_trivial():
                assert list(images) == pos

    def test_element_images_of_many_starts(self):
        lines = realize(desc(C3_2, *all_subgroups(C3_2)[1:3])).module
        for mod in (
            realize(desc(V4, *all_subgroups(V4))).module,
            tensor(lines, lines),
            free_module(C2_3, 1),
        ):
            group = mod.group
            perms = [permutation_vector(a) for a in mod.action]
            starts = np.arange(mod.dim)
            batched = element_images(group, perms, starts)
            assert batched.shape == (group.order, mod.dim)
            for k in starts:
                single = element_images(group, perms, int(k))
                assert single.shape == (group.order,)
                assert np.array_equal(batched[:, k], single)
            picked = starts[::-2]
            assert np.array_equal(element_images(group, perms, picked), batched[:, picked])

    def test_positions_of_recognized_tags(self):
        subs = all_subgroups(V4)
        lines = realize(desc(C3_2, *all_subgroups(C3_2)[1:3])).module
        modules = [
            realize(desc(V4, subs[0], subs[1], subs[1], subs[-1])).module,
            tensor(lines, lines),
            free_module(C2_3, 2),
            trivial_module(V4, 2),
        ]
        for mod in modules:
            self.assert_positions_are_orbits(recognize(mod))

    def test_positions_of_composed_tags(self):
        # a cone's terms are recognized where a lift solves from them
        for group, i in ((V4, 2), (C3_2, 1)):
            c = periodic_complex(group, i, 2)
            cn = cone(ChainMap(c, c, tuple(identity_map(t) for t in c.terms)))
            for tag, term in zip(cn.tags, cn.terms):
                recognized = recognize(term)
                assert tag == recognized.descriptor
                self.assert_positions_are_orbits(recognized)

    def test_rejects_non_permutation(self):
        m = Module(Group(2, 1), (Mat(2, [[1, 1], [0, 1]]),))
        with pytest.raises(NotPermutationBasis) as info:
            recognize(m)
        assert info.value.generator_index == 0
        assert info.value.row_index == 0


def assert_matches_oracles(mod):
    """recognize and free_rank agree with the per-orbit and dense-norm oracles."""
    p = mod.group.p
    action = [a.a.tolist() for a in mod.action]
    assert free_rank(mod) == ref_free_rank(action, p)
    if any(ref_permutation_vector(a) is None for a in action):
        with pytest.raises(NotPermutationBasis):
            recognize(mod)
        return
    assert_tag_matches_oracle(recognize(mod))


def assert_tag_matches_oracle(tag):
    """The tag's parts and basis arrays are ``ref_recognize``'s, read one orbit at a time."""
    mod = tag.module
    parts, basis_map = ref_recognize([a.a.tolist() for a in mod.action], mod.group.p)
    assert [part.basis.a.tolist() for part in tag.parts] == parts
    # the oracle's (part index, coset rep) pairs as the tag's two arrays
    elements = mod.group.elements()
    assert tag.part_of.tolist() == [part for part, _ in basis_map]
    assert tag.element.tolist() == [elements.index(rep) for _, rep in basis_map]


def shuffled(mod, seed):
    """The same module on its basis permuted by a seeded shuffle."""
    p = mod.group.p
    q = permutation_matrix(p, np.random.default_rng(seed).permutation(mod.dim))
    return Module(mod.group, tuple(q @ a @ q.T for a in mod.action))


class TestAgainstOracles:
    GROUPS = (Group(2, 1), V4, C2_3, C3_2, Group(5, 2))

    @pytest.mark.parametrize("group", GROUPS, ids=lambda g: f"{g.p}^{g.rank}")
    def test_shuffled_realizations(self, group):
        subs = all_subgroups(group)
        d = desc(group, *subs, subs[0], subs[1], subs[1], subs[-1])
        for seed in range(3):
            assert_matches_oracles(shuffled(realize(d).module, seed))

    def test_tensor_modules(self):
        for group in (V4, C3_2):
            subs = all_subgroups(group)
            d1 = realize(desc(group, subs[1], subs[-1])).module
            d2 = realize(desc(group, subs[2], subs[0], subs[1])).module
            assert_matches_oracles(tensor(d1, d2))
            assert_matches_oracles(tensor(d2, shuffled(d2, 7)))

    def test_acceptance_6_terms(self):
        for p, r, dim, m, seed in END_TO_END_CORPUS:
            for term in good_resolution(random_module(p, r, dim, seed), m).complex.terms:
                assert_matches_oracles(term)

    def test_verify_workload_terms(self):
        for p, r, m in VERIFY_INPUTS:
            for term in trivial_resolution(Group(p, r), m).complex.terms:
                assert_matches_oracles(term)

    def test_random_modules(self):
        for p, r, dim, seed in [(2, 1, 3, 1), (2, 2, 4, 2), (3, 2, 4, 3), (2, 3, 3, 4), (5, 1, 3, 5)]:
            assert_matches_oracles(random_module(p, r, dim, seed))

    @pytest.mark.parametrize(
        "group, cycles",
        [
            (V4, ([1, 0, 2], [0, 2, 1])),  # two transpositions that do not commute
            (Group(2, 1), ([1, 2, 0],)),  # a 3-cycle, of order prime to 2
        ],
        ids=["noncommuting", "3-cycle"],
    )
    def test_broken_relations(self, monkeypatch, group, cycles):
        mod = Module(group, tuple(permutation_matrix(group.p, c) for c in cycles))
        action = [a.a.tolist() for a in mod.action]

        def no_walk(*args):
            raise AssertionError("free_rank walked orbits of a non-action")

        monkeypatch.setattr(modules, "element_images", no_walk)
        assert free_rank(mod) == ref_free_rank(action, group.p)
        with pytest.raises(InternalError):
            recognize(mod)

    def test_one_subgroup_per_distinct_part(self, monkeypatch):
        # the largest term above the free degrees: 9 orbits, 3 stabilizers
        top = max(trivial_resolution(C3_2, 6).complex.terms[7:], key=lambda t: t.dim)
        calls = []
        init = Subgroup.__init__

        def counted(self, *args):
            calls.append(args)
            init(self, *args)

        monkeypatch.setattr(Subgroup, "__init__", counted)
        tag = recognize(top)
        assert len(calls) == len(set(tag.parts)) < len(tag.parts)


@cache
def subgroups_up_to(group, index):
    return tuple(h for h in all_subgroups(group) if h.index <= index)


@st.composite
def member(draw, group):
    """A module for a batch: realized, realized on a shuffled dense basis, a
    tensor of realizations (whose Mackey parts interleave), a
    ``permutation_submodule`` on some orbits of one, or zero-dimensional."""
    kind = draw(st.sampled_from(["realized", "shuffled", "tensor", "restricted", "zero"]))
    if kind == "zero":
        return trivial_module(group, 0)

    def realized(index, size):
        pool = st.sampled_from(subgroups_up_to(group, index))
        parts = draw(st.lists(pool, min_size=1, max_size=size))
        return realize(PermutationDescriptor(group, tuple(parts))).module

    if kind == "realized":
        return realized(25, 3)
    if kind == "shuffled":
        return shuffled(realized(25, 3), draw(st.integers(0, 9)))
    mod = tensor(realized(5, 2), realized(5, 2))
    if kind == "tensor":
        return mod
    part_of = recognize(mod).part_of
    keep = draw(st.lists(st.integers(0, part_of.max()), min_size=1, unique=True))
    return permutation_submodule(mod, np.flatnonzero(np.isin(part_of, keep)))


@st.composite
def batches(draw):
    group = Group(draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 3)))
    return draw(st.lists(member(group), min_size=1, max_size=6))


def non_permutation(group, i):
    """Generator i a unipotent Jordan block, the others the identity: not a permutation module."""
    p = group.p
    action = [Mat.identity(p, 2)] * group.rank
    action[i] = Mat(p, [[1, 1], [0, 1]])
    return Module(group, tuple(action))


def wrong_order(group):
    """Generator 1 a (p + 1)-cycle, so its order does not divide p."""
    return Module.from_perms(group, [np.roll(np.arange(group.p + 1), 1)] * group.rank)


def non_commuting(group):
    """Generators 1 and 2 p-cycles on overlapping points: each of order p, not commuting."""
    sigma = np.arange(group.p + 1)
    tau = sigma.copy()
    sigma[: group.p] = np.roll(sigma[: group.p], 1)
    tau[1:] = np.roll(tau[1:], 1)
    return Module.from_perms(group, [sigma, tau] + [np.arange(group.p + 1)] * (group.rank - 2))


class TestRecognizeAll:
    """One walk over a batch equals ``recognize`` of each module, and the oracle."""

    # drawing a batch builds its modules
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(batches())
    def test_batch_equals_each_module_alone(self, mods):
        tags = recognize_all(mods)
        assert len(tags) == len(mods)
        for mod, tag in zip(mods, tags):
            alone = recognize(mod)
            assert tag.module is mod
            assert tag.parts == alone.parts
            for got, want in ((tag.part_of, alone.part_of), (tag.element, alone.element)):
                assert got.dtype == want.dtype and np.array_equal(got, want)
                assert not got.flags.writeable
            assert_tag_matches_oracle(tag)

    def test_one_subgroup_per_distinct_stabilizer_of_the_batch(self, monkeypatch):
        terms = trivial_resolution(C3_2, 6).complex.terms
        calls = []
        init = Subgroup.__init__

        def counted(self, *args):
            calls.append(args)
            init(self, *args)

        monkeypatch.setattr(Subgroup, "__init__", counted)
        tags = recognize_all(terms)
        assert len(calls) == len({h for tag in tags for h in tag.parts})

    def test_empty_batch(self):
        assert recognize_all([]) == ()

    def test_groups_must_agree(self):
        with pytest.raises(GroupMismatch):
            recognize_all([trivial_module(V4, 1), trivial_module(C3_2, 1)])

    BAD = [
        (
            lambda g: non_permutation(g, 0),
            NotPermutationBasis,
            "generator 1 is not a permutation matrix (first offending row 0)",
        ),
        (
            lambda g: non_permutation(g, g.rank - 1),
            NotPermutationBasis,
            "generator {rank} is not a permutation matrix (first offending row 0)",
        ),
        (
            wrong_order,
            InternalError,
            "the generators do not act as E: generator 1: order does not divide p",
        ),
        (
            non_commuting,
            InternalError,
            "the generators do not act as E: commutativity i=1 j=2",
        ),
    ]

    @pytest.mark.parametrize("group", [V4, C3_2, Group(5, 2)], ids=lambda g: f"{g.p}^{g.rank}")
    @pytest.mark.parametrize("at", [0, 1, 3])
    @pytest.mark.parametrize("bad", range(len(BAD)))
    def test_a_bad_module_raises_its_own_error(self, group, at, bad):
        make, kind, text = self.BAD[bad]
        good = [
            realize(desc(group, *all_subgroups(group)[:2])).module,
            trivial_module(group, 0),
            free_module(group, 1),
        ]
        mods = good[:at] + [make(group)] + good[at:]
        # and a later bad module of the other kind, which must not be the one named
        make_later = self.BAD[(bad + 2) % len(self.BAD)][0]
        for batch in (mods, mods + [make_later(group)]):
            with pytest.raises(kind) as info:
                recognize_all(batch)
            assert str(info.value) == text.format(rank=group.rank)
        with pytest.raises(kind) as alone:
            recognize(make(group))
        assert str(alone.value) == str(info.value)


class TestMackey:
    def test_full_times_full(self):
        e = Subgroup.full(V4)
        assert mackey_tensor(e, e) == desc(V4, e)

    def test_transverse_hyperplanes_give_free(self):
        h = Subgroup(V4, [[0, 1]])
        k = Subgroup(V4, [[1, 0]])
        assert mackey_tensor(h, k) == desc(V4, Subgroup.trivial(V4))

    def test_repeated_subgroup_gives_p_copies(self):
        h = Subgroup(V4, [[0, 1]])
        got = mackey_tensor(h, h)
        assert got == desc(V4, h, h)
        # cross-check by realization: dims p*p and recognition matches
        t = tensor(realize(desc(V4, h)).module, realize(desc(V4, h)).module)
        assert recognize(t).descriptor == got

    def test_iterated_hyperplanes_c2_cubed(self):
        hs = [Subgroup.coordinate_hyperplane(C2_3, i) for i in (1, 2, 3)]
        d = desc(C2_3, hs[0])
        for h in hs[1:]:
            d = tensor_descriptor(d, desc(C2_3, h))
        assert d == desc(C2_3, Subgroup.trivial(C2_3))

    def test_descriptor_tensor_unit_and_dims(self):
        subs = all_subgroups(C3_2)
        d1 = desc(C3_2, subs[1], subs[2])
        unit = desc(C3_2, Subgroup.full(C3_2))
        assert tensor_descriptor(d1, unit) == d1
        d2 = desc(C3_2, subs[0], subs[3])
        assert tensor_descriptor(d1, d2).dim == d1.dim * d2.dim

    def test_multi_part_tensor_matches_recognition(self):
        subs = all_subgroups(C3_2)
        d1 = desc(C3_2, subs[1], subs[5])
        d2 = desc(C3_2, subs[2], subs[0])
        product = tensor(realize(d1).module, realize(d2).module)
        assert recognize(product).descriptor == tensor_descriptor(d1, d2)

    def test_mackey_matches_recognition_everywhere(self):
        for group in (V4, C3_2):
            subs = all_subgroups(group)
            for h, k in itertools.product(subs, repeat=2):
                predicted = mackey_tensor(h, k)
                product = tensor(
                    realize(desc(group, h)).module, realize(desc(group, k)).module
                )
                assert recognize(product).descriptor == predicted
                assert predicted.dim == h.index * k.index


class TestDescriptorHelpers:
    def test_dims(self):
        assert desc(V4, Subgroup.full(V4)).dim == 1
        assert desc(V4, Subgroup.trivial(V4)).dim == 4

    def test_equality_order_free(self):
        subs = all_subgroups(V4)
        a = desc(V4, subs[0], subs[2])
        b = desc(V4, subs[2], subs[0])
        assert a == b

    def test_is_free(self):
        t = Subgroup.trivial(V4)
        assert desc(V4, t, t).is_free()
        assert not desc(V4, t, Subgroup.full(V4)).is_free()
