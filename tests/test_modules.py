import dataclasses
import itertools
from functools import cache

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from permres import config
from permres.complexes import certify_resolution, single_term_complex
from permres.errors import CapExceeded, NotPermutationBasis
from permres.groups import Group, Subgroup, all_subgroups
from permres.linalg import Mat, permutation_matrix, permutation_vector, rank
from permres.modules import (
    Module,
    ModuleMap,
    block_sum,
    check_module_map,
    check_ses,
    composition_series,
    coset_module,
    direct_sum,
    dual,
    fixed_points,
    free_module,
    free_rank,
    hom_space,
    identity_map,
    iso_probe,
    kernel,
    norm_matrix,
    orbit_columns,
    omega,
    omega_iter,
    permutation_submodule,
    projective_cover,
    quotient,
    radical,
    radical_series,
    ses_from_flag,
    strip_free,
    tensor,
    trivial_module,
    validate_module,
    zero_map,
)
from permres.permutation import PermutationDescriptor, realize
from permres.random_modules import random_module
from permres.resolution import good_resolution, trivial_resolution

from helpers import (
    ref_action,
    ref_block_sum,
    ref_check_module_map,
    ref_coset_module,
    ref_fixed_points,
    ref_mat_pow,
    ref_matmul,
    ref_non_permutation,
    ref_permutation_vector,
    ref_rank,
    ref_tensor,
    ref_validate_module,
)

C2 = Group(2, 1)
C3 = Group(3, 1)
V4 = Group(2, 2)  # (C_2)^2
C3_2 = Group(3, 2)


def random_corpus():
    return [
        random_module(2, 1, 3, seed=5),
        random_module(2, 2, 4, seed=9),
        random_module(3, 1, 4, seed=3),
        random_module(3, 2, 5, seed=1),
    ]


class TestConstructors:
    def test_trivial(self):
        k = trivial_module(C2, 1)
        assert k.dim == 1 and k.action[0].is_identity()
        assert trivial_module(C2, 0).dim == 0
        k3 = trivial_module(C3, 3)
        assert radical(k3)[0].dim == 0

    def test_free_c2_is_the_swap(self):
        f = free_module(C2, 1)
        assert f.action[0] == Mat(2, [[0, 1], [1, 0]])
        assert free_module(C3, 0).dim == 0

    def test_free_v4_radical_dim_3(self):
        f = free_module(V4, 1)
        assert f.dim == 4
        # brute-force oracle: rank of [A_1 - I | A_2 - I]
        eye = np.eye(4, dtype=np.int64)
        stacked = np.hstack([(f.action[0].a - eye) % 2, (f.action[1].a - eye) % 2])
        assert ref_rank(stacked.tolist(), 2) == 3
        assert radical(f)[0].dim == 3

    @pytest.mark.parametrize("group", [V4, C3_2, Group(2, 3)], ids=str)
    def test_coset_module_is_the_realized_part(self, group):
        eye = np.eye(group.rank, dtype=np.int64)
        for h in all_subgroups(group):
            mod = coset_module(h)
            assert mod == realize(PermutationDescriptor(group, (h,))).module
            # oracle: e_i sends the coset of reps[x] to the coset of reps[y]
            reps = np.array(h.coset_reps(), dtype=np.int64)
            for a, e_i in zip(mod.action, eye):
                moved = [[h.contains((x + e_i - y) % group.p) for x in reps] for y in reps]
                assert a.a.tolist() == np.array(moved, dtype=np.int64).tolist()

    def test_each_coset_module_is_built_once_and_capped_on_every_call(self):
        h = Subgroup.trivial(V4)
        assert coset_module(h) is coset_module(Subgroup(V4, np.zeros((0, 2), dtype=np.int64)))
        assert not coset_module(h).perms.flags.writeable
        # kE (dim 4) is in the memo now; a cap below its dim still refuses it
        with config.limits(dim_cap=3), pytest.raises(CapExceeded, match="dimension 4 exceeds cap 3"):
            coset_module(h)

    @pytest.mark.parametrize("group", [C2, V4, C3_2], ids=str)
    @pytest.mark.parametrize("t", [0, 1, 3])
    def test_free_module_is_the_realized_free_descriptor(self, group, t):
        trivial = (Subgroup.trivial(group),) * t
        assert free_module(group, t) == realize(PermutationDescriptor(group, trivial)).module

    def test_free_module_of_rank_0_under_a_cap_below_the_order(self):
        with config.limits(dim_cap=V4.order - 1):
            assert free_module(V4, 0).dim == 0

    def test_equal_modules_compare_and_hash_equal(self):
        a, b = free_module(V4, 2), free_module(V4, 2)
        assert a is not b and a.perms is not b.perms
        assert a == b and hash(a) == hash(b)
        # made from its matrices, a permutation module takes the same one form
        c = Module(V4, a.action)
        assert c.perms is not None and not cached_matrices(c)
        assert a == c and c == a and hash(a) == hash(c)
        assert a != free_module(V4, 1) and a != trivial_module(V4, 8)
        # modules that keep their matrices compare and hash them
        u, v = (Module(C2, (Mat(2, [[1, 1], [0, 1]]),)) for _ in range(2))
        assert u.perms is None and u == v and hash(u) == hash(v)
        assert u != trivial_module(C2, 2) and u != free_module(C2, 1)

    def test_perms_are_derived_and_read_only(self):
        # one generator is no permutation: the module keeps its matrices
        mixed = Module(V4, (permutation_matrix(2, [1, 0]), Mat(2, [[1, 1], [0, 1]])))
        assert mixed.perms is None and len(cached_matrices(mixed)) == 2
        m = Module(V4, (permutation_matrix(2, [1, 0]), Mat.identity(2, 2)))
        assert m.perms.tolist() == [[1, 0], [0, 1]] and not cached_matrices(m)
        assert m.perms is m.perms
        with pytest.raises(ValueError):
            m.perms[0][0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.perms = None
        with pytest.raises(TypeError):
            Module(V4, m.action, perms=m.perms)

    def test_validate(self):
        assert validate_module(free_module(V4, 2)) is None
        # order 2 despite not being a permutation matrix
        m = Module(C2, (Mat(2, [[1, 1], [0, 1]]),))
        assert ref_mat_pow([[1, 1], [0, 1]], 2, 2) == [[1, 0], [0, 1]]
        assert validate_module(m) is None
        bad = Module(
            V4,
            (Mat(2, [[1, 1], [0, 1]]), Mat(2, [[1, 0], [1, 1]])),
        )
        assert validate_module(bad) == "commutativity i=1 j=2"
        order4 = Module(C3, (Mat(3, [[0, 2], [1, 0]]),))
        assert validate_module(order4) == "generator 1: order does not divide p"


def _checked(mod):
    """validate_module(mod), asserted equal to the dense reference."""
    got = validate_module(mod)
    assert got == ref_validate_module(ref_action(mod), mod.group.p)
    return got


def _checked_map(f):
    """check_module_map(f), asserted equal to the dense reference."""
    got = check_module_map(f)
    expected = ref_check_module_map(
        f.matrix.a.tolist(),
        ref_action(f.source),
        ref_action(f.target),
        f.source.group.p,
    )
    assert got == expected
    return got


def _with_generator(mod, i, a):
    return Module(mod.group, mod.action[:i] + (a,) + mod.action[i + 1 :])


def _realized(group):
    return realize(PermutationDescriptor(group, all_subgroups(group))).module


class TestPermutationCertificate:
    """The certificate on permutation vectors agrees with dense products."""

    @pytest.mark.parametrize("group", [C2, C3, V4, C3_2], ids=str)
    def test_realized_modules_and_corruptions(self, group):
        mod = _realized(group)
        p, d = group.p, mod.dim
        assert all(permutation_vector(a) is not None for a in mod.action)
        assert _checked(mod) is None
        swap = permutation_matrix(p, [1, 0] + list(range(2, d)))
        # an elementary unitriangular matrix and its inverse
        u, u_inv = np.eye(d, dtype=np.int64), np.eye(d, dtype=np.int64)
        u[0, 1], u_inv[0, 1] = 1, p - 1
        u, u_inv = Mat(p, u), Mat(p, u_inv)
        for i in range(group.rank):
            # a transposition has order 2
            bad = _checked(_with_generator(mod, i, swap))
            if p == 3:
                assert bad == f"generator {i + 1}: order does not divide p"
            # conjugating a generator by a transposition keeps its order
            _checked(_with_generator(mod, i, swap @ mod.action[i] @ swap))
            # conjugating by u leaves the permutation basis
            mixed = _with_generator(mod, i, u @ mod.action[i] @ u_inv)
            assert permutation_vector(mixed.action[i]) is None
            _checked(mixed)
        if group.rank == 2:
            seen = set()
            for k in range(1, d):
                t = permutation_matrix(p, [k] + list(range(1, k)) + [0] + list(range(k + 1, d)))
                seen.add(_checked(_with_generator(mod, 1, t @ mod.action[1] @ t)))
            assert "commutativity i=1 j=2" in seen

    def test_non_commuting_three_cycles(self):
        mod = Module(C3_2, (permutation_matrix(3, [1, 2, 0, 3]), permutation_matrix(3, [0, 2, 3, 1])))
        assert _checked(mod) == "commutativity i=1 j=2"
        assert _checked(Module(C3_2, (mod.action[0], mod.action[0]))) is None

    def test_permutation_beside_a_unipotent_generator(self):
        unipotent = Mat(2, [[1, 1], [0, 1]])
        swap = permutation_matrix(2, [1, 0])
        assert _checked(Module(V4, (swap, unipotent))) == "commutativity i=1 j=2"
        assert _checked(Module(V4, (Mat.identity(2, 2), unipotent))) is None
        assert _checked(Module(V4, (unipotent, Mat.identity(2, 2)))) is None

    def test_large_prime_rank_one(self):
        p = 2**31 - 1  # the largest prime field supported
        with config.limits(order_cap=p):
            group = Group(p, 1)
            assert _checked(Module(group, (Mat.identity(p, 3),))) is None
            for sigma in ([1, 0, 2], [1, 2, 0]):
                mod = Module(group, (permutation_matrix(p, sigma),))
                assert _checked(mod) == "generator 1: order does not divide p"
            # dense: a unipotent Jordan block has order p, a diagonal one p - 1
            assert _checked(Module(group, (Mat(p, [[1, 1], [0, 1]]),))) is None
            diag = Module(group, (Mat(p, [[2, 0], [0, 1]]),))
            assert _checked(diag) == "generator 1: order does not divide p"

    @pytest.mark.parametrize("p, r, m", [(2, 2, 3), (3, 2, 2), (2, 1, 3), (3, 1, 2)])
    def test_maps_with_one_wrong_entry(self, p, r, m):
        c = trivial_resolution(Group(p, r), m).complex
        rng = np.random.default_rng(p * 100 + r * 10 + m)
        failures = 0
        for j in range(c.top + 1):
            f = c.boundary(j)
            assert _checked_map(f) is None
            a = f.matrix.a.copy()
            if not a.size:
                continue
            x, y = rng.integers(a.shape[0]), rng.integers(a.shape[1])
            a[x, y] = (a[x, y] + 1) % p
            bad = ModuleMap(f.source, f.target, Mat(p, a))
            failures += _checked_map(bad) is not None
        assert failures > 0

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([C2, C3, V4, C3_2]), st.data())
    def test_maps_between_permutation_modules(self, group, data):
        """Gathers at the nonzeros agree with the dense check, also when the
        only wrong value is the image of a zero entry."""
        parts = all_subgroups(group)
        pick = st.lists(st.sampled_from(parts), min_size=1, max_size=3)
        source = realize(PermutationDescriptor(group, tuple(data.draw(pick)))).module
        target = realize(PermutationDescriptor(group, tuple(data.draw(pick)))).module
        p = group.p
        a = np.zeros((target.dim, source.dim), dtype=np.int64)
        for h in hom_space(source, target):
            a += data.draw(st.integers(0, p - 1)) * h.a
        a %= p
        assert _checked_map(ModuleMap(source, target, Mat(p, a))) is None
        y = data.draw(st.integers(0, target.dim - 1))
        x = data.draw(st.integers(0, source.dim - 1))
        kind = data.draw(st.sampled_from(["zero", "add", "only"]))
        if kind == "zero":
            a[y, x] = 0  # a nonzero entry, if any, turns zero
        elif kind == "add":
            a[y, x] = (a[y, x] + data.draw(st.integers(1, p - 1))) % p
        else:
            a[:] = 0  # one nonzero whose image is a zero entry, unless fixed
            a[y, x] = data.draw(st.integers(1, p - 1))
        _checked_map(ModuleMap(source, target, Mat(p, a)))

    def test_maps_onto_a_non_permutation_target(self):
        res = good_resolution(random_module(3, 2, 3, seed=4), 1)
        aug = res.complex.aug
        assert permutation_vector(aug.target.action[0]) is None
        assert _checked_map(aug) is None
        a = aug.matrix.a.copy()
        a[0, 0] = (a[0, 0] + 1) % 3
        assert _checked_map(ModuleMap(aug.source, aug.target, Mat(3, a))) is not None


def cached_matrices(mod):
    """The matrices a module holds: every ``Mat`` or 2-d array that its
    attributes keep, looked for inside tuples, lists and dicts too, beside
    the rank x dim array ``perms`` of a permutation module."""
    found, todo = [], [value for key, value in vars(mod).items() if key != "perms"]
    while todo:
        x = todo.pop()
        if isinstance(x, (tuple, list)):
            todo.extend(x)
        elif isinstance(x, dict):
            todo.extend(x.values())
        elif isinstance(x, Mat) or (isinstance(x, np.ndarray) and x.ndim == 2):
            found.append(x)
    return found


def _summand(draw, group):
    """A drawn module with its dense oracle: a coset module built as vectors,
    its dense twin made from matrices (again kept as vectors), or a dense
    non-permutation module of powers of one unipotent Jordan block (order
    p, as its size is at most p)."""
    p, r = group.p, group.rank
    kind = draw(st.sampled_from(["vectors", "dense twin", "unipotent"]))
    if kind == "unipotent":
        n = draw(st.integers(1, min(p, 3)))
        jordan = [[1 if x in (y, y + 1) else 0 for x in range(n)] for y in range(n)]
        action = [ref_mat_pow(jordan, draw(st.integers(0, p - 1)), p) for _ in range(r)]
        return Module(group, tuple(Mat(p, a) for a in action)), action
    dim_h = draw(st.integers(0, r))
    row = st.lists(st.integers(0, p - 1), min_size=r, max_size=r)
    rows = draw(st.lists(row, min_size=dim_h, max_size=dim_h))
    h = Subgroup(group, np.array(rows, dtype=np.int64).reshape(len(rows), r))
    action = ref_coset_module(p, r, rows)
    mod = coset_module(h)
    if kind == "dense twin":
        mod = Module(group, tuple(Mat(p, a) for a in action))
    return mod, action


@st.composite
def summands(draw, max_dim):
    """(group, [(module, dense oracle), ...]) with at most ``max_dim`` dims in all."""
    p = draw(st.sampled_from([2, 3, 5]))
    r = draw(st.integers(1, 3))
    group = Group(p, r)
    out = []
    for _ in range(draw(st.integers(1, 3))):
        mod, action = _summand(draw, group)
        if out and sum(m.dim for m, _ in out) + mod.dim > max_dim:
            break
        out.append((mod, action))
    return group, out


def _assert_matches(mod, action):
    """mod has the oracle's dense generators, and keeps them exactly when one
    is no permutation matrix; else it keeps their vectors and no matrix."""
    assert ref_action(mod) == action
    vectors = [ref_permutation_vector(a) for a in action]
    if None in vectors:
        assert mod.perms is None and len(cached_matrices(mod)) == len(action)
    else:
        assert mod.perms.tolist() == vectors and not cached_matrices(mod)


class TestVectorStorage:
    """Permutation modules built as index vectors equal the dense constructions."""

    @settings(max_examples=60, deadline=None)
    @given(summands(max_dim=40))
    def test_coset_modules_and_block_sums_match_the_dense_oracle(self, drawn):
        group, parts = drawn
        for mod, action in parts:
            _assert_matches(mod, action)
        total = block_sum(group, [mod for mod, _ in parts])
        _assert_matches(total, ref_block_sum([action for _, action in parts]))

    @settings(max_examples=60, deadline=None)
    @given(summands(max_dim=12), st.data())
    def test_tensors_match_the_dense_oracle(self, drawn, data):
        group, parts = drawn
        (m, action_m), (n, action_n) = parts[0], data.draw(st.sampled_from(parts))
        assume(m.dim * n.dim <= 200)
        out = tensor(m, n)
        _assert_matches(out, ref_tensor(action_m, action_n, group.p))

    @pytest.mark.parametrize(
        "vectors",
        [
            [[0, 0, 1], [0, 1, 2]],  # a repeated entry
            [[0, 1, 3], [0, 1, 2]],  # an entry out of range
            [[0, 1, 2], [-1, 0, 1]],  # a negative entry
            [[0, 1, 2], [0, 1]],  # the wrong length
            [[0, 1, 2]],  # one vector for a group of rank 2
        ],
        ids=["repeated", "out-of-range", "negative", "length", "count"],
    )
    def test_vectors_that_are_no_permutations_are_refused(self, vectors):
        with pytest.raises(ValueError):
            Module.from_perms(V4, vectors)

    def test_vectors_are_copied_and_read_only(self):
        sigma = np.array([1, 0])
        mod = Module.from_perms(C2, [sigma])
        sigma[:] = [0, 1]
        assert mod.perms.tolist() == [[1, 0]]
        with pytest.raises(ValueError):
            mod.perms[0][0] = 0

    @pytest.mark.parametrize(
        "group, vectors, detail",
        [
            (C2, [[1, 2, 0]], "degree 0: generator 1: order does not divide p"),
            (C3_2, [[1, 0, 2], [0, 1, 2]], "degree 0: generator 1: order does not divide p"),
            (V4, [[1, 0, 2], [0, 2, 1]], "degree 0: commutativity i=1 j=2"),
            (C3_2, [[1, 2, 0, 3], [0, 2, 3, 1]], "degree 0: commutativity i=1 j=2"),
        ],
    )
    def test_a_broken_term_fails_terms_valid_like_its_dense_twin(self, group, vectors, detail):
        built = Module.from_perms(group, vectors)
        twin = Module(group, tuple(permutation_matrix(group.p, s) for s in vectors))
        assert np.array_equal(twin.perms, built.perms) and not cached_matrices(twin)
        reports = [certify_resolution(single_term_complex(m)) for m in (built, twin)]
        checks = [next(c for c in rep.checks if c.name == "terms-valid") for rep in reports]
        assert [(c.ok, c.detail) for c in checks] == [(False, detail)] * 2
        assert _checked(twin) == detail.removeprefix("degree 0: ")

    @pytest.mark.parametrize("group", [C2, V4, C3_2], ids=str)
    def test_equal_in_both_forms(self, group):
        built = _realized(group)
        # the dense twin of a permutation module is kept as its vectors
        twin = Module(group, built.action)
        assert not cached_matrices(built) and not cached_matrices(twin)
        assert twin.perms is not built.perms and np.array_equal(twin.perms, built.perms)
        assert ref_action(twin) == ref_action(built)
        assert built == twin and twin == built and hash(built) == hash(twin)
        assert len({built, twin, Module(group, twin.action)}) == 1
        if group.rank > 1:
            assert Module.from_perms(group, built.perms[::-1]) != built
        # a non-permutation generator never equals a permutation
        u = np.eye(built.dim, dtype=np.int64)
        u[0, 1] = 1
        unipotent = _with_generator(twin, 0, Mat(group.p, u))
        assert unipotent != built and built != unipotent

    def test_defect_is_validated_once(self, monkeypatch):
        from permres import modules

        calls = []
        check = modules.validate_module
        monkeypatch.setattr(modules, "validate_module", lambda m: calls.append(m) or check(m))
        res = trivial_resolution(V4, 2).complex
        assert certify_resolution(res, m=2, require_tags=True).ok
        assert free_rank(res.terms[0]) == 1
        ends = res.terms + (res.aug.target,)
        assert sorted(map(id, calls)) == sorted(map(id, ends))


FORM_DIM = 24  # the dense references below are pure Python


@cache
def _small_subgroups(group):
    return [h for h in all_subgroups(group) if h.index <= FORM_DIM // 2]


def _realized_parts(draw, group):
    """A realized descriptor of 0 to 3 parts, with the blocks of its parts."""
    parts = draw(st.lists(st.sampled_from(_small_subgroups(group)), max_size=3))
    tagged = realize(PermutationDescriptor(group, tuple(parts)))
    return tagged.module, [np.flatnonzero(tagged.part_of == j) for j in range(len(parts))]


def _non_permutation(draw, p, d):
    """A d x d matrix over F_p that is no permutation matrix: seeded random
    entries, or one 1 in each row at columns that repeat."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        a = np.zeros((d, d), dtype=np.int64)
        a[np.arange(d), rng.integers(0, d, size=d)] = 1
    else:
        a = rng.integers(0, p, size=(d, d))
    if ref_permutation_vector(a.tolist()) is not None:
        a[0, 0] = (a[0, 0] + 1) % p
    return Mat(p, a)


def _form_module(draw, group, depth=1):
    """A module of dim at most FORM_DIM in one of the ways the code makes one."""
    kinds = ["realized", "zero", "restricted", "mixed"] + ["sum", "tensor"] * depth
    kind = draw(st.sampled_from(kinds))
    p, r = group.p, group.rank
    if kind == "zero":
        zero = Module(group, (Mat.zeros(p, 0, 0),) * r)
        return draw(st.sampled_from([zero, trivial_module(group, 0)]))
    if kind in ("sum", "tensor"):
        m, n = _form_module(draw, group, 0), _form_module(draw, group, 0)
        if kind == "sum":
            assume(m.dim + n.dim <= FORM_DIM)
            return block_sum(group, (m, n))
        assume(m.dim * n.dim <= FORM_DIM)
        return tensor(m, n)
    mod, blocks = _realized_parts(draw, group)
    if kind == "restricted":
        chosen = draw(st.lists(st.booleans(), min_size=len(blocks), max_size=len(blocks)))
        kept = [b for b, c in zip(blocks, chosen) if c]
        keep = np.concatenate([np.zeros(0, dtype=np.int64), *kept])
        return permutation_submodule(mod, draw(st.permutations(keep.tolist())))
    if kind == "mixed" and mod.dim:
        # one generator, any of them, is no permutation
        i = draw(st.integers(0, r - 1))
        return _with_generator(mod, i, _non_permutation(draw, p, mod.dim))
    return mod


@st.composite
def form_modules(draw):
    """(group, m, n): two modules over one group, p in {2, 3, 5}, r <= 3."""
    group = Group(draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 3)))
    return group, _form_module(draw, group), _form_module(draw, group)


def _assert_one_form(mod):
    """mod keeps its vectors and no matrix exactly when every generator is a
    permutation matrix, else its matrices; its dense twin takes the same form,
    equals it and hashes equal; ``require_perms`` and ``defect`` agree with
    the dense references."""
    p, action = mod.group.p, ref_action(mod)
    vectors = [ref_permutation_vector(a) for a in action]
    if None in vectors:
        assert mod.perms is None and len(cached_matrices(mod)) == len(action)
        i, row = ref_non_permutation(action)
        with pytest.raises(NotPermutationBasis) as info:
            mod.require_perms()
        assert (info.value.generator_index, info.value.row_index) == (i, row)
        assert str(info.value) == (
            f"generator {i + 1} is not a permutation matrix (first offending row {row})"
        )
    else:
        assert mod.perms.tolist() == vectors and not cached_matrices(mod)
        assert not mod.perms.flags.writeable
        assert mod.require_perms() is mod.perms
    twin = Module(mod.group, mod.action)
    assert (twin.perms is None) == (mod.perms is None)
    assert twin == mod and mod == twin and hash(twin) == hash(mod)
    assert mod.defect == ref_validate_module(action, p)


class TestOneStoredForm:
    """Every way of making a module gives the one form its generators decide."""

    @settings(max_examples=300, deadline=None)
    @given(form_modules(), st.integers(0, 2**32 - 1))
    def test_differential(self, drawn, seed):
        group, m, n = drawn
        for mod in (m, n):
            _assert_one_form(mod)
        a = np.random.default_rng(seed).integers(0, group.p, size=(n.dim, m.dim))
        for f in (identity_map(m), zero_map(m, n), ModuleMap(m, n, Mat(group.p, a))):
            _checked_map(f)
        assert (m == n) == (ref_action(m) == ref_action(n))


class TestRadicalQuotientKernel:
    def test_radical_of_kc2(self):
        f = free_module(C2, 1)
        s, incl = radical(f)
        assert s.dim == 1
        assert incl.matrix == Mat(2, [[1], [1]])

    def test_quotient_edges(self):
        m = free_module(C3, 1)
        q, proj = quotient(m, zero_map(trivial_module(C3, 0), m))
        assert q.dim == m.dim and proj.is_surjective() and proj.is_injective()
        q2, _ = quotient(m, identity_map(m))
        assert q2.dim == 0

    def test_kc2_mod_radical_is_trivial(self):
        f = free_module(C2, 1)
        s, incl = radical(f)
        q, proj = quotient(f, incl)
        assert q.dim == 1 and q.action[0].is_identity()
        assert (proj.matrix @ incl.matrix).is_zero()

    def test_quotient_rejects_non_injective(self):
        import pytest

        from permres.errors import NotInjective

        f = free_module(C2, 1)
        collapse = ModuleMap(f, f, Mat(2, [[1, 1], [1, 1]]))
        with pytest.raises(NotInjective):
            quotient(f, collapse)

    def test_kernel_cases(self):
        f = free_module(C3, 1)
        assert kernel(identity_map(f))[0].dim == 0
        assert kernel(zero_map(f, trivial_module(C3, 1)))[0].dim == f.dim
        aug = ModuleMap(f, trivial_module(C3, 1), Mat(3, [[1, 1, 1]]))
        k, incl = kernel(aug)
        assert k.dim == 2
        assert (aug.matrix @ incl.matrix).is_zero()


class TestSumsTensorsDuals:
    def test_direct_sum(self):
        m = free_module(C2, 1)
        z = trivial_module(C2, 0)
        assert direct_sum(m, z).module == m
        two = direct_sum(trivial_module(C2, 1), trivial_module(C2, 1)).module
        assert two == trivial_module(C2, 2)
        for a, b in [(random_module(2, 2, 3, 1), random_module(2, 2, 2, 2))]:
            ds = direct_sum(a, b)
            assert ds.module.dim == a.dim + b.dim
            assert (ds.proj1 @ ds.inj1).matrix.is_identity()
            assert (ds.proj2 @ ds.inj2).matrix.is_identity()
            assert (ds.proj1 @ ds.inj2).matrix.is_zero()
            assert (ds.proj2 @ ds.inj1).matrix.is_zero()

    def test_tensor(self):
        k = trivial_module(C2, 1)
        m = free_module(C2, 1)
        assert tensor(k, m) == m
        t = tensor(m, m)
        assert t.dim == 4
        # oracle: the norm 1 + g acts on the tensor by I + A(x)A, which has rank 2
        diag = np.kron(m.action[0].a, m.action[0].a)
        full = (np.eye(4, dtype=np.int64) + diag) % 2
        assert ref_rank(full.tolist(), 2) == 2
        assert free_rank(t) == 2
        for a, b in [(random_module(3, 1, 2, 4), random_module(3, 1, 3, 5))]:
            assert tensor(a, b).dim == a.dim * b.dim

    def test_dual(self):
        assert dual(trivial_module(C3, 2)) == trivial_module(C3, 2)
        f = free_module(C3, 2)
        assert free_rank(dual(f)) == 2
        for m in random_corpus():
            assert dual(dual(m)) == m

    def test_hom_space(self):
        k2 = trivial_module(C3, 1)
        assert len(hom_space(k2, k2)) == 1
        assert len(hom_space(k2, free_module(C3, 1))) == 1
        for group in (C2, C3, V4):
            f = free_module(group, 1)
            basis = hom_space(f, f)
            assert len(basis) == group.order
            for h in basis:
                for a in f.action:
                    assert h @ a == a @ h


class TestCompositionSeries:
    def test_trivial_flag(self):
        incls = composition_series(trivial_module(C2, 3))
        assert len(incls) == 4
        assert [i.source.dim for i in incls] == [0, 1, 2, 3]

    def test_kc2_flag_passes_through_socle(self):
        f = free_module(C2, 1)
        incls = composition_series(f)
        assert [i.source.dim for i in incls] == [0, 1, 2]
        assert incls[1].matrix == Mat(2, [[1], [1]])  # the socle line

    def test_random_flags_have_trivial_quotients(self):
        for m in random_corpus():
            incls = composition_series(m)
            assert len(incls) == m.dim + 1
            assert incls[-1].matrix.is_identity()
            for small, big in zip(incls, incls[1:]):
                ses = ses_from_flag(small, big)
                n = ses.proj.target
                assert n.dim == 1
                assert all(a.is_identity() for a in n.action)

    def test_ses_from_flag_examples(self):
        incls = composition_series(trivial_module(C2, 2))
        ses = ses_from_flag(incls[1], incls[2])
        assert (ses.incl.source.dim, ses.incl.target.dim, ses.proj.target.dim) == (1, 2, 1)
        f = free_module(C2, 1)
        incls = composition_series(f)
        ses = ses_from_flag(incls[1], incls[2])
        assert check_ses(ses) is None
        assert ses.proj.target.dim == 1


class TestCoversAndLoops:
    def test_cover_of_free_is_bijective(self):
        f = free_module(C3, 2)
        cover = projective_cover(f)
        assert cover.free_rank == 2
        assert cover.map.is_injective() and cover.map.is_surjective()

    def test_cover_of_k_over_c2(self):
        cover = projective_cover(trivial_module(C2, 1))
        assert cover.free == free_module(C2, 1)
        assert cover.map.matrix == Mat(2, [[1, 1]])
        k, _ = kernel(cover.map)
        assert k.dim == 1

    def test_cover_of_zero(self):
        cover = projective_cover(trivial_module(C2, 0))
        assert cover.free.dim == 0

    def test_omega(self):
        assert omega(free_module(C3, 1))[0].dim == 0
        w, incl = omega(trivial_module(C3, 1))
        assert w.dim == 2
        assert check_module_map(incl) is None
        for group in (C2, C3):
            w2 = omega_iter(trivial_module(group, 1), 2)
            probe = iso_probe(w2, trivial_module(group, 1))
            assert probe.verdict == "iso"
            assert rank(probe.map.matrix) == 1

    def test_cover_dimension_identity(self):
        for m in random_corpus():
            cover = projective_cover(m)
            assert cover.map.is_surjective()
            assert cover.free.dim == cover.free_rank * m.group.order
            assert kernel(cover.map)[0].dim == cover.free.dim - m.dim


def ref_orbit(mod, v):
    """Columns prod_i A_i^(x_i) v for all x in E, in lexicographic order."""
    p = mod.group.p
    cols = []
    for x in itertools.product(range(p), repeat=mod.group.rank):
        w = [[int(c)] for c in v]
        for a, e in zip(mod.action, x):
            w = ref_matmul(ref_mat_pow(a.a.tolist(), e, p), w, p)
        cols.append([row[0] for row in w])
    return [list(row) for row in zip(*cols)]


def shuffled(mod, seed):
    """mod in a shuffled basis: still a permutation module when mod is one."""
    perm = np.random.default_rng(seed).permutation(mod.dim)
    p = mod.group.p
    return Module(mod.group, tuple(Mat(p, a.a[np.ix_(perm, perm)]) for a in mod.action))


class TestOrbitColumns:
    @pytest.mark.parametrize("t", [0, 1, 3])
    @pytest.mark.parametrize(
        "make, gathers",
        [
            (lambda g: free_module(g, 1), True),
            (lambda g: realize(PermutationDescriptor(g, all_subgroups(g)[1:4])).module, True),
            # a permutation module over V4, not over C3_2: either walk
            (lambda g: random_module(g.p, g.rank, 4, seed=13), None),
            (lambda g: shuffled(realize(PermutationDescriptor(g, all_subgroups(g)[:3])).module, 5), True),
            (lambda g: omega(trivial_module(g, 1))[0], False),
        ],
        ids=["free", "coset", "random", "shuffled", "omega"],
    )
    def test_batched_orbits_match_reference(self, make, gathers, t):
        for group in (V4, C3_2):
            mod = make(group)
            # the gathers run exactly when every generator is a permutation
            if gathers is not None:
                assert (mod.perms is not None) == gathers
            rng = np.random.default_rng(t)
            vecs = rng.integers(0, group.p, size=(mod.dim, t))
            got = orbit_columns(mod, vecs)
            assert got.shape == (mod.dim, t * group.order)
            for j in range(t):
                block = got[:, j * group.order : (j + 1) * group.order]
                assert block.tolist() == ref_orbit(mod, vecs[:, j])


def ref_span(rows, p):
    """Every F_p-combination of the rows, as a set of tuples."""
    width = len(rows[0]) if rows else 0
    return {
        tuple(sum(c * row[i] for c, row in zip(coeffs, rows)) % p for i in range(width))
        for coeffs in itertools.product(range(p), repeat=len(rows))
    }


class TestFixedPoints:
    @pytest.mark.parametrize("group", [V4, C3_2, Group(2, 3)], ids=["2-2", "3-2", "2-3"])
    def test_coset_module_fixed_points(self, group):
        p = group.p
        subs = all_subgroups(group)
        for k in subs:
            mod = realize(PermutationDescriptor(group, (k,))).module
            for h in subs:
                f = fixed_points(mod, h)
                # k(E/K)^H has one basis vector per H-orbit on E/K: [E : H+K] of them
                rows = h.basis.a.tolist() + k.basis.a.tolist()
                sum_size = len(ref_span(rows, p))
                assert f.shape == (mod.dim, group.order // sum_size)
                assert rank(f) == f.cols
                for x in h.basis.a:
                    move = np.eye(mod.dim, dtype=np.int64).tolist()
                    for a, e in zip(mod.action, x):
                        move = ref_matmul(move, ref_mat_pow(a.a.tolist(), int(e), p), p)
                    assert ref_matmul(move, f.a.tolist(), p) == f.a.tolist()

    @pytest.mark.parametrize("group", [V4, C3_2, Group(2, 3)], ids=["2-2", "3-2", "2-3"])
    def test_orbit_indicators_match_dense_oracle(self, group):
        subs = all_subgroups(group)
        for i, k in enumerate(subs):
            # one transitive module, and a two-part sum in a shuffled basis
            mods = [
                coset_module(k),
                shuffled(block_sum(group, (coset_module(k), coset_module(subs[-1 - i]))), i),
            ]
            for mod in mods:
                action = ref_action(mod)
                for h in subs:
                    want = ref_fixed_points(action, h.basis.a.tolist(), group.p)
                    assert fixed_points(mod, h).a.tolist() == want

    def test_refuses_a_non_permutation_module(self):
        mod = omega(trivial_module(V4, 1))[0]
        assert mod.perms is None
        h = all_subgroups(mod.group)[1]
        with pytest.raises(NotPermutationBasis):
            fixed_points(mod, h)


class TestFreeRankAndStrip:
    def test_free_rank_values(self):
        assert free_rank(free_module(V4, 3)) == 3
        assert free_rank(trivial_module(V4, 1)) == 0
        mixed = direct_sum(free_module(C2, 1), trivial_module(C2, 1)).module
        # oracle: block norm [[1,1],[1,1]] (+) [0] has rank 1
        assert ref_rank([[1, 1, 0], [1, 1, 0], [0, 0, 0]], 2) == 1
        assert free_rank(mixed) == 1

    def test_free_rank_additive(self):
        for m in random_corpus()[:2]:
            f = free_module(m.group, 1)
            both = direct_sum(m, f).module
            assert free_rank(both) == free_rank(m) + 1
            assert free_rank(m) <= m.dim // m.group.order

    def test_strip_free(self):
        f2 = free_module(C3, 2)
        res = strip_free(f2)
        assert (res.module.dim, res.stripped) == (0, 2)

        k = trivial_module(C2, 1)
        res = strip_free(k)
        assert (res.module, res.stripped) == (k, 0)

        mixed = direct_sum(free_module(C2, 1), trivial_module(C2, 1)).module
        res = strip_free(mixed)
        assert res.stripped == 1
        assert res.module.dim == 1 and res.module.action[0].is_identity()
        assert check_module_map(res.iso) is None
        assert rank(res.iso.matrix) == mixed.dim

    def test_strip_random(self):
        for m in random_corpus():
            f = free_module(m.group, 1)
            both = direct_sum(m, f).module
            res = strip_free(both)
            assert free_rank(res.module) == 0
            assert res.module.dim + res.stripped * m.group.order == both.dim
            assert check_module_map(res.iso) is None


class TestIsoProbe:
    def test_self_iso(self):
        for m in random_corpus()[:2]:
            assert iso_probe(m, m).verdict == "iso"

    def test_dimension_mismatch(self):
        assert iso_probe(trivial_module(C2, 1), free_module(C2, 1)).verdict == "not_isomorphic"

    def test_non_iso_same_dim(self):
        k2 = trivial_module(C2, 2)
        f = free_module(C2, 1)
        assert iso_probe(k2, f).verdict == "not_isomorphic"


class TestInvariants:
    def test_radical_series_terminates(self):
        for m in random_corpus():
            dims = [r.rows for r in radical_series(m)]
            assert dims[0] == m.dim and dims[-1] == 0
            assert all(a > b for a, b in zip(dims, dims[1:]))
            assert len(dims) <= m.dim + 1

    def test_outputs_validate(self):
        for m in random_corpus():
            assert validate_module(m) is None
            s, _ = radical(m)
            assert validate_module(s) is None
            assert validate_module(dual(m)) is None
            assert validate_module(omega(m)[0]) is None

    def test_norm_matrix_of_free(self):
        f = free_module(C3, 1)
        # the norm of kC_p is the all-ones matrix
        assert norm_matrix(f) == Mat(3, np.ones((3, 3), dtype=np.int64))

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_norm_matrix_is_the_element_sum(self, p):
        # sum over x in E of A_1^x_1 ... A_r^x_r, from the reference routines
        r = 2 if p <= 3 else 1
        for seed in range(3):
            m = random_module(p, r, 4, seed)
            gens = [a.a.tolist() for a in m.action]
            total = [[0] * m.dim for _ in range(m.dim)]
            for x in itertools.product(range(p), repeat=r):
                term = ref_mat_pow(gens[0], x[0], p)
                for g, e in zip(gens[1:], x[1:]):
                    term = ref_matmul(term, ref_mat_pow(g, e, p), p)
                total = [[(u + v) % p for u, v in zip(a, b)] for a, b in zip(total, term)]
            assert norm_matrix(m).a.tolist() == total


class TestRandomModules:
    def test_exact_dims_and_determinism(self):
        m1 = random_module(3, 2, 5, seed=1)
        m2 = random_module(3, 2, 5, seed=1)
        assert m1 == m2 and m1.dim == 5
        assert validate_module(m1) is None
        assert random_module(2, 1, 2, seed=7).dim == 2

    def test_composition_length(self):
        m = random_module(3, 2, 5, seed=1)
        assert len(composition_series(m)) == 6
