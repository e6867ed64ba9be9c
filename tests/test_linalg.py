import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from permres import linalg
from permres.errors import DimensionMismatch
from permres.groups import Group
from permres.linalg import (
    Mat,
    _echelon,
    block_diag,
    block_matrix,
    check_prime,
    hstack,
    inverse,
    mat_pow,
    nullspace,
    permutation_matrix,
    permutation_vector,
    rank,
    rank_profile,
    rref,
    row_space,
    solve,
    vstack,
)
from permres.random_modules import random_module
from permres.resolution import good_resolution, trivial_resolution

from helpers import (
    ref_block_matrix,
    ref_echelon,
    ref_mat_pow,
    ref_permutation_vector,
    ref_rank,
    ref_reduce,
)

PRIMES = [2, 3, 5]


def random_mat(rng, p, rows, cols):
    return Mat(p, rng.integers(0, p, size=(rows, cols)))


def matrices(min_side=0, max_side=6):
    """Hypothesis strategy producing (p, Mat) pairs of small matrices."""

    @st.composite
    def build(draw):
        p = draw(st.sampled_from(PRIMES))
        rows = draw(st.integers(min_side, max_side))
        cols = draw(st.integers(min_side, max_side))
        entries = draw(
            st.lists(
                st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            )
        )
        data = np.array(entries, dtype=np.int64).reshape(rows, cols)
        return Mat(p, data)

    return build()


@st.composite
def sparse_arrays(draw):
    """(p, array) with p up to 2^31 - 1 and entries biased to 0, 1 and p - 1."""
    p = draw(st.sampled_from([2, 3, 5, 2**31 - 1]))
    rows = draw(st.integers(0, 7))
    cols = draw(st.integers(0, 7))
    entry = st.one_of(st.sampled_from([0, 0, 1, p - 1]), st.integers(0, p - 1))
    entries = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
    return p, np.array(entries, dtype=np.int64).reshape(rows, cols)


class TestEchelon:
    """The elimination against its earlier one-numpy-call-per-step form."""

    @settings(max_examples=300, deadline=None)
    @given(sparse_arrays(), st.booleans())
    @example((2, np.zeros((0, 4), dtype=np.int64)), True)
    @example((3, np.zeros((4, 0), dtype=np.int64)), False)
    @example((5, np.zeros((3, 3), dtype=np.int64)), True)
    @example((2**31 - 1, np.array([[0], [2**31 - 2], [5]], dtype=np.int64)), True)
    @example((2**31 - 1, np.array([[0], [2**31 - 2], [5]], dtype=np.int64)), False)
    def test_identical_to_reference(self, pa, reduced):
        p, a = pa
        got, pivots = _echelon(a, p, reduced)
        want, want_pivots = ref_echelon(a, p, reduced)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert pivots == want_pivots


def _resolution_matrices():
    """(label, p, array) for every differential and augmentation of the trivial
    resolutions the verify benchmark reads, and of one good resolution."""
    complexes = [
        (f"trivial{(p, r, m)}", trivial_resolution(Group(p, r), m).complex)
        for p, r, m in ((2, 3, 5), (3, 2, 20), (5, 2, 7))
    ]
    complexes.append(("good(3,2,3,2)", good_resolution(random_module(3, 2, 3, 633), 2).complex))
    out = []
    for label, c in complexes:
        maps = [("aug", c.aug.matrix)] + [(f"d{j + 1}", d.matrix) for j, d in enumerate(c.diffs)]
        out.extend((f"{label}.{name}", c.group.p, m.a) for name, m in maps)
    return out


class TestRank:
    """Rank by pivot rounds against the per-pivot elimination and the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(sparse_arrays())
    @example((2, np.zeros((0, 4), dtype=np.int64)))
    @example((3, np.zeros((4, 0), dtype=np.int64)))
    @example((5, np.zeros((3, 3), dtype=np.int64)))
    @example((2**31 - 1, np.array([[0, 2**31 - 2, 5, 0]], dtype=np.int64)))
    # equal leading columns, a triangular block with off-diagonal entries
    @example((3, np.array([[1, 1, 2, 0], [0, 2, 1, 1], [2, 0, 0, 1], [0, 1, 1, 2]], dtype=np.int64)))
    def test_equals_reference_on_sparse_arrays(self, pa):
        p, a = pa
        assert rank_profile(Mat(p, a))[0] == ref_rank(a.tolist(), p)
        assert rank(Mat(p, a)) == ref_rank(a.tolist(), p)

    @pytest.mark.parametrize("p", [2, 3, 7, 65521])
    def test_equals_reference_on_dense_arrays(self, p):
        rng = np.random.default_rng(p)
        for rows, cols, k in ((12, 12, 12), (15, 9, 9), (9, 15, 4), (20, 20, 7), (1, 6, 1), (6, 1, 1)):
            # rank at most k, with equal rows repeated
            a = rng.integers(0, p, size=(rows, k)) @ rng.integers(0, p, size=(k, cols)) % p
            a[rows // 2] = a[0]
            assert rank_profile(Mat(p, a))[0] == ref_rank(a.tolist(), p), (rows, cols, k)

    def test_equals_echelon_on_resolution_maps(self):
        for label, p, a in _resolution_matrices():
            pivots = _echelon(a, p, False)[1]
            assert rank_profile(Mat(p, a)) == (len(pivots), tuple(pivots)), label

    def test_calls_no_per_pivot_elimination(self, monkeypatch):
        c = trivial_resolution(Group(2, 3), 5).complex
        d = next(d.matrix for d in c.diffs if d.matrix.cols == 252)
        want = len(linalg._pivot_loop(d.a.copy(), d.p, False)[1])

        def no_loop(*args):
            raise AssertionError("rank fell back to the per-pivot loop")

        monkeypatch.setattr(linalg, "_pivot_loop", no_loop)
        assert rank(d) == want


def _ref_pivots(a, p):
    """The leading column of each nonzero row of ``ref_reduce``'s echelon form."""
    rows, r = ref_reduce(a.tolist(), p)
    return tuple(next(c for c, x in enumerate(row) if x) for row in rows[:r])


@st.composite
def profile_arrays(draw):
    """(p, array) over the primes of the field range, edge shapes included,
    with repeated and combined rows so that pivot rounds are needed."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 65521, 2**31 - 1]))
    rows = draw(st.sampled_from([0, 1, 2, 3, 5, 8]))
    cols = draw(st.sampled_from([0, 1, 2, 3, 5, 8]))
    entry = st.one_of(st.sampled_from([0, 0, 0, 1, p - 1]), st.integers(0, p - 1))
    a = np.array(
        draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)), dtype=np.int64
    ).reshape(rows, cols)
    if rows >= 2 and draw(st.booleans()):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        a[i] = (a[i] + draw(st.integers(0, p - 1)) * a[j]) % p
    return p, a


class TestRankProfile:
    @settings(max_examples=300, deadline=None)
    @given(profile_arrays())
    @example((2, np.zeros((0, 3), dtype=np.int64)))
    @example((3, np.zeros((3, 0), dtype=np.int64)))
    @example((7, np.array([[0, 0, 4]], dtype=np.int64)))
    @example((11, np.array([[0], [3], [5]], dtype=np.int64)))
    @example((65521, np.array([[0, 1, 2], [0, 2, 4], [1, 0, 0]], dtype=np.int64)))
    def test_equals_reference_pivots(self, pa):
        p, a = pa
        want = _ref_pivots(a, p)
        assert rank_profile(Mat(p, a)) == (len(want), want)
        assert rank(Mat(p, a)) == ref_rank(a.tolist(), p)


ROUND_PRIMES = [2, 3, 5, 65521, 2**31 - 1]


@st.composite
def crossover_arrays(draw):
    """(p, array) on both sides of the pivot-round crossover: empty, thin,
    wide and tall shapes, of low rank with repeated rows and many zeros."""
    p = draw(st.sampled_from(ROUND_PRIMES))
    side = st.sampled_from([0, 1, 2, linalg._ROUND_MIN - 1, linalg._ROUND_MIN, 19, 33])
    rows, cols = draw(side), draw(side)
    k = draw(st.integers(0, max(rows, cols, 1)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    density = st.sampled_from([0.1, 0.5, 1])
    left = rng.integers(0, p, size=(rows, k)) * (rng.random((rows, k)) < draw(density))
    right = rng.integers(0, p, size=(k, cols)) * (rng.random((k, cols)) < draw(density))
    a = (left.astype(object) @ right.astype(object) % p).astype(np.int64).reshape(rows, cols)
    if rows >= 2 and draw(st.booleans()):
        a[rng.integers(rows)] = a[rng.integers(rows)]
    return p, a


def _is_echelon_with_pivots(a, pivots):
    """Nonzero rows first, each leading with 1 at its pivot, the pivots increasing."""
    lead = [int(np.flatnonzero(row)[0]) if row.any() else None for row in a]
    r = len(pivots)
    ones = all(a[i, c] == 1 for i, c in enumerate(pivots))
    return lead[:r] == list(pivots) and all(x is None for x in lead[r:]) and ones


class TestPivotRounds:
    """The one elimination on both sides of the crossover, against the oracles."""

    @settings(max_examples=200, deadline=None)
    @given(crossover_arrays())
    @example((3, np.zeros((linalg._ROUND_MIN, 0), dtype=np.int64)))
    @example((65521, np.zeros((0, linalg._ROUND_MIN), dtype=np.int64)))
    @example((2, np.zeros((linalg._ROUND_MIN, linalg._ROUND_MIN), dtype=np.int64)))
    def test_forms_ranks_and_pivots_equal_the_references(self, pa):
        p, a = pa
        want, want_pivots = ref_echelon(a, p, True)
        got, pivots = _echelon(a, p, True)
        assert got.dtype == np.int64 and np.array_equal(got, want) and pivots == want_pivots
        form, pivots = _echelon(a, p, False)
        assert form.dtype == np.int64 and form.shape == a.shape and pivots == want_pivots
        assert _is_echelon_with_pivots(form, pivots)
        # the form keeps the row space: its rref is the rref of a
        assert np.array_equal(ref_echelon(form, p, True)[0], want)
        assert rank_profile(Mat(p, a)) == (len(want_pivots), tuple(want_pivots))
        assert rank(Mat(p, a)) == ref_rank(a.tolist(), p) == len(want_pivots)
        m = Mat(p, a)
        assert rref(m)[0].a.tolist() == want.tolist()
        assert row_space(m).a.tolist() == want[: len(want_pivots)].tolist()
        kernel = nullspace(m)
        assert kernel.cols == a.shape[1] - len(want_pivots) and (m @ kernel).is_zero()

    @settings(max_examples=100, deadline=None)
    @given(crossover_arrays(), st.integers(0, 2**32 - 1))
    def test_solve_equals_the_reference_or_is_none(self, pa, seed):
        p, a = pa
        rng = np.random.default_rng(seed)
        rows, cols = a.shape
        x = rng.integers(0, p, size=(cols, 3)).astype(object)
        b = (a.astype(object) @ x % p).astype(np.int64)
        if rows and rng.random() < 0.5:
            b[:, 0] = (b[:, 0] + rng.integers(0, p, size=rows)) % p  # perhaps no longer in the span
        red, pivots = ref_echelon(np.hstack([a, b]), p, True)
        x = solve(Mat(p, a), Mat(p, b))
        if pivots and pivots[-1] >= cols:
            assert x is None
        else:
            want = np.zeros((cols, 3), dtype=np.int64)
            want[pivots] = red[: len(pivots), cols:]
            assert x is not None and x.a.tolist() == want.tolist()

    @pytest.mark.parametrize("p", ROUND_PRIMES)
    def test_inconsistent_systems_have_no_solution(self, p):
        n = linalg._ROUND_MIN + 5
        a = np.eye(n, dtype=np.int64)
        a[-1, -1] = 0
        b = np.zeros((n, 1), dtype=np.int64)
        b[-1, 0] = 1
        assert solve(Mat(p, a), Mat(p, b)) is None
        b[-1, 0] = 0
        b[0, 0] = p - 1
        assert solve(Mat(p, a), Mat(p, b)).a[:, 0].tolist() == b[:, 0].tolist()

    @pytest.mark.parametrize("p", ROUND_PRIMES)
    def test_rounds_run_exactly_where_floats_are_exact(self, p, monkeypatch):
        rng = np.random.default_rng(p)
        runs = []
        for name in ("_pivot_loop", "_pivot_rounds"):
            original = getattr(linalg, name)

            def counted(a, q, reduced, name=name, original=original):
                runs.append(name)
                return original(a, q, reduced)

            monkeypatch.setattr(linalg, name, counted)
        small = linalg._ROUND_MIN - 1
        for shape in ((small, 40), (40, small), (linalg._ROUND_MIN, 40), (40, 40)):
            a = rng.integers(0, p, size=shape) * (rng.random(shape) < 0.2)
            runs.clear()
            got = _echelon(a, p, True)
            rounds = min(shape) >= linalg._ROUND_MIN and p * p * shape[1] < 2**50
            assert runs == ["_pivot_rounds" if rounds else "_pivot_loop"]
            want = ref_echelon(a, p, True)
            assert np.array_equal(got[0], want[0]) and got[1] == want[1]


class TestRref:
    def test_identity_is_fixed(self):
        m = Mat.identity(2, 3)
        r, rk, pivots = rref(m)
        assert r == m
        assert rk == 3
        assert pivots == (0, 1, 2)

    def test_zero_matrix(self):
        m = Mat.zeros(3, 2, 4)
        r, rk, pivots = rref(m)
        assert r == m
        assert rk == 0
        assert pivots == ()

    def test_dependent_rows_mod_5(self):
        # row2 = 2*row1 mod 5, so rank 1 and the second row clears
        m = Mat(5, [[1, 2], [2, 4]])
        r, rk, _ = rref(m)
        assert r == Mat(5, [[1, 2], [0, 0]])
        assert rk == 1

    @given(matrices())
    @settings(max_examples=60, deadline=None)
    def test_idempotent_and_rank_stable(self, m):
        r, rk, pivots = rref(m)
        r2, rk2, pivots2 = rref(r)
        assert r2 == r
        assert (rk2, pivots2) == (rk, pivots)
        assert rk == ref_rank(m.a.tolist(), m.p)

    @given(matrices())
    @settings(max_examples=60, deadline=None)
    def test_row_space_preserved(self, m):
        r, _, _ = rref(m)
        assert row_space(m) == row_space(r)


class TestNullspace:
    def test_identity_has_empty_kernel(self):
        n = nullspace(Mat.identity(3, 4))
        assert n.shape == (4, 0)

    def test_zero_matrix_full_kernel(self):
        n = nullspace(Mat.zeros(2, 2, 3))
        assert n == Mat.identity(2, 3)

    def test_sum_of_coordinates_mod_2(self):
        n = nullspace(Mat(2, [[1, 1]]))
        assert n == Mat(2, [[1], [1]])

    @given(matrices())
    @settings(max_examples=60, deadline=None)
    def test_kernel_identities(self, m):
        n = nullspace(m)
        assert (m @ n).is_zero()
        assert rank(m) + n.cols == m.cols
        assert rank(n) == n.cols


class TestSolve:
    def test_identity_system(self):
        b = Mat(3, [[2], [1]])
        assert solve(Mat.identity(3, 2), b) == b

    def test_inconsistent(self):
        assert solve(Mat.zeros(2, 2, 2), Mat(2, [[1], [0]])) is None

    def test_back_substitution_mod_3(self):
        a = Mat(3, [[1, 1], [0, 1]])
        b = Mat(3, [[2], [1]])
        assert solve(a, b) == Mat(3, [[1], [1]])

    def test_row_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            solve(Mat.zeros(2, 2, 2), Mat.zeros(2, 3, 1))

    @given(matrices(max_side=5), st.integers(0, 2**30))
    @settings(max_examples=60, deadline=None)
    def test_exact_on_solvable_systems(self, m, seed):
        rng = np.random.default_rng(seed)
        x = random_mat(rng, m.p, m.cols, 2)
        b = m @ x
        got = solve(m, b)
        assert got is not None
        assert m @ got == b


class TestMatOps:
    def test_matmul_matches_reference(self):
        rng = np.random.default_rng(11)
        # 2^31 - 1 is past the float64 bound, so it takes the exact fallback
        for p in PRIMES + [2147483647]:
            a = random_mat(rng, p, 4, 5)
            b = random_mat(rng, p, 5, 3)
            expected = (a.a.astype(object) @ b.a.astype(object) % p).astype(np.int64)
            assert np.array_equal((a @ b).a, expected)

    def test_primes_from_2_31_are_refused(self):
        assert check_prime(2147483647) == 2147483647
        # both are prime; int64 elimination would overflow for them
        for p in (4294967311, 2**61 - 1):
            with pytest.raises(ValueError, match="2\\^31"):
                check_prime(p)
            with pytest.raises(ValueError):
                Mat(p, [[1]])

    def test_a_checked_prime_does_not_admit_its_float(self):
        assert check_prime(3) == 3
        # an earlier check of 3 must not let 3.0 through
        with pytest.raises(ValueError, match="not a prime"):
            check_prime(3.0)
        with pytest.raises(ValueError, match="not a prime"):
            Mat(3.0, [[1]])
        assert type(check_prime(np.int64(3))) is int

    def test_rref_exact_at_the_largest_prime(self):
        p = 2147483647
        rng = np.random.default_rng(5)
        for k in range(50):
            m = random_mat(rng, p, 3, 5)
            if k % 2:
                m = random_mat(rng, p, 3, 2) @ random_mat(rng, p, 2, 5)
            want, want_rank = ref_reduce(m.a.tolist(), p)
            got, got_rank, _ = rref(m)
            assert got_rank == want_rank
            assert got.a.tolist() == want

    def test_pow_and_inverse(self):
        m = Mat(3, [[1, 1], [0, 1]])
        assert mat_pow(m, 3).is_identity()
        assert (inverse(m) @ m).is_identity()

    def test_mat_pow_matches_reference(self):
        rng = np.random.default_rng(17)
        for p in (2, 3, 5, 7):
            for n in (1, 3, 4):
                a = rng.integers(0, p, size=(n, n))
                for e in range(10):
                    assert mat_pow(Mat(p, a), e).a.tolist() == ref_mat_pow(a.tolist(), e, p)
        with pytest.raises(ValueError):
            mat_pow(Mat.identity(2, 2), -1)

    def test_mat_pow_product_count(self, monkeypatch):
        # one square per bit after the leading one, one product per further set bit
        calls = []
        matmul = Mat.__matmul__

        def counted(a, b):
            calls.append(1)
            return matmul(a, b)

        monkeypatch.setattr(Mat, "__matmul__", counted)
        m = Mat(7, [[1, 1], [0, 1]])
        for e, products in ((0, 0), (1, 0), (2, 1), (3, 2), (5, 3), (7, 4), (8, 3)):
            calls.clear()
            mat_pow(m, e)
            assert len(calls) == products, e

    def test_blocks(self):
        a = Mat.identity(2, 1)
        b = Mat(2, [[1, 1]])
        assert hstack([b, b]).shape == (1, 4)
        assert vstack([b, b]).shape == (2, 2)
        d = block_diag(2, [a, Mat(2, [[0, 1], [1, 0]])])
        assert d == Mat(2, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
        # a part that fills the matrix comes back as it is, with no copy
        assert block_matrix(2, [1, 0], [0, 2], {(0, 1): b}) is b
        assert block_diag(2, [b]) is b
        # a wrong field or shape names the block
        with pytest.raises(DimensionMismatch, match=r"block \(1, 0\)"):
            block_matrix(2, [1, 1], [2], {(0, 0): b, (1, 0): Mat(3, [[1, 1]])})
        with pytest.raises(DimensionMismatch, match=r"block \(0, 1\)"):
            block_matrix(2, [1], [2, 1], {(0, 0): b, (0, 1): b})
        with pytest.raises(DimensionMismatch, match=r"block \(1, 1\)"):
            block_diag(2, [b, Mat(5, [[1]])])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_block_matrix_matches_oracle(self, data):
        p = data.draw(st.sampled_from([2, 3, 2**31 - 1]))
        side = st.lists(st.integers(0, 3), min_size=1, max_size=4)
        heights, widths = data.draw(side), data.draw(side)
        cells = [(i, j) for i in range(len(heights)) for j in range(len(widths))]
        present = data.draw(st.lists(st.sampled_from(cells), unique=True))
        parts = {}
        for i, j in present:
            row = st.lists(st.integers(0, p - 1), min_size=widths[j], max_size=widths[j])
            parts[i, j] = data.draw(st.lists(row, min_size=heights[i], max_size=heights[i]))
        mats = {
            ij: Mat(p, np.array(rows, dtype=np.int64).reshape(heights[ij[0]], widths[ij[1]]))
            for ij, rows in parts.items()
        }
        got = block_matrix(p, heights, widths, mats)
        assert got.p == p and got.shape == (sum(heights), sum(widths))
        assert got.a.tolist() == ref_block_matrix(heights, widths, parts)

    @pytest.mark.parametrize("p", [2, 5, 2**31 - 1])
    def test_kron_matches_numpy(self, p):
        rng = np.random.default_rng(p % 97)
        for _ in range(20):
            x = random_mat(rng, p, *rng.integers(0, 5, size=2))
            y = random_mat(rng, p, *rng.integers(0, 5, size=2))
            got = x.kron(y)
            # residues stay below 2^31, so the int64 products are exact
            want = np.kron(x.a, y.a) % p
            assert got.shape == want.shape
            assert np.array_equal(got.a, want)

    def test_immutability(self):
        m = Mat.identity(2, 2)
        with pytest.raises(ValueError):
            m.a[0, 0] = 0

    def test_permutation_vector(self):
        m = Mat(2, [[0, 1], [1, 0]])
        assert permutation_vector(m).tolist() == [1, 0]
        assert permutation_vector(Mat(2, [[1, 1], [0, 1]])) is None

    @pytest.mark.parametrize("p, n", [(2, 1), (3, 2), (2, 3), (3, 3)])
    def test_permutation_vector_on_every_small_matrix(self, p, n):
        for entries in itertools.product(range(p), repeat=n * n):
            rows = [list(entries[i * n : (i + 1) * n]) for i in range(n)]
            got = permutation_vector(Mat(p, rows))
            expected = ref_permutation_vector(rows)
            assert (got if got is None else got.tolist()) == expected, rows

    def test_permutation_vector_of_non_square_and_empty(self):
        assert permutation_vector(Mat(2, np.zeros((0, 2), dtype=np.int64))) is None
        assert permutation_vector(Mat(2, [[1, 0]])) is None
        assert permutation_vector(Mat(2, np.zeros((0, 0), dtype=np.int64))).tolist() == []

    def test_permutation_matrix_inverts_permutation_vector(self):
        rng = np.random.default_rng(3)
        for n in (0, 1, 5):
            sigma = rng.permutation(n)
            m = permutation_matrix(3, sigma)
            assert permutation_vector(m).tolist() == sigma.tolist()
            assert permutation_matrix(3, permutation_vector(m)) == m
            for x in range(n):
                assert m.a[:, x].tolist() == [int(y == sigma[x]) for y in range(n)]
