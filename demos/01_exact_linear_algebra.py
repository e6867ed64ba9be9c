#!/usr/bin/env python3
# Exact dense linear algebra over F_p: the substrate everything else
# stands on.  No floats are ever trusted: products run through BLAS but
# are provably exact, and every elimination is a mod-p row operation.

from permres.linalg import Mat, nullspace, rank, rref, solve

# A matrix over F_5 whose second row is twice the first.
a = Mat(5, [[1, 2], [2, 4]])
r, rk, pivots = rref(a)
print("A =", a.a.tolist())
print("rref(A) =", r.a.tolist(), "rank", rk, "pivots", pivots)

# Kernels come with a canonical basis: free variables in increasing
# order, each set to 1.
k = nullspace(Mat(2, [[1, 1]]))
print("kernel of [1 1] over F_2:", k.a.tolist())

# solve returns the canonical particular solution (free variables 0),
# or None when the system is inconsistent.
x = solve(Mat(3, [[1, 1], [0, 1]]), Mat(3, [[2], [1]]))
print("solution of x+y=2, y=1 over F_3:", x.a.tolist())
print("inconsistent system:", solve(Mat(2, [[0, 0]]), Mat(2, [[1]])))

# Exactness means the identities hold on the nose, not up to epsilon.
m = Mat(3, [[1, 2, 0], [2, 1, 1]])
n = nullspace(m)
assert (m @ n).is_zero()
assert rank(m) + n.cols == m.cols
print("rank-nullity over F_3:", rank(m), "+", n.cols, "=", m.cols)
