#!/usr/bin/env python3
# The resolution of the trivial module: inflate the 2-periodic coset
# complex along each coordinate, then tensor the r factors together.
# Every claim is certified by exact homology ranks, never assumed.

from permres.complexes import (
    euler_characteristic,
    free_up_to,
    homology_dims,
    tensor_complexes,
)
from permres.groups import Group
from permres.resolution import periodic_complex, trivial_resolution

V4 = Group(2, 2)

# Q(i): cosets of the i-th coordinate hyperplane, differentials
# alternating (g - 1) and the norm, with k at the top.
q1 = periodic_complex(V4, 1, 2)
q2 = periodic_complex(V4, 2, 2)
print("Q(1) dims:", q1.dims(), " homology:", homology_dims(q1))

# Their tensor resolves k over the whole group; the degree-0 term is the
# full group algebra.
t = tensor_complexes(q1, q2)
print("Q(1) (x) Q(2) dims:", t.dims())
print("homology:", homology_dims(t))

# trivial_resolution picks the periodic length so that every term up to
# the requested degree is free, and certifies the whole package.
res = trivial_resolution(V4, 1)
print("m=1 dims:", res.complex.dims(), " chi =", euler_characteristic(res.complex))
print("free up to 1:", free_up_to(res.complex, 1))
for j, tag in enumerate(res.complex.tags):
    print(f"  degree {j}: {tag}")

# Asking for more freeness lengthens the periodic factors.
res2 = trivial_resolution(V4, 2)
print("m=2 dims:", res2.complex.dims())
