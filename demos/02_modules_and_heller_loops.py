#!/usr/bin/env python3
# Modules over an elementary abelian p-group E = (C_p)^r are tuples of
# commuting generator matrices of order dividing p.  This walk-through
# builds the classics over C_3 and takes their Heller loops.

from permres.groups import Group
from permres.modules import (
    free_module,
    free_rank,
    iso_probe,
    omega,
    omega_iter,
    projective_cover,
    radical,
    trivial_module,
    validate_module,
)

C3 = Group(3, 1)

# The group algebra kC_3: the generator acts by the cyclic permutation.
f = free_module(C3, 1)
print("kC_3 generator:\n", f.action[0].a)
print("validate:", validate_module(f))

# Its radical is 2-dimensional (the augmentation ideal).
rad, incl = radical(f)
print("dim rad(kC_3) =", rad.dim)

# The trivial module k has the group algebra as projective cover; the
# kernel of the cover is the first Heller loop Omega k.
k = trivial_module(C3, 1)
cover = projective_cover(k)
print("cover of k has rank", cover.free_rank, "and maps by", cover.map.matrix.a.tolist())
w1, _ = omega(k)
print("dim Omega k =", w1.dim)

# Omega is 2-periodic on k for cyclic groups: Omega^2 k is isomorphic to
# k again, and the probe proves it by exhausting the (tiny) hom space.
w2 = omega_iter(k, 2)
probe = iso_probe(w2, k)
print("Omega^2 k ~ k:", probe.verdict)

# The norm element counts free summands: 1 for kC_3, 0 for k.
print("free_rank(kC_3) =", free_rank(f), " free_rank(k) =", free_rank(k))
