#!/usr/bin/env python3
# If M (+) Q has a permutation resolution with Q free, the epimorphism
# from degree 0 onto Q forces Q to split off, and the resolution can be
# trimmed to one of M alone without losing freeness.  Here: resolve
# k (+) kC_2 by a direct sum, then cancel the free block.

from permres.complexes import (
    direct_sum_complexes,
    free_up_to,
    is_resolution,
    single_term_complex,
    tag_complex,
)
from permres.groups import Group
from permres.modules import (
    ModuleMap,
    direct_sum,
    free_module,
    identity_map,
    trivial_module,
)
from permres.resolution import good_resolution, trim

C2 = Group(2, 1)
k = trivial_module(C2, 1)
q = free_module(C2, 1)

# Resolution of k (+) kC_2, built summand by summand.
base = good_resolution(k, 1).complex
extra = tag_complex(single_term_complex(q, identity_map(q)))
summed = direct_sum_complexes(base, extra)
print("before trim:", summed.dims())
print("degree-0 tag:", summed.tags[0])

ds = direct_sum(k, q)
proj_m = ModuleMap(summed.aug.target, k, ds.proj1.matrix)
proj_q = ModuleMap(summed.aug.target, q, ds.proj2.matrix)

out = trim(summed, proj_m, proj_q)
print("after trim:", out.dims())
print("degree-0 tag:", out.tags[0])
print("still a resolution:", is_resolution(out), " of dim", out.aug.target.dim)
print("freeness preserved (m=1):", free_up_to(out, 1))
