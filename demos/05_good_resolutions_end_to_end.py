#!/usr/bin/env python3
# End to end: take a random module M over (C_3)^2, build a finite
# permutation resolution that is free up to degree m, and inspect the
# certificate.  The construction splits off the free summands of M, then
# walks a composition series from the bottom: each step with quotient k is
# rotated through its projective cover kE, and a fresh resolution of the
# Heller loop Ωk is spliced in via a mapping cone.  Each step adds 2r to
# the length: without free summands, the length is
# r (even(m) + 2 (dim M - 1)), even(m) the least even number > m.

from permres.complexes import euler_characteristic, free_up_to, syzygy
from permres.modules import free_rank, omega_iter
from permres.random_modules import random_module
from permres.resolution import good_resolution

mod = random_module(3, 2, 3, seed=11)
print("module: dim", mod.dim, "over p=3, rank 2")

res = good_resolution(mod, m=1)
c = res.complex
print("resolution length:", c.top)
print("term dims:", c.dims())
print("Euler characteristic:", euler_characteristic(c), "= dim M:", mod.dim)
print("free up to degree 1:", free_up_to(c, 1))
print("certificate:")
for line in res.report.lines():
    print("  " + line)

# The syzygies agree with the Heller loops up to free summands: the
# testable form of "K_j = Omega^j M (+) free".
for j in (1,):
    k_j = syzygy(c, j)
    w_j = omega_iter(mod, j)
    lhs = k_j.dim - mod.group.order * free_rank(k_j)
    print(f"syzygy identity at j={j}: {k_j.dim} - {mod.group.order}*{free_rank(k_j)} "
          f"= {lhs} = dim Omega^{j} M = {w_j.dim}")
