#!/usr/bin/env python3
# Permutation modules over E are direct sums of coset spaces k(E/H).
# A descriptor is the multiset of subgroups H; realizing it produces the
# explicit matrices, and recognizing a module recovers the descriptor by
# reading orbits and stabilizers off the permutation basis.

from permres.groups import Group, Subgroup, all_subgroups
from permres.modules import tensor
from permres.permutation import (
    PermutationDescriptor,
    mackey_tensor,
    realize,
    recognize,
    tensor_descriptor,
)

V4 = Group(2, 2)  # (C_2)^2

# The subgroups of (C_2)^2 are its five subspaces.
subs = all_subgroups(V4)
print("subgroups of (C_2)^2:", [repr(s) for s in subs])

# k(E/H) for the hyperplane H = span{e_2}: two cosets, e_1 swaps them.
h = Subgroup(V4, [[0, 1]])
tagged = realize(PermutationDescriptor(V4, (h,)))
print("k(E/H) matrices:")
for a in tagged.module.action:
    print(a.a.tolist())

# The Mackey rule: k(E/H) (x) k(E/K) = [E : H+K] copies of k(E/(H^K)).
k = Subgroup(V4, [[1, 0]])
print("H (x) K ->", mackey_tensor(h, k))  # transverse hyperplanes give kE

# The rule is verified, not assumed: recognizing the realized tensor in
# its product coset basis returns exactly the predicted multiset.
product = tensor(realize(PermutationDescriptor(V4, (h,))).module,
                 realize(PermutationDescriptor(V4, (k,))).module)
print("recognized:", recognize(product).descriptor)

# Descriptors multiply multiset-bilinearly.
d = PermutationDescriptor(V4, (h, Subgroup.full(V4)))
print("d (x) d =", tensor_descriptor(d, d))
