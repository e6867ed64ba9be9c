"""permres: certified finite permutation-module resolutions.

For a module M over an elementary abelian p-group E = (C_p)^r and any
m >= 0, build a finite resolution of M by permutation modules that is
free up to degree m, and certify every output independently: exactness
by exact homology ranks, permutation structure by basis recognition,
freeness by descriptor inspection.  All arithmetic is exact over F_p.

The package root re-exports the names of the README's library tour and
the error classes; everything else is imported from its module.
"""

from .errors import (
    CapExceeded,
    DimensionMismatch,
    GroupMismatch,
    InternalError,
    LiftFailed,
    NotInjective,
    NotPermutationBasis,
    NotResolution,
    OddLength,
    PermresError,
    SelectionFailed,
)
from .linalg import Mat, nullspace, rank, rref, solve
from .groups import Group, Subgroup, all_subgroups
from .modules import (
    Module,
    ModuleMap,
    composition_series,
    dual,
    free_rank,
    hom_space,
    iso_probe,
    kernel,
    omega,
    projective_cover,
    quotient,
    radical,
    strip_free,
    tensor,
)
from .permutation import (
    PermutationDescriptor,
    mackey_tensor,
    realize,
    recognize,
    recognize_all,
    tensor_descriptor,
)
from .complexes import (
    Complex,
    certify_resolution,
    cone,
    homology_dims,
    lift_chain_map,
    tensor_complexes,
    truncate,
)
from .resolution import (
    good_resolution,
    periodic_complex,
    rotate,
    splice,
    trim,
    trivial_resolution,
)
from .random_modules import random_module

__version__ = "0.1.0"
