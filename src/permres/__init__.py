"""permres: certified finite permutation-module resolutions.

For a module M over an elementary abelian p-group E = (C_p)^r and any
m >= 0, build a finite resolution of M by permutation modules that is
free up to degree m, and certify every output independently: exactness
by exact homology ranks, permutation structure by basis recognition,
freeness by descriptor inspection.  All arithmetic is exact over F_p.
"""

from .config import set_caps
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
    Cover,
    DirectSum,
    IsoProbe,
    Module,
    ModuleMap,
    ShortExactSequence,
    StripResult,
    check_module_map,
    check_ses,
    composition_series,
    direct_sum,
    dual,
    free_module,
    free_rank,
    hom_space,
    identity_map,
    iso_probe,
    kernel,
    module_closure,
    norm_matrix,
    omega,
    omega_iter,
    projective_cover,
    quotient,
    radical,
    radical_series,
    ses_from_flag,
    strip_free,
    submodule,
    tensor,
    trivial_module,
    validate_module,
    zero_map,
)
from .permutation import (
    PermutationDescriptor,
    TaggedModule,
    mackey_tensor,
    realize,
    recognize,
    tensor_descriptor,
)
from .complexes import (
    ChainMap,
    Complex,
    certify_resolution,
    check_chain_map,
    cone,
    direct_sum_complexes,
    euler_characteristic,
    free_up_to,
    homology_dims,
    is_resolution,
    lift_chain_map,
    single_term_complex,
    syzygy,
    tag_complex,
    tensor_complexes,
    truncate,
)
from .resolution import (
    GoodResolution,
    good_resolution,
    periodic_complex,
    rotate,
    splice,
    trim,
    trivial_resolution,
)
from .random_modules import random_module

__version__ = "0.1.0"
