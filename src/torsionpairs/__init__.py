"""Torsion pair calculus on linearly oriented A-type path algebras and tubes.

The library models the module categories combinatorially (intervals on a
path, uniserial modules on a cycle), implements the torsion pair calculus
over them, classifies the torsion pairs through part partitions of the
quiver, and cross-verifies everything against an exact-arithmetic matrix
oracle.
"""

from .quiver import (
    MalformedPartitionError,
    PartPartition,
    Quiver,
    cyclic_an,
    enumerate_partitions,
    linear_an,
    path_exists,
    subquiver,
    validate_partition,
)
from .intervals import (
    Interval,
    LinearModel,
    cogen_closure,
    dim_vector,
    ext_dim,
    extension_closure,
    gen_closure,
    hom_dim,
    indecomposables,
    injectives,
    model_for,
    projectives,
    quotients,
    restrict_support,
    submodules,
    tau,
    tau_inv,
)
from .tube import (
    TubeModel,
    TubeModule,
    TubeSubcatDescriptor,
    all_tube_modules,
    coray,
    ext_dim_tube,
    hom_dim_tube,
    l_r_sets,
    ray,
    tau_inv_tube,
    tau_tube,
    truncate,
)
from .torsion import (
    CheckResult,
    Filtration,
    NTorsionPair,
    TorsionPair,
    TorsionPairSeries,
    complete_defect,
    decompose_along,
    ext_injectives_in,
    ext_projectives_in,
    filtration,
    interval_bijection_f,
    interval_bijection_g,
    is_ntp,
    is_torsion_pair,
    merge_parts,
    ntp_to_series,
    perp_left,
    perp_right,
    refine,
    series_to_ntp,
    torsion_submodule,
)
from .decompose import (
    DecompositionResult,
    assemble,
    count_torsion_pairs,
    decompose_left,
    decompose_right,
    enumerate_torsion_pairs,
    generators,
    is_cotilting_induced,
    is_tilting_induced,
    iter_torsion_pairs,
    residuals_agree,
    tp_to_partition,
    trace_ntp,
)
from .tubepairs import (
    CombinedTorsionPair,
    TubeTorsionPair,
    check_l_r,
    combine_components,
    count_tube_tps,
    enumerate_tube_tps,
    partition_to_tube_tp,
    tube_membership,
    tube_tp_to_partition,
)
from .oracle import (
    BoundExceededError,
    check_tube_tp_truncated,
    enumerate_torsion_pairs_bruteforce,
    euler_form,
    ext_dim_matrix,
    hom_dim_matrix,
)

from types import ModuleType as _ModuleType

# the re-exported names; the submodules the imports bind are left out
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
