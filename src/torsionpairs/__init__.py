"""Torsion pair calculus on linearly oriented A-type path algebras and tubes.

The library models the module categories combinatorially (intervals on a
path, uniserial modules on a cycle), implements the torsion pair calculus
over them, classifies the torsion pairs through part partitions of the
quiver, and cross-verifies everything against an exact-arithmetic matrix
oracle.

The names below are re-exported from their submodules, each imported on
first use (PEP 562), so `import torsionpairs` loads none of them.
"""

_EXPORTS = {
    "quiver": "BoundExceededError MalformedPartitionError PartPartition Quiver cyclic_an "
    "enumerate_partitions linear_an path_exists subquiver validate_partition",
    "intervals": "Interval LinearModel cogen_closure dim_vector ext_dim extension_closure "
    "gen_closure hom_dim indecomposables injectives model_for projectives quotients "
    "restrict_support submodules tau tau_inv",
    "tube": "TubeModel TubeModule TubeSubcatDescriptor all_tube_modules coray ext_dim_tube "
    "hom_dim_tube l_r_sets ray tau_inv_tube tau_tube truncate",
    "torsion": "CheckResult Filtration NTorsionPair TorsionPair TorsionPairSeries complete_defect "
    "decompose_along ext_injectives_in ext_projectives_in filtration interval_bijection_f "
    "interval_bijection_g is_ntp is_torsion_pair merge_parts ntp_to_series perp_left perp_right "
    "refine series_to_ntp torsion_submodule",
    "decompose": "DecompositionResult assemble count_torsion_pairs decompose_left decompose_right "
    "enumerate_torsion_pairs generators is_cotilting_induced is_tilting_induced "
    "iter_torsion_pairs residuals_agree tp_to_partition trace_ntp",
    "tubepairs": "CombinedTorsionPair TubeTorsionPair check_l_r combine_components count_tube_tps "
    "enumerate_tube_tps partition_to_tube_tp tube_membership tube_tp_to_partition",
    "oracle": "check_tube_tp_truncated enumerate_torsion_pairs_bruteforce euler_form "
    "ext_dim_matrix hom_dim_matrix",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

# the re-exported names; the submodules are left out
__all__ = sorted(_HOME)


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:  # a submodule not imported yet; importing binds it here
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
