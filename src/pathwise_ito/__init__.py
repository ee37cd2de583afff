"""Pathwise functional Ito calculus on sampled paths.

Everything works on one deterministic data model: a path sampled on a
fixed time grid, a nested sequence of partitions refining toward that
grid, and non-anticipative functionals evaluated along stopped or
stepped versions of the path.  No probability enters anywhere; all
limits are along the partition sequence and every sum is evaluated in a
fixed order so results reproduce bit for bit.

The public names below are imported from their modules on first access
(PEP 562), so ``import pathwise_ito`` loads no module the caller does not use.
"""

import importlib

__version__ = "0.1.0"

_MODULE_OF = {
    name: module
    for module, names in {
        "functionals": (
            "Functional ProbeSchedule RegularityReport bv_coordinate compose "
            "constant_functional coordinate cylinder fd_horizontal fd_vertical "
            "fd_vertical2 probe_regularity product quadratic_variation_path "
            "running_max_path time_average_path"
        ),
        "ito": (
            "AdmissibleIntegrand AssocReport AugmentedSystem CorollaryReport "
            "FormulaReport IntegralResult QvIdentityReport "
            "associativity_check augment build_Y corollary_decomposition "
            "ito_formula_report ito_integral qv_of_Y_check"
        ),
        "pathgen": "GeneratorSpec generate",
        "paths": (
            "LINEAR STEP Box BVPath DomainError GridError HypothesisError "
            "PartitionSequence PathFormatError SampledPath concat_components load_bv_path "
            "load_sampled_path sup_distance path_to_csv_text positive_orthant "
            "pre_step stepped_approx stop write_path_csv"
        ),
        "qv": "QVMatrix qv_converged qv_matrix qv_measures qv_scalar",
        "stieltjes": (
            "StieltjesMeasure cumulative_stieltjes measures_with_clock stieltjes_integral"
        ),
    }.items()
    for name in names.split()
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
