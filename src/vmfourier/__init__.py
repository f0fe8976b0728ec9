"""Harmonic analysis for vector-measure-valued integration on finite groups.

The library builds small finite groups with validated unitary duals, equips
them with vector measures valued in concrete normed coefficient spaces, and
provides the Fourier transforms, convolution products and norm functionals of
that setting together with a deterministic verification harness.
"""

from .convolve import (
    conv_classical,
    conv_function_measure,
    conv_measure_sv,
    conv_measure_vs,
    conv_vector,
    conv_weak,
)
from .fourier import (
    FourierCoefficients,
    VectorFourierCoefficients,
    ft_classical,
    ft_inverse,
    ft_measure,
    ft_sup_norm,
    ft_vector,
    ft_weak,
    plancherel_check,
    uniqueness_rank,
)
from .groups import (
    DualValidationReport,
    FiniteGroup,
    UnitaryDual,
    UnitaryIrrep,
    build_group,
    builtin_group_specs,
    dump_dual_file,
    dump_group_file,
    load_dual_file,
    load_group_file,
    unitary_dual,
    validate_dual,
)
from .harness import (
    RunConfig,
    TheoremReport,
    emit_report,
    generate_fixture,
    load_config,
    run_suite,
    suite_names,
)
from .lpspaces import (
    MatrixFunction,
    N_norm,
    Pp_norm,
    ScalarFunction,
    VectorFunction,
    function_pushforward,
    lp_norm_haar,
    lp_nu_norm,
    pettis_integral,
    reflect,
)
from .measures import (
    GroupMap,
    InvarianceReport,
    VectorMeasure,
    check_semivariation_invariance,
    evaluate,
    integrate,
    measure_from_density,
    p_semivariation,
    pushforward,
    radon_nikodym,
    semivariation,
    variation,
)
from .spaces import (
    CoefficientSpace,
    LinfSpace,
    MatOpSpace,
    MatrixOverX,
    NormEstimate,
    ScalarSpace,
    WeightedL1Space,
    XVector,
    amplified_norm,
    dual_ball_sup,
    dual_norm,
    lp_dual_sup,
    norm,
    pair,
    space_from_spec,
)

__version__ = "0.1.0"
