"""Numerical laboratory for radial Kahler metrics on CP^n (n <= 3).

Computes determinantal partition functions, Bergman density expansions,
and the geometric functionals S_0/S_1/S_2, and verifies the identities
tying them together: two-route equality, cocycle laws, variation
formulas, localization invariants, and balanced-metric iteration.
"""

__version__ = "0.1.0"

from .errors import (
    ArtifactError,
    ConfigError,
    IllConditioned,
    NonPositiveMetric,
    NonPositiveNorm,
    NotConverged,
    PathLeavesCone,
    ResolutionTooLow,
    SpreadTooLarge,
    TailTooLarge,
    UnsupportedCoefficient,
)
from .geometry import (
    ProfilePotential,
    RadialKahlerMetric,
    RadialPotential,
    ScalarField,
    bergman_coefficient,
    build_metric,
    characteristic_coefficients,
    coefficient_average,
    half_laplacian,
    scalar_curvature,
)
from .quadrature import RadialQuadrature, radial_rule, required_order
from .bergman import (
    BergmanDensity,
    GramData,
    bergman_density,
    dim_h0,
    gram,
    log_partition_ratio,
)
from .functionals import (
    FunctionalLedger,
    S_j,
    cocycle_defect,
    first_variation,
    second_variation_S2,
    tilde_S_bc,
    tilde_S_path,
)
from .futaki import (
    VectorFieldData,
    covariant_endomorphism,
    hamiltonian_potential,
    invariant_lhs,
    invariant_rhs,
    lu_lemma_defect,
    metric_independence,
)
from .balanced import (
    BasisMetric,
    IterationTrace,
    balance_defect,
    fs_map_profile,
    hilb_map,
    liouville_approx_SLk,
    t_iteration,
)
from .fitting import FitResult, fit_expansion
from .harness import (
    ExperimentConfig,
    RunManifest,
    VerifyReport,
    run_experiment,
    run_fit,
    verify_suite,
)
