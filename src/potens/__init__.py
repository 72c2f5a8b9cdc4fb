"""Potential-theoretic planar orthogonal polynomials and their ensembles.

Pipeline: a domain is given by its exterior conformal map (geometry), the
Faber basis of the map is built by recurrence (faber), Gram matrices of the
equilibrium weight are finite sums of Laurent coefficients (moments), Cholesky
orthonormalization yields the polynomials and their leading coefficients
(orthopoly), reproducing kernels and their boundary scaling limits live in
kernels, and determinantal statistics (correlations, gap probabilities, the
exact disk sampler) in pointprocess.
"""

from .errors import ConvergenceError, NotCoveredError
from .geometry import (
    BOUNDARY_TOL,
    INSIDE,
    DomainSpec,
    ExteriorMap,
    big_phi_eval,
    capacity,
    disk_map,
    ellipse_map,
    equilibrium_potential,
    format_domain,
    level_line,
    parse_domain,
    phi_eval,
    phi_prime_eval,
)
from .faber import FaberBasis, FaberPolynomial, RemainderEval, faber_all, remainder_eval
from .moments import (
    EpsilonTable,
    MomentTable,
    epsilon_table,
    exterior_gram,
    interior_gram,
    moments,
)
from .orthopoly import (
    ClosedForm,
    OrthoPolySet,
    closed_form,
    delta_det,
    exterior_asymptotic,
    kappa_asymptotic,
    kappa_error_model,
    orthonormalize,
    sigma_model,
)
from .kernels import (
    KernelEval,
    ScalingParams,
    bergman_kernel,
    evaluate_kernel,
    boundary_diag_asymptotic,
    christoffel_check,
    h_limit,
    kernel_asymptotic,
    kernel_sum,
    omega_of,
    reproducing_check,
    scaled_ratio,
    scaling_predictor,
    tau_of,
    weight_at,
    weighted_kernel,
)
from .pointprocess import (
    DiskRegion,
    EigenConfiguration,
    GapResult,
    RadialHistogram,
    corr_fn,
    empirical_r1,
    expected_count_outside,
    export_configuration_csv,
    export_histogram_csv,
    gap_probability,
    gap_probability_radial_product,
    kernel_r1_binned,
    r1_limit,
    r2_limit,
    sample_disk,
    sample_disk_batch,
    scaled_corr,
    sine_corr,
)

__version__ = "0.1.0"
