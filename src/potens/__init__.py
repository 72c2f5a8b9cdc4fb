"""Potential-theoretic planar orthogonal polynomials and their ensembles.

Pipeline: a domain is given by its exterior conformal map (geometry), the
Faber basis of the map is built by recurrence (faber), Gram matrices of the
equilibrium weight are finite sums of Laurent coefficients (moments), Cholesky
orthonormalization yields the polynomials and their leading coefficients
(orthopoly), reproducing kernels and their boundary scaling limits live in
kernels, and determinantal statistics (correlations, gap probabilities, the
exact disk sampler) in pointprocess.
"""

from .errors import ConvergenceError
from .geometry import (
    BOUNDARY_TOL,
    ExteriorMap,
    big_phi_eval,
    disk_map,
    ellipse_map,
    equilibrium_potential,
    level_line,
    parse_domain,
)
from .faber import FaberBasis
from .moments import (
    MomentTable,
    exterior_gram,
    interior_gram,
    moments,
)
from .orthopoly import (
    ClosedForm,
    OrthoPolySet,
    closed_form,
    kappa_asymptotic,
    orthonormalize,
)
from .kernels import (
    bergman_kernel,
    boundary_diag_asymptotic,
    h_limit,
    kernel_asymptotic,
    kernel_sum,
    omega_of,
    reproducing_check,
    scaled_ratio,
    scaled_ratios,
    scaling_predictor,
    tau_of,
    weight_at,
    weighted_kernel,
    weighted_limit,
)
from .pointprocess import (
    DiskRegion,
    GapResult,
    RadialHistogram,
    corr_fn,
    empirical_r1,
    gap_probability,
    gap_probability_radial_product,
    kernel_r1_binned,
    r1_limit,
    r2_limit,
    sample_disk_batch,
    scaled_corr,
    sine_corr,
)

__version__ = "0.1.0"
