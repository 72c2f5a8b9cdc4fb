"""Determinantal statistics: correlations, gap probabilities, disk sampling.

Correlation functions are determinants of the weighted kernel.  Gap
probabilities use the finite-rank structure: with quadrature nodes x_p and
weights u_p on the region, the alternating series of correlation integrals
telescopes into the characteristic polynomial of the N x N matrix

    Lambda[n, m] = sum_p u_p psi_n(x_p) conj(psi_m(x_p)),
    psi_n = pi_n * P_K^{-s},

whose eigenvalues lambda give the n-th term as the elementary symmetric
function (-1)^n e_n(lambda) and the full sum as prod (1 - lambda).  The series
terminates exactly at order N because the kernel has rank N.

For the disk the ensemble is rotation invariant and the moduli of the points
are independent, radius n having density proportional to
r^(2n+1) max(1, r)^(-2s).  Normalizing gives the sampling law

    P(R_n <= r) = r^(2n+2) (s-n-1)/s            for r <= 1,
    P(R_n <= r) = 1 - ((n+1)/s) r^(-2(s-n-1))   for r > 1,

which is inverted in closed form.  Randomness comes from counter-based
streams: radius/angle pair n of configuration c reads the Philox stream with
counter block [0, 0, n, 0] at positions (2c, 2c+1), so any configuration can
be regenerated independently and results are reproducible under parallel
generation.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .geometry import ExteriorMap, disk_map
from .kernels import _check_order, weight_at, weighted_limit
from .orthopoly import OrthoPolySet


@dataclass(frozen=True)
class DiskRegion:
    center: complex
    radius: float


@dataclass(frozen=True)
class GapResult:
    """Gap probability with its Fredholm-series diagnostics.

    ``terms[n]`` is the n-th alternating term (-1)^n e_n; ``value`` is the
    eigenproduct prod(1 - lambda) and ``series_sum`` the truncated sum of the
    terms.  The terms can exceed the value by many orders and cancel in the
    sum, so |series_sum - value| is of order eps * max|terms|, not of order
    eps * value: the sum is a relative cross-check only where no term is
    much larger than the value.
    """

    value: float
    series_sum: float
    terms: np.ndarray
    nodes: tuple  # (radii, angles) of the finest pass; (0, 0) when no pass ran


@dataclass(frozen=True)
class RadialHistogram:
    bin_lo: np.ndarray
    bin_hi: np.ndarray
    density: np.ndarray
    stderr: np.ndarray
    n_configs: int


def corr_fn(polys: OrthoPolySet, N: int, points) -> float:
    """n-point correlation det[K~(x_i, x_j)]; nonnegative up to rounding."""
    pts = np.asarray(points, dtype=complex).ravel()
    n = len(pts)
    _check_order(polys, N)
    if n > N:
        warnings.warn(f"correlation order {n} exceeds kernel rank {N}; value is 0 to rounding")
    psi = polys.eval_all(pts, N - 1) * weight_at(polys.map, polys.s, pts)
    mat = psi.T @ psi.conj()  # mat[i, j] = weighted_kernel(z_i, z_j)
    if n == 1:
        return float(mat[0, 0].real)
    return float(np.linalg.det(mat).real)


# -- scaling-limit correlations ---------------------------------------------------

def sine_corr(a: complex, b: complex) -> float:
    """Two-point correlation of the sine-kernel line ensemble (spacing 2 pi)."""
    d = a - b
    if d == 0:
        return 0.0
    s = 2.0 * np.sin(d / 2.0) / d
    return float(1.0 - s * s)


def scaled_corr(ell: float, points, emap: ExteriorMap = disk_map(),
                theta: float = 0.0) -> float:
    """Scaled n-point correlation det[H~(a_i, a_j)] of boundary offsets, with
    H~ = kernels.weighted_limit; defaults to the disk at z = 1, where
    tau(a, 1) = a."""
    pts = np.asarray(points, dtype=complex).ravel()
    n = len(pts)
    mat = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            mat[i, j] = weighted_limit(emap, theta, pts[i], pts[j], ell)
    if n == 1:
        return float(mat[0, 0].real)
    return float(np.linalg.det(mat).real)


def r1_limit(ell: float, a: complex, emap: ExteriorMap = disk_map(), theta: float = 0.0) -> float:
    return scaled_corr(ell, [a], emap, theta)


def r2_limit(ell: float, a: complex, b: complex, emap: ExteriorMap = disk_map(),
             theta: float = 0.0) -> float:
    return scaled_corr(ell, [a, b], emap, theta)


# -- work slices ---------------------------------------------------------------------

def _spread(fill, count: int) -> None:
    """Run fill(lo, hi) on contiguous slices that cover range(count), one
    slice per usable CPU.

    Slice 0 runs on the calling thread and every other slice on a thread of
    its own; numpy releases the GIL in the heavy calls of each user.  Each
    slice runs in its own copy of the caller's context, so context variables
    such as np.errstate hold in every slice.  Once every thread has joined,
    the exception of the lowest-numbered failing slice is raised.  With one
    usable CPU, or count < 2, no thread is started.
    """
    # os.sched_getaffinity is missing on macOS and Windows
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    k = max(1, min(count, cpus or 1))
    bounds = [count * i // k for i in range(k + 1)]
    errors = [None] * k

    def run(i: int) -> None:
        try:
            fill(bounds[i], bounds[i + 1])
        except BaseException as exc:
            errors[i] = exc

    # a context can be entered by one thread at a time: one copy per slice
    threads = [threading.Thread(target=contextvars.copy_context().run, args=(run, i))
               for i in range(1, k)]
    for thread in threads:
        thread.start()
    contextvars.copy_context().run(run, 0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


# -- gap probabilities --------------------------------------------------------------

# rounding allowance above 1 for the eigenvalues of Lambda on the finest pass
_LAMBDA_TOL = 1e-12

# nodes per weight_at and eval_all call of the gap sweep: a slice holds the
# temporaries of one block, not an (N, nodes) table for its whole range
_GAP_BLOCK = 8192


def _legval(x: np.ndarray, c: list) -> np.ndarray:
    """sum_j c[j] P_j(x) by Clenshaw's recurrence, operation for operation
    numpy.polynomial.legendre.legval on a 1-D x, its length-1 case included."""
    nd = len(c)
    c0, c1 = (c[0], 0) if nd == 1 else (c[-2], c[-1])
    for i in range(3, len(c) + 1):
        tmp = c0
        nd = nd - 1
        c0 = c[-i] - c1 * ((nd - 1) / nd)
        c1 = tmp + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1], bit for bit
    numpy.polynomial.legendre.leggauss(n).

    The copy exists because the import costs more than the rule: on a 2-CPU
    host, importing numpy.polynomial takes a fresh interpreter 3-4 ms, and
    the rule 0.26 ms at n = 24 and 1.2 ms at n = 96.  The steps are numpy's
    (Golub and Welsch, Math. Comp. 23, 1969): the eigenvalues of the
    symmetric Jacobi matrix of legcompanion, of which eigvalsh reads only
    the lower triangle; one Newton step with P_n and P_n' summed as legval
    sums them, where the coefficients of P_n' are the exact integers 2j + 1
    for j = n - 1, n - 3, ... that legder gives; the weights
    1/(P_{n-1} P_n') with P_{n-1} at the corrected nodes and P_n' at the
    uncorrected ones, each scaled by its largest modulus, symmetrised and
    normalised to sum 2.
    """
    # legcompanion's 1 x 1 matrix holds -0.0; the symmetrised nodes do not see the sign
    mat = np.zeros((n, n))
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    mat.reshape(-1)[n::n + 1] = np.arange(1, n) * scl[:n - 1] * scl[1:n]
    x = np.linalg.eigvalsh(mat)
    c = [0.0] * n + [1.0]
    dc = [float(2 * j + 1) if (n - 1 - j) % 2 == 0 else 0.0 for j in range(n)]
    df = _legval(x, dc)
    x -= _legval(x, c) / df
    fm = _legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2. / w.sum()
    return x, w


def _region_nodes(region: DiskRegion, n_rad: int, n_ang: int):
    """Polar tensor nodes and area weights, shape (radii, n_ang) each: the
    n_rad-point Gauss-Legendre rule of _gauss_legendre in the radius, the
    n_ang-point trapezoid rule in the angle.  Radial panels split where the
    weight kernel loses smoothness (the unit circle, concentric case), so a
    split region has 2 n_rad radii."""
    xg, wg = _gauss_legendre(n_rad)
    panels = [(0.0, region.radius)]
    if abs(region.center) == 0.0 and region.radius > 1.0:
        panels = [(0.0, 1.0), (1.0, region.radius)]
    radii, wr = [], []
    for lo, hi in panels:
        radii.append(0.5 * (hi - lo) * xg + 0.5 * (hi + lo))
        wr.append(0.5 * (hi - lo) * wg)
    radii = np.concatenate(radii)
    wr = np.concatenate(wr)
    theta = 2.0 * np.pi * np.arange(n_ang) / n_ang
    pts = region.center + radii[:, None] * np.exp(1j * theta[None, :])
    u = (wr * radii)[:, None] * (2.0 * np.pi / n_ang) * np.ones_like(theta)[None, :]
    return pts, u


def _gap_tables(polys: OrthoPolySet, N: int, region: DiskRegion,
                n_rad: int, n_ang: int) -> tuple[list, tuple]:
    """The columns psi_n(x_p) sqrt(u_p) of the three refinement passes, one
    (N, nodes) table per pass, with the finest pass's node counts.

    One sweep covers the nodes of all passes: one slice per usable CPU over
    their concatenation, and each slice in blocks of at most _GAP_BLOCK nodes
    that never straddle two passes.  A block is inverted, evaluated straight
    into its pass's table and scaled there by w sqrt(u).  Every column
    is computed as it would be on its own, so no value depends on the CPU
    count or the block bound.
    """
    rules = [_region_nodes(region, n_rad * mult, n_ang * mult) for mult in (1, 2, 4)]
    pts = np.concatenate([p.ravel() for p, _ in rules])
    u = np.concatenate([w.ravel() for _, w in rules])
    tables = [np.empty((N, p.size), dtype=complex) for p, _ in rules]

    def fill(lo: int, hi: int) -> None:
        start = 0
        for table in tables:
            end = start + table.shape[1]
            for a in range(max(lo, start), min(hi, end), _GAP_BLOCK):
                b = min(a + _GAP_BLOCK, hi, end)
                # the weights come first: the inversion's temporaries are freed
                # before eval_all writes the block's values into the table
                wts = weight_at(polys.map, polys.s, pts[a:b])
                block = polys.eval_all(pts[a:b], N - 1, out=table[:, a - start:b - start])
                block *= wts * np.sqrt(u[a:b])
            start = end

    _spread(fill, pts.size)
    return tables, rules[-1][0].shape


def gap_probability(polys: OrthoPolySet, N: int, region: DiskRegion,
                    n_rad: int = 48, n_ang: int = 128) -> GapResult:
    """Probability that the region holds no points, by Fredholm truncation.

    Refines the quadrature twice; a non-monotone refinement pattern triggers
    a warning carrying both estimates.  The nodes of all three passes are
    evaluated in one threaded, blocked sweep (_gap_tables); then Lambda and
    its eigenvalues are formed pass by pass, coarsest first, and each pass's
    table is dropped once its Gram is formed.  Lambda is a compression of a
    projection, so its eigenvalues lie in [0, 1]; they are clipped at 0, and
    an eigenvalue of the finest pass above 1 + _LAMBDA_TOL raises
    ConvergenceError, with those eigenvalues as ``estimates``: the quadrature
    is too coarse for the order.  Coarser passes only feed the warning.  A
    region of radius 0 is empty (value 1); a negative radius, or an order N
    outside 1..n_max + 1 or above floor(s - 1), raises ValueError, and so
    does a node count n_rad or n_ang that is not an integer (numpy integers
    count, bools do not) of at least 1.  The radial rule is
    _gauss_legendre's, numpy's leggauss bit for bit.
    """
    _check_order(polys, N)
    # n_ang = 64.5 would give 65 angles weighted for 64.5, and n_rad = True one radius
    for name, count in (("n_rad", n_rad), ("n_ang", n_ang)):
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 1:
            raise ValueError(f"gap quadrature needs an integer node count {name} >= 1 "
                             f"(got {name}={count!r})")
    if not region.radius >= 0:
        raise ValueError(f"gap region radius must be >= 0 (got {region.radius!r})")
    if region.radius == 0:
        return GapResult(1.0, 1.0, np.array([1.0]), (0, 0))
    tables, shape = _gap_tables(polys, N, region, n_rad, n_ang)
    vals = []
    for i in range(len(tables)):
        psi, tables[i] = tables[i], None  # freed when psi moves to the next pass
        raw = np.linalg.eigvalsh(psi @ psi.conj().T)
        lam = np.clip(raw, 0.0, None)
        vals.append(float(np.prod(1.0 - lam)))
    over = raw[raw > 1.0 + _LAMBDA_TOL]
    if over.size:
        raise ConvergenceError(
            f"gap quadrature too coarse for N={N}: {over.size} eigenvalues of Lambda exceed 1, "
            f"the largest {float(over[-1])!r}, on the finest pass ({shape[0]} x {shape[1]} nodes)",
            estimates=over)
    d1, d2 = abs(vals[1] - vals[0]), abs(vals[2] - vals[1])
    if d2 > d1 and d2 > 1e-10:
        warnings.warn(
            f"gap quadrature refinement is not settling: estimates {vals[1]!r}, {vals[2]!r}")
    terms = np.poly(lam)  # terms[n] = (-1)^n e_n(lambda)
    series = float(np.sum(terms[: N + 1]))
    return GapResult(vals[2], series, terms[: N + 1], shape)


def gap_probability_radial_product(N: int, s: float, rho: float) -> float:
    """Disk-ensemble oracle: prod_n P(R_n > rho) from the radial law."""
    return float(np.prod([1.0 - radius_cdf(n, s, rho) for n in range(N)]))


# -- exact disk sampler ---------------------------------------------------------------

def radius_cdf(n: int, s: float, r: float) -> float:
    """P(R_n <= r) for s > n + 1; at s = inf R_n is supported on [0, 1]."""
    if not s > n + 1:
        raise ValueError(f"radius law needs s > n + 1 (got n={n}, s={s})")
    if r <= 0:
        return 0.0
    if r <= 1.0:
        return r ** (2 * n + 2) * ((s - n - 1) / s if math.isfinite(s) else 1.0)
    return 1.0 - (n + 1) / s * r ** (-2.0 * (s - n - 1))


def radius_ppf(n: int, s: float, u):
    """Inverse of radius_cdf for finite s > n + 1 and u in [0, 1); a float for
    scalar u, else an array.

    The inner branch is evaluated on every u; the outer one only on the u
    past the split P(R_n <= 1) = (s-n-1)/s, gathered by index and scattered
    back over the inner values.  On [0, 1) neither branch divides by zero or
    takes a power of a negative number.
    """
    if not (math.isfinite(s) and s > n + 1):
        raise ValueError(f"radius law needs finite s > n + 1 (got n={n}, s={s})")
    u = np.asarray(u, dtype=float)
    # min and max propagate NaN; the offending value is looked up only on failure
    if not (u.min(initial=0.0) >= 0.0 and u.max(initial=0.0) < 1.0):
        ok = (u >= 0.0) & (u < 1.0)
        raise ValueError(f"radius_ppf needs u in [0, 1) (got u={float(u[~ok][0])!r})")
    # the augmented operations run in place on arrays and rebind on the
    # scalars of a 0-d u; either way each branch rounds as the plain formula
    def outer(v):
        r = ((n + 1) / s) / (1.0 - v)
        r **= 1.0 / (2.0 * (s - n - 1))
        return r

    split = (s - n - 1) / s
    r = u * s
    r /= s - n - 1
    r **= 1.0 / (2 * n + 2)
    if r.ndim == 0:
        return float(outer(u) if u > split else r)
    far = np.flatnonzero(u > split)
    np.put(r, far, outer(np.take(u, far)))
    return r


def _stream(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, index, 0]))


def sample_disk_batch(N: int, s: float, seed: int, count: int) -> np.ndarray:
    """count independent configurations, shape (count, N) complex.

    Point index n is drawn from its own Philox stream, so the N streams are
    independent work: each fills row n of an (N, count) buffer in place, and
    the rows are split into one slice per usable CPU (numpy releases the GIL
    in the draws, the powers and the trigonometric functions).  The stream
    writes its 2 count uniforms straight into the row, so the radius uniform
    of configuration c sits in its real part and the angle uniform in its
    imaginary part; the radial law is inverted on all count radius uniforms
    at once, and the angles become cos and sin in place.  The values are
    those of r(u_re) * exp(2 pi i u_im).  The result is the transposed
    buffer, an F-ordered view; the values do not depend on the number of
    slices.  An exception raised while filling a row reaches the caller.
    Raises ValueError for negative N or count, s not finite or s <= N, and
    a seed that is not an integer (bool excluded) in [0, 2**128).
    """
    if N < 0 or count < 0:
        raise ValueError(f"sampler needs N >= 0 and count >= 0 (got N={N!r}, count={count!r})")
    if not (np.isfinite(s) and s > N):
        raise ValueError(f"sampler requires finite s > N (got s={s}, N={N})")
    # a float or bool seed would reach Philox truncated to an integer key
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or not 0 <= seed < 2 ** 128):
        raise ValueError(f"sampler seed must be an integer in [0, 2**128) (got seed={seed!r})")
    buf = np.empty((N, count), dtype=complex)

    def fill(lo: int, hi: int) -> None:
        for n in range(lo, hi):
            row = buf[n]
            # stream positions 2c and 2c + 1 land in the real and imaginary part of point c
            _stream(seed, n).random(out=row.view(float))
            r = radius_ppf(n, s, row.real)
            # exp(i theta) of glibc's cexp is (cos theta, sin theta) bit for bit
            row.imag *= 2.0 * np.pi
            np.cos(row.imag, out=row.real)
            np.sin(row.imag, out=row.imag)
            # two real products: numpy's complex multiply rounds differently in its
            # vector body and its scalar tail, so count would change the last bit
            row.real *= r
            row.imag *= r

    _spread(fill, N)
    return buf.T


# -- Monte Carlo estimators --------------------------------------------------------------

def empirical_r1(samples: np.ndarray, edges: np.ndarray) -> RadialHistogram:
    """Radial one-point density estimate with per-bin standard errors.

    ``samples`` holds configurations row-wise; the density is per unit area,
    so integrating it over the plane recovers the point count N.

    Bins by cumulative edge counts: ge[k, c] is the number of points of
    configuration c with |z| >= edges[k], built one point column at a time
    by a comparison against every edge, in the smallest unsigned dtype that
    holds N.  ge falls along the edges, so ge[k] - ge[k+1] counts bin k
    exactly; points below edges[0], at or beyond edges[-1], and NaN land in
    no bin.  With E edges the sweep makes E comparisons per point where a
    binary search makes log2 E.  Measured at count = 20000, N = 100 on two
    CPUs, the sweep is the faster up to about 130 edges (7.7 against 18 ms
    at 25 edges) and the slower from about 200 (87 against 68 ms at 401).
    """
    samples = np.atleast_2d(np.asarray(samples))
    count, N = samples.shape
    if count < 2:
        raise ValueError(f"empirical_r1 needs at least 2 configurations for a standard "
                         f"error (got {count})")
    edges = _checked_edges(edges)
    ge = np.zeros((edges.size, count), dtype=np.min_scalar_type(N))

    def fill(lo: int, hi: int) -> None:
        # a slice of configurations writes only its own columns of ge
        for column in samples[lo:hi].T:
            ge[:, lo:hi] += np.abs(column) >= edges[:, None]

    _spread(fill, count)
    # C-ordered (count, bins): on the transposed view std would sum each bin
    # along contiguous memory, pairwise, and round differently
    per_config = np.ascontiguousarray((ge[:-1] - ge[1:]).T)
    area = np.pi * (edges[1:] ** 2 - edges[:-1] ** 2)
    mean = per_config.mean(axis=0)
    stderr_counts = per_config.std(axis=0, ddof=1) / math.sqrt(count)
    return RadialHistogram(edges[:-1], edges[1:], mean / area, stderr_counts / area, count)


def _checked_edges(edges) -> np.ndarray:
    """edges as a 1-D float array of two or more finite radii, the first >= 0,
    strictly increasing: finite ends and rising steps keep every inner edge finite."""
    edges = np.asarray(edges, dtype=float)
    if not (edges.ndim == 1 and edges.size >= 2 and 0 <= edges[0] and edges[-1] < math.inf
            and np.all(np.diff(edges) > 0)):
        raise ValueError(f"bin edges must be two or more finite radii, the first >= 0, "
                         f"strictly increasing (got {edges!r})")
    return edges


def kernel_r1_binned(polys: OrthoPolySet, N: int, edges: np.ndarray) -> np.ndarray:
    """Mean of R_1 over each annulus edges[i] <= |z| < edges[i+1], per unit area.

    Exact for the disk, the one map whose weight is rotation invariant:
    there pi_j = kappa_j z^j, so the angular mean of R_1 is
    sum_{j<N} m_j r^(2j) with m_j = kappa_j^2, and the annulus mean is

        2 sum_j m_j int_lo^hi r^(2j+1) max(1, r)^(-2s) dr / (hi^2 - lo^2).

    Each bin is split at r = 1 into two power integrals; the exterior one
    vanishes at s = inf.  Raises ValueError for any map other than the disk.
    """
    if not polys.map.is_disk():
        raise ValueError("kernel_r1_binned needs the rotation-invariant disk weight")
    _check_order(polys, N)
    edges = _checked_edges(edges)
    lo, hi = edges[:-1, None], edges[1:, None]
    m = polys.kappas[:N] ** 2
    p = 2.0 * np.arange(N) + 2.0
    total = _power_integrals(p, np.minimum(lo, 1.0), np.minimum(hi, 1.0)) @ m
    if np.isfinite(polys.s):
        total += _power_integrals(p - 2.0 * polys.s, np.maximum(lo, 1.0), np.maximum(hi, 1.0)) @ m
    return 2.0 * total / ((hi - lo) * (hi + lo)).ravel()


def _power_integrals(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(b^p - a^p) / p for 0 <= a <= b and p != 0, shape (bins, powers).

    Taken as the larger endpoint term times -expm1(-|p| log(b/a)) / |p|, which
    keeps full relative accuracy in thin bins, where the plain difference
    b^p - a^p cancels (about 4e-14 on bins of width 5e-4 at r = 1).  At
    a = 0 the logarithm is infinite and the result is b^p / p.
    """
    top = np.where(p > 0, b ** p, a ** p)
    with np.errstate(divide="ignore"):
        log_ratio = np.log1p((b - a) / a)
    return -top * np.expm1(-np.abs(p) * log_ratio) / np.abs(p)
