"""Independent brute-force oracles for the test suite.

Nothing here shares a code path with the library pipeline: interior moments
come from genuine 2-D quadrature (radial rays over a star-shaped core plus a
conformal collar), exterior moments from a mapped Gauss-Legendre rule, and
orthonormalization from classical Gram-Schmidt on raw monomials, and the
disk kernel gap from exact rational arithmetic.  The Faber-basis Gram
oracle (gram_quadrature) reads the same Laurent series as the library but
integrates them by sampling: a trapezoidal rule in the angle times a
Gauss-Jacobi rule in the radius, instead of the library's exact mode sums.
Faber coefficients come from Fourier inversion of w^n / phi'(w)
(faber_oracle_coeffs) and orthonormal polynomials also from bordered
determinants (orthopoly_det).  The boundary-limit oracles (h_limit_mp,
kernel_sum_mp) evaluate the kernel formulas in mpmath at 50 correct digits,
and the disk radial law (radius_cdf_mp, radius_ppf_mp, annulus_density_mp)
is evaluated in mpmath from its closed form.  The inside test of the exterior-map
inversion is checked against the winding number of the boundary curve
(winding_number), a trapezoidal contour integral instead of a polynomial root.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from potens.geometry import ExteriorMap


def _interior_monomial_gram(emap: ExteriorMap, n_max: int, r0: float,
                            n_rad: int = 64, n_ang: int = 512) -> np.ndarray:
    theta = 2 * np.pi * np.arange(n_ang) / n_ang
    tau = np.exp(1j * theta)
    xg, wg = roots_legendre(n_rad)

    # conformal collar r0 <= |w| <= 1
    r = 0.5 * (1 - r0) * xg + 0.5 * (1 + r0)
    wr = 0.5 * (1 - r0) * wg
    wgrid = r[:, None] * tau[None, :]
    z_collar = emap._phi_raw(wgrid)
    jac_collar = np.abs(emap._phi_prime_raw(wgrid)) ** 2 * r[:, None]
    u_collar = (wr[:, None] * np.full(n_ang, 2 * np.pi / n_ang)[None, :]) * jac_collar

    # star-shaped core bounded by phi(r0 e^{i theta})
    g = emap._phi_raw(r0 * tau)
    gp = emap._phi_prime_raw(r0 * tau) * 1j * r0 * tau
    raydens = np.imag(np.conj(g) * gp)
    assert np.all(raydens > 0), "core curve is not star-shaped about 0; lower r0"
    rho = 0.5 * (xg + 1)
    wrho = 0.5 * wg
    z_core = rho[:, None] * g[None, :]
    u_core = (wrho * rho)[:, None] * raydens[None, :] * (2 * np.pi / n_ang)

    z = np.concatenate([z_collar.ravel(), z_core.ravel()])
    u = np.concatenate([u_collar.ravel(), u_core.ravel()])
    powers = np.vander(z, n_max + 1, increasing=True).T  # [j, pt]
    return (powers * u) @ np.conj(powers.T)  # [j, k] = <z^j, z^k>_D


def _exterior_monomial_gram(emap: ExteriorMap, n_max: int, s: float,
                            n_rad: int = 160, n_ang: int = 512) -> np.ndarray:
    if not np.isfinite(s):
        return np.zeros((n_max + 1, n_max + 1), dtype=complex)
    theta = 2 * np.pi * np.arange(n_ang) / n_ang
    tau = np.exp(1j * theta)
    xg, wg = roots_legendre(n_rad)
    v = 0.5 * (xg + 1)          # v = 1/r on (0, 1)
    wv = 0.5 * wg
    gram = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for vi, wi in zip(v, wv):
        w = tau / vi
        z = emap._phi_raw(w)
        jac = np.abs(emap._phi_prime_raw(w)) ** 2
        u = wi * vi ** (2 * s - 3) * jac * (2 * np.pi / n_ang)
        powers = np.vander(z, n_max + 1, increasing=True).T
        gram += (powers * u) @ np.conj(powers.T)
    return gram


def monomial_gram(emap: ExteriorMap, n_max: int, s: float, r0: float = 0.8) -> np.ndarray:
    """<z^j, z^k> under the equilibrium weight, by 2-D quadrature."""
    return (_interior_monomial_gram(emap, n_max, r0)
            + _exterior_monomial_gram(emap, n_max, s))


def gram_schmidt_polys(gram: np.ndarray) -> np.ndarray:
    """Rows are orthonormal-polynomial coefficients (ascending monomials),
    built by modified Gram-Schmidt with positive leading coefficients."""
    n = gram.shape[0]

    def inner(u, vv):
        return np.dot(u @ gram, np.conj(vv))

    rows = []
    for k in range(n):
        vec = np.zeros(n, dtype=complex)
        vec[k] = 1.0
        for prev in rows:
            vec = vec - inner(vec, prev) * prev
        nrm = np.sqrt(inner(vec, vec).real)
        vec = vec / nrm
        phase = vec[k] / abs(vec[k])
        rows.append(vec / phase)
    return np.vstack(rows)


def faber_oracle_coeffs(emap: ExteriorMap, n: int, n_nodes: int = 1024, radius: float = 2.0) -> np.ndarray:
    """Independent brute-force coefficients of F_n.

    Expands w^n / phi'(w) on |w| = radius by trapezoidal Fourier inversion and
    solves for the combination of powers of phi matching all nonnegative
    Laurent powers of w.  The negative-power mismatch is exactly the
    remainder term, which never enters the solve.
    """
    theta = 2 * np.pi * np.arange(n_nodes) / n_nodes
    w = radius * np.exp(1j * theta)
    g = w ** n / emap._phi_prime_raw(w)
    hat = np.fft.fft(g) / n_nodes
    # Laurent coefficient of w^p with |p| < n_nodes/2
    lau = np.array([hat[p % n_nodes] * radius ** (-p) for p in range(n + 1)])

    m = emap.tail_length
    # coefficient table of phi^j, exact polynomial algebra in w
    powmat = np.zeros((n + 1, n + 1), dtype=complex)  # [p, j]
    phi_ser = {1: complex(emap.cap), 0: complex(emap.laurent_coeffs[0])}
    for k in range(1, m + 1):
        phi_ser[-k] = complex(emap.laurent_coeffs[k])
    cur = {0: 1.0 + 0j}
    for j in range(n + 1):
        for p, v in cur.items():
            if 0 <= p <= n:
                powmat[p, j] = v
        nxt = {}
        for p, v in cur.items():
            for dq, cv in phi_ser.items():
                nxt[p + dq] = nxt.get(p + dq, 0) + v * cv
        cur = nxt
    return np.linalg.solve(powmat, lau)


def orthopoly_det(mom, n: int) -> np.ndarray:
    """Monomial coefficients of pi_n by the bordered-determinant construction.

    Numerically inferior to the library's Cholesky route but algebraically
    independent of it.
    """
    m = mom.entries
    d_prev = 1.0 if n == 0 else np.linalg.det(m[:n, :n]).real
    d_cur = np.linalg.det(m[: n + 1, : n + 1]).real
    scale = 1.0 / math.sqrt(d_prev * d_cur)
    out = np.zeros(n + 1, dtype=complex)
    rows = m[:n, : n + 1]
    for j in range(n + 1):
        minor = np.delete(rows, j, axis=1)
        cof = (-1) ** (n + j) * (np.linalg.det(minor) if n else 1.0)
        out[: j + 1] += scale * cof * mom.basis.mono[j]
    return out


def remainder_product_integral(basis, j: int, k: int, s: float,
                               n_rad: int = 128, n_ang: int = 512) -> complex:
    """int_O E_j conj(E_k) (1 - |Phi|^{-2s}) dA by direct quadrature.

    Uses only the remainder Laurent tails (whose product is smooth and
    O(r^-4)); substitution v = 1/r makes the radial integrand polynomial-like.
    """
    xg, wg = roots_legendre(n_rad)
    v = 0.5 * (xg + 1)
    wv = 0.5 * wg
    theta = 2 * np.pi * np.arange(n_ang) / n_ang
    tau = np.exp(1j * theta)
    tj = basis.remainder_series(j)
    tk = basis.remainder_series(k)
    total = 0.0 + 0j
    for vi, wi in zip(v, wv):
        w = tau / vi
        ej = basis.eval_series(tj, w)
        ek = basis.eval_series(tk, w)
        ang = np.mean(ej * np.conj(ek))
        total += wi * ang * (1.0 - vi ** (2 * s)) / vi ** 3
    return 2 * np.pi * total


def disk_kernel_gap(n: int, s, r2) -> float:
    """K_D(z,z) - K_{n,s}(z,z) on the unit disk at |z|^2 = r2, exactly.

    Under |z|^{-2s} outside the disk, ||z^k||^2 = pi/(k+1) + pi/(s-k-1), so
    pi K_{n,s}(z,z) = sum_{k<n} (k+1)(1 - (k+1)/s) x^k with x = r2, while
    pi K_D(z,z) = 1/(1-x)^2 = sum_{k>=0} (k+1) x^k. The difference is the
    tail sum_{k>=n} (k+1) x^k = x^n (n+1-n x)/(1-x)^2 plus the 1/s term
    (1/s) sum_{k<n} (k+1)^2 x^k. Both are summed in Fraction (floats are
    converted exactly); only the final division by pi rounds.
    """
    x = Fraction(r2)
    tail = x ** n * (n + 1 - n * x) / (1 - x) ** 2
    head = sum((k + 1) ** 2 * x ** k for k in range(n)) / Fraction(s)
    return float(tail + head) / math.pi


def _default_angular_nodes(n_max: int, tail: int) -> int:
    need = 2 * ((n_max + 3) * (tail + 1) + 8)
    return max(256, 1 << int(math.ceil(math.log2(need))))


def _default_radial_nodes(n_max: int, tail: int) -> int:
    return (n_max + (n_max + 1) * tail) // 2 + 6


def _circle_values(series: np.ndarray, offset: int, n_theta: int, radial=None) -> np.ndarray:
    """Rows of a Laurent table (power p at column p + offset), each column
    scaled by radial[col], sampled at the n_theta-th roots of unity via FFT."""
    n_series, width = series.shape
    scaled = series if radial is None else series * radial
    spec = np.zeros((n_series, n_theta), dtype=complex)
    np.add.at(spec.T, np.mod(np.arange(width) - offset, n_theta), scaled.T)
    return n_theta * np.fft.ifft(spec, axis=1)


def interior_quadrature(basis, n_ang: int | None = None) -> np.ndarray:
    """int_D F_j conj(F_k) dA by the Cauchy-Green contour integral
    (1/2i) oint F_j conj(G_k) dz, trapezoidal in the boundary angle."""
    n_max = basis.n_max
    m = _default_angular_nodes(n_max, basis.map.tail_length) if n_ang is None else n_ang
    tau = np.exp(2j * np.pi * np.arange(m) / m)
    outer = _circle_values(basis.outer_series_all(), basis.offset, m)
    anti = np.stack([basis.antiderivative_series(k) for k in range(n_max + 1)])
    anti_v = _circle_values(anti, basis.offset, m)
    return (np.pi / m) * (np.conj(anti_v) @ (outer * tau).T)


def exterior_quadrature(basis, s: float, n_ang: int | None = None,
                        n_rad: int | None = None) -> np.ndarray:
    """int_O F_j conj(F_k) |Phi|^{-2s} dA in the w-plane: trapezoidal in the
    angle times Gauss-Jacobi in y = r^-2 with weight y^(s - n_max - 2)."""
    n_max = basis.n_max
    if not np.isfinite(s):
        return np.zeros((n_max + 1, n_max + 1), dtype=complex)
    tail = basis.map.tail_length
    m = _default_angular_nodes(n_max, tail) if n_ang is None else n_ang
    nr = _default_radial_nodes(n_max, tail) if n_rad is None else n_rad
    beta = s - n_max - 2
    x, v = roots_jacobi(nr, 0.0, beta)
    y = 0.5 * (x + 1.0)
    w_rad = 0.5 * v * np.exp(-(beta + 1.0) * math.log(2.0))
    outer = basis.outer_series_all()
    powers = np.arange(outer.shape[1]) - basis.offset
    gram = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for yi, wi in zip(y, w_rad):
        # F_j(phi) phi' r^{-n_max} on |w| = r; the two r^{-n_max} factors of
        # a product reassemble the y^{n_max} the Jacobi weight left out
        radial = np.exp(-0.5 * math.log(yi) * (powers - n_max))
        vals = _circle_values(outer, basis.offset, m, radial)
        gram += (wi / m) * (np.conj(vals) @ vals.T)
    return 2.0 * np.pi * gram


def gram_quadrature(basis, s: float, n_ang: int | None = None,
                    n_rad: int | None = None) -> np.ndarray:
    """m[k, j] = <F_j, F_k> under P_K^{-2s} by the tensor quadrature above;
    the default node counts clear the bandwidth of finite Laurent maps."""
    return interior_quadrature(basis, n_ang) + exterior_quadrature(basis, s, n_ang, n_rad)


def h_limit_mp(ell, tau) -> complex:
    """H_ell(tau) from the closed forms of H_0 and H_1 in mpmath.

    At small |tau| the numerators cancel about 3 |log10 |tau|| digits (H_1
    starts at order tau^3), so 100 working digits keep at least 50 correct
    down to |tau| = 1e-16.
    """
    import mpmath

    with mpmath.workdps(100):
        t = mpmath.mpc(tau)
        l = mpmath.mpf(ell)
        e = mpmath.exp(t)
        h0 = 2 * (e * (t - 1) + 1) / t ** 2
        h1 = 6 * (e * (t - 2) + t + 2) / t ** 3
        return complex((3 - 3 * l) / (3 - 2 * l) * h0 + l / (3 - 2 * l) * h1)


def kernel_sum_mp(N: int, s, up) -> complex:
    """sum_{n<N} ((n+1) - (n+1)^2/s) up^n at 50 digits (s may be inf); up is
    converted exactly."""
    import mpmath

    with mpmath.workdps(50):
        x = mpmath.mpc(up)
        sinv = 0 if math.isinf(s) else 1 / mpmath.mpf(s)
        return complex(mpmath.fsum(((n + 1) - (n + 1) ** 2 * sinv) * x ** n for n in range(N)))


def winding_number(emap: ExteriorMap, z: complex, n_nodes: int = 512):
    """Winding of the boundary curve around z; 1 inside, 0 outside.

    The argument principle oint phi'(w) / (phi(w) - z) dw / (2 pi i) is
    summed by the trapezoidal rule on n_nodes and on 2 n_nodes points of
    |w| = 1.  Returns None, undecided, when z lies within 1e-8 (1+|z|) of a
    node or the two sums are not both within 1e-6 of the same integer,
    which is what happens near the curve.
    """
    sums = []
    for n in (n_nodes, 2 * n_nodes):
        tau = np.exp(2j * np.pi * np.arange(n) / n)
        vals = emap._phi_raw(tau)
        if np.min(np.abs(vals - z)) < 1e-8 * (1.0 + abs(z)):
            return None
        sums.append(np.mean(tau * emap._phi_prime_raw(tau) / (vals - z)))
    wind = round(sums[0].real)
    if any(abs(v - wind) > 1e-6 for v in sums):
        return None
    return int(wind)


def radius_cdf_mp(n: int, s, r):
    """P(R_n <= r) of the disk ensemble in mpmath (s may be inf); r is
    converted exactly and the result is an mpf in the caller's precision."""
    import mpmath

    r = mpmath.mpf(r)
    if r <= 1:
        inner = 1 if math.isinf(s) else (mpmath.mpf(s) - n - 1) / s
        return r ** (2 * n + 2) * inner
    if math.isinf(s):
        return mpmath.mpf(1)
    return 1 - mpmath.mpf(n + 1) / s * r ** (-2 * (mpmath.mpf(s) - n - 1))


def radius_ppf_mp(n: int, s, u):
    """Inverse of radius_cdf_mp for finite s, in mpmath; u is converted exactly."""
    import mpmath

    u, s = mpmath.mpf(u), mpmath.mpf(s)
    if u <= (s - n - 1) / s:
        return (u * s / (s - n - 1)) ** (mpmath.mpf(1) / (2 * n + 2))
    return ((n + 1) / s / (1 - u)) ** (1 / (2 * (s - n - 1)))


def annulus_density_mp(N: int, s, edges) -> list:
    """Mean one-point density of the disk ensemble on each annulus.

    The sum over n < N of P(lo <= R_n < hi) from radius_cdf_mp, divided by
    the area, at 100 digits: the exterior tail of s = 200 at r = 1.2 is
    1e-32 below 1, so at least 60 digits survive the subtraction.
    """
    import mpmath

    with mpmath.workdps(100):
        out = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            mass = mpmath.fsum(radius_cdf_mp(n, s, hi) - radius_cdf_mp(n, s, lo)
                               for n in range(N))
            out.append(float(mass / (mpmath.pi * (mpmath.mpf(hi) ** 2 - mpmath.mpf(lo) ** 2))))
        return out
