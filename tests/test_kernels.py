import math

import numpy as np
import pytest

from potens.geometry import phi_eval
from potens.kernels import (
    _h0,
    _h1,
    bergman_kernel,
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
from potens.moments import moments
from potens.orthopoly import orthonormalize

from _bruteforce import h_limit_mp, kernel_sum_mp


@pytest.fixture(scope="module")
def disk_polys(disk):
    return {
        (0, 2.0): orthonormalize(moments(disk, 0, 2.0)),
        (2, np.inf): orthonormalize(moments(disk, 2, np.inf)),
        (0, 3.0): orthonormalize(moments(disk, 0, 3.0)),
        (9, 20.0): orthonormalize(moments(disk, 9, 20.0)),
    }


def test_kernel_sum_examples(disk_polys):
    assert kernel_sum(disk_polys[(0, 2.0)], 1, 0, 0) == pytest.approx(1 / (2 * math.pi))
    assert kernel_sum(disk_polys[(2, np.inf)], 3, 0.5, 0.2) == pytest.approx(1.23 / math.pi)
    val = kernel_sum(disk_polys[(9, 20.0)], 10, 0.3 + 0.1j, 0.3 + 0.1j)
    assert val.imag == pytest.approx(0.0, abs=1e-14)
    assert val.real >= abs(disk_polys[(9, 20.0)].eval(0, 0.3 + 0.1j)) ** 2


def test_kernel_order_validation(disk_polys):
    with pytest.raises(ValueError):
        kernel_sum(disk_polys[(9, 20.0)], 25, 0, 0)  # exceeds floor(s-1)
    with pytest.raises(ValueError):
        kernel_sum(disk_polys[(2, np.inf)], 5, 0, 0)  # exceeds available degrees


def test_weighted_kernel_examples(disk, disk_polys, ellipse_half):
    assert weighted_kernel(disk_polys[(0, 3.0)], 1, 2.0, 0.0) == pytest.approx(1 / (12 * math.pi))
    # inside K the weight is 1
    pe = orthonormalize(moments(ellipse_half, 3, 10.0))
    z = 0.3 + 0.1j
    assert weighted_kernel(pe, 4, z, z) == pytest.approx(kernel_sum(pe, 4, z, z).real)
    # s = inf: indicator weight kills outside points
    assert weighted_kernel(disk_polys[(2, np.inf)], 3, 1.5, 0.2) == 0.0
    assert weight_at(disk, np.inf, 0.5) == 1.0
    assert weight_at(disk, np.inf, 1.5) == 0.0


def test_diagonal_asymptotic_example(disk):
    val = boundary_diag_asymptotic(disk, 10, 20.0, 0.0)
    assert val == pytest.approx(35.75 / math.pi)


def test_disk_diagonal_asymptotic_is_exact(disk, disk_polys):
    # on the disk the boundary formula coincides with the finite sum
    exact = kernel_sum(disk_polys[(9, 20.0)], 10, 1.0, 1.0).real
    assert exact == pytest.approx(boundary_diag_asymptotic(disk, 10, 20.0, 0.0), rel=1e-13)


def test_kernel_asymptotic_vs_pipeline_and_conformal_transfer(disk, ellipse_half):
    from potens.geometry import phi_prime_eval
    wz, wu = 1.05 * np.exp(0.3j), 1.02 * np.exp(0.55j)
    for s in (20.0, np.inf):
        for N in (5, 10):
            # on the disk the N-term sum is the finite kernel itself, since
            # ||z^n||^2 = pi (1/(n+1) + 1/(s-n-1)) under |z|^{-2s} outside
            exact = kernel_sum(orthonormalize(moments(disk, N - 1, s)), N, wz, wu)
            val = kernel_asymptotic(disk, N, s, wz, wu)
            assert abs(val - exact) <= 1e-12 * abs(exact)
            # on the ellipse it is the disk sum at (Phi(z), Phi(u)) over
            # phi'(Phi(z)) conj(phi'(Phi(u)))
            z, u = phi_eval(ellipse_half, wz), phi_eval(ellipse_half, wu)
            val = (kernel_asymptotic(ellipse_half, N, s, z, u)
                   * phi_prime_eval(ellipse_half, wz) * np.conj(phi_prime_eval(ellipse_half, wu)))
            ref = kernel_asymptotic(disk, N, s, wz, wu)
            assert abs(val - ref) <= 1e-12 * abs(ref)


def test_kernel_asymptotic_next_to_diagonal(disk):
    # u-product within 1e-10 of 1: the sum has no 0/0 to resolve
    z = 1.0 + 0j
    u = (1.0 + 1e-10) + 0j
    val = kernel_asymptotic(disk, 10, 20.0, z, u)
    assert val.real == pytest.approx(boundary_diag_asymptotic(disk, 10, 20.0, 0.0), rel=1e-6)


def test_kernel_asymptotic_rejects_interior(disk):
    with pytest.raises(ValueError):
        kernel_asymptotic(disk, 5, 20.0, 0.2, 1.0)


@pytest.mark.parametrize("s", [100.0, np.inf])
def test_kernel_asymptotic_near_diagonal_sweep(disk, s):
    # |1 - up| from 1e-12 to 1, where a geometric closed form would divide by
    # (1 - up)^3; z = 1 makes up = conj(u) exact, and every direction keeps
    # |u| >= 1 so u stays on the closure of the exterior
    N = 50
    for g in np.logspace(-12, 0, 25):
        for alpha in np.linspace(0.5, 1.5, 5) * np.pi:
            u = np.conj(1.0 - g * np.exp(1j * alpha))
            val = kernel_asymptotic(disk, N, s, 1.0, u)
            ref = kernel_sum_mp(N, s, np.conj(u)) / math.pi
            assert abs(val - ref) <= 1e-14 * abs(ref), (g, alpha)


def test_boundary_asymptotics_vs_pipeline_on_ellipse(ellipse_half):
    # against the full pipeline kernel the closed boundary forms carry an
    # O(1) absolute error while the kernel itself grows like N^2
    rel_errs = []
    diag_errs = []
    for n in (20, 40, 80):
        s = 2.0 * n
        polys = orthonormalize(moments(ellipse_half, n - 1, s))
        wz = (1 + 0.7 / n) * np.exp(0.6j)
        wu = (1 + 0.3 / n) * np.exp(1j * (0.6 + 1.0 / n))
        z, u = phi_eval(ellipse_half, wz), phi_eval(ellipse_half, wu)
        exact = kernel_sum(polys, n, z, u)
        approx = kernel_asymptotic(ellipse_half, n, s, z, u)
        assert abs(exact - approx) < 1.0
        rel_errs.append(abs(exact - approx) / abs(exact))
        zb = complex(ellipse_half.boundary_point(0.6))
        diag = kernel_sum(polys, n, zb, zb).real
        diag_errs.append(abs(diag - boundary_diag_asymptotic(ellipse_half, n, s, 0.6)))
    assert rel_errs[0] > rel_errs[1] > rel_errs[2]
    assert all(e < 1.0 for e in diag_errs)


def test_diagonal_second_order_limit(disk, ellipse_half):
    # K(z,z)/N^2 approaches |Phi'(z)|^2 (3-2l)/(6 pi) when s ~ N/l
    from potens.geometry import phi_prime_eval
    for emap, theta in ((disk, 0.0), (ellipse_half, 0.7)):
        for ell, srule in ((0.5, lambda n: 2.0 * n), (0.0, lambda n: np.inf), (1.0, lambda n: float(n))):
            n = 2000
            val = boundary_diag_asymptotic(emap, n, srule(n), theta) / n ** 2
            jac = abs(1 / phi_prime_eval(emap, np.exp(1j * theta))) ** 2
            limit = jac / math.pi * (3 - 2 * ell) / 6
            assert val == pytest.approx(limit, rel=2e-3)


def test_bergman_disk(disk):
    assert bergman_kernel(disk, 0, 0) == pytest.approx(1 / math.pi)
    assert bergman_kernel(disk, 0.5, 0.5) == pytest.approx(16 / (9 * math.pi))
    with pytest.raises(ValueError):
        bergman_kernel(disk, 1.5, 0.0)


def test_bergman_series_stabilizes():
    from potens.geometry import ellipse_map
    emap = ellipse_map(0.3)
    v1 = bergman_kernel(emap, 0, 0, tol=1e-8)
    # doubling the degree changes nothing beyond tol
    polys = orthonormalize(moments(emap, 63, np.inf))
    v2 = kernel_sum(polys, 64, 0, 0)
    assert abs(v1 - v2) < 1e-8


def test_h_limit_values():
    assert h_limit(0.3, 0) == 1.0
    assert h_limit(0.0, 1.0) == pytest.approx(2.0)
    assert h_limit(1.0, 1.0) == pytest.approx(6 * (3 - math.e))
    for ell in np.linspace(0, 1, 11):
        wa = (3 - 3 * ell) / (3 - 2 * ell)
        wb = ell / (3 - 2 * ell)
        assert wa + wb == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        h_limit(1.5, 0.3)


def test_h_branch_agreement_at_crossover():
    # both sides of the |tau| = 1 switch between series and closed form
    for r in (1 - 1e-9, 1.0, 1 + 1e-9):
        for t in r * np.exp(2j * np.pi * np.arange(24) / 24):
            assert abs(_h0(t) - h_limit_mp(0.0, t)) <= 1e-14 * abs(h_limit_mp(0.0, t))
            assert abs(_h1(t) - h_limit_mp(1.0, t)) <= 1e-14 * abs(h_limit_mp(1.0, t))


def test_h_limit_sweep_against_mpmath():
    # |tau| = 10^(k/2), k = -28..4, which puts 1 and a point on each side of
    # the series/closed-form switch into the sweep
    directions = np.exp(2j * np.pi * np.arange(24) / 24)
    for ell in (0.0, 0.5, 1.0):
        for t in (m * d for m in np.logspace(-14, 2, 33) for d in directions):
            ref = h_limit_mp(ell, t)
            assert abs(h_limit(ell, t) - ref) <= 1e-14 * abs(ref), (ell, t)


def test_tau_and_omega(disk, ellipse_half):
    a = 0.3 - 0.7j
    assert tau_of(disk, a, 0.0) == pytest.approx(a)
    assert omega_of(disk, 1.0, 0.0, 1.0) == pytest.approx(math.exp(-1))
    assert omega_of(disk, -1.0 + 5j, 0.0, 0.5) == 1.0
    assert omega_of(disk, 1j, 0.0, 0.5) == 1.0  # Re tau = 0 -> no attenuation
    # general map: tau = a conj(w) / phi'(w)
    th = 0.8
    w = np.exp(1j * th)
    expect = a * np.conj(w) / (1 - 0.5 / w ** 2)
    assert tau_of(ellipse_half, a, th) == pytest.approx(expect)
    with pytest.raises(ValueError):
        omega_of(disk, 1.0, 0.0, 0.0)


def test_scaling_predictor_branches(disk):
    a, b = 0.3 + 0.2j, -0.1 + 0j
    assert scaling_predictor(disk, 0.0, a, b, 0.5) == pytest.approx(h_limit(0.5, a + np.conj(b)))
    # weighted, ell > 0
    pred = scaling_predictor(disk, 0.0, 0.5, 0.5, 0.5, weighted=True)
    assert pred == pytest.approx(math.exp(-2.0) * h_limit(0.5, 1.0))
    # weighted ell = 0 cases
    assert scaling_predictor(disk, 0.0, -0.5, -0.3, 0.0, weighted=True) == \
        pytest.approx(h_limit(0.0, -0.8))
    assert scaling_predictor(disk, 0.0, 0.5, -0.3, 0.0, weighted=True) == 0.0
    assert scaling_predictor(disk, 0.0, 1j, -0.3, 0.0, weighted=True) is None


def test_scaled_ratio_basics(disk):
    polys = orthonormalize(moments(disk, 49, 100.0))
    assert scaled_ratio(polys, 50, 0.0, 0, 0) == pytest.approx(1.0)
    r = scaled_ratio(polys, 50, 0.0, 0.3 + 0.2j, -0.1)
    pred = scaling_predictor(disk, 0.0, 0.3 + 0.2j, -0.1, 0.5)
    assert abs(r - pred) < 0.02


def test_scaled_ratio_general_map(ellipse_half):
    # boundary scaling at a non-circular point: O(1/N) convergence to the limit
    a, b = 0.25 + 0.15j, -0.2 + 0.05j
    theta = 0.9
    errs = []
    errs_w = []
    for n in (40, 80, 160):
        polys = orthonormalize(moments(ellipse_half, n - 1, 2.0 * n))
        errs.append(abs(scaled_ratio(polys, n, theta, a, b)
                        - scaling_predictor(ellipse_half, theta, a, b, 0.5)))
        errs_w.append(abs(scaled_ratio(polys, n, theta, a, b, weighted=True)
                          - scaling_predictor(ellipse_half, theta, a, b, 0.5, weighted=True)))
    assert errs[0] > errs[1] > errs[2]
    assert errs_w[0] > errs_w[1] > errs_w[2]
    assert errs[2] < 0.01 and errs_w[2] < 0.01


def test_reproducing_on_complex_map(custom_map):
    polys = orthonormalize(moments(custom_map, 9, 20.0))
    p = np.array([0.2, -0.1, 0.05j, 1.0, -0.3, 0.7])
    assert reproducing_check(polys, 10, p, 0.4 + 0.2j) <= 1e-10


def test_kernel_matrix_psd(disk, ellipse_half, custom_map, rng):
    for emap in (disk, ellipse_half, custom_map):
        polys = orthonormalize(moments(emap, 7, 18.0))
        pts = rng.uniform(-1.2, 1.2, size=(6, 2))
        zs = pts[:, 0] + 1j * pts[:, 1]
        mat = np.array([[weighted_kernel(polys, 8, zi, zj) for zj in zs] for zi in zs])
        assert np.max(np.abs(mat - mat.conj().T)) < 1e-12
        eig = np.linalg.eigvalsh(mat)
        assert eig.min() >= -1e-10 * max(1.0, np.trace(mat).real)


def test_kernel_monotone_in_n(disk):
    polys = orthonormalize(moments(disk, 9, 40.0))
    z = 0.7 + 0.1j
    vals = [kernel_sum(polys, n, z, z).real for n in (2, 4, 6, 10)]
    assert all(vals[i] <= vals[i + 1] for i in range(3))


def test_kernel_chain_on_disk(disk):
    # K_{N,s}(z,z) <= K_{N,inf}(z,z) <= K_D(z,z) inside the disk
    n = 10
    ps = orthonormalize(moments(disk, n - 1, 25.0))
    pinf = orthonormalize(moments(disk, n - 1, np.inf))
    for z in (0.0, 0.3 + 0.4j, 0.8, -0.5j):
        a = kernel_sum(ps, n, z, z).real
        b = kernel_sum(pinf, n, z, z).real
        c = bergman_kernel(disk, z, z).real
        assert a <= b + 1e-12
        assert b <= c + 1e-12


def test_kernel_limit_desk_scale(disk):
    # |K_D - K_{N,2N}| at a fixed interior point shrinks as N grows
    z = 0.5
    kd = bergman_kernel(disk, z, z).real
    diffs = []
    for n in (10, 20, 40):
        polys = orthonormalize(moments(disk, n - 1, 2.0 * n))
        diffs.append(abs(kd - kernel_sum(polys, n, z, z).real))
    assert diffs[2] < diffs[1] < diffs[0]


def test_kernel_eval_record(disk_polys, disk):
    from potens.kernels import ScalingParams, evaluate_kernel
    ev = evaluate_kernel(disk_polys[(9, 20.0)], 10, 0.3, 0.3)
    assert ev.value.imag == 0.0
    assert ev.value.real > 0
    assert (ev.N, ev.s, ev.weighted) == (10, 20.0, False)
    evw = evaluate_kernel(disk_polys[(9, 20.0)], 10, 1.5, 1.5, weighted=True)
    assert evw.weighted and evw.value.real < ev.value.real
    params = ScalingParams(0.5, 0.0, 0.3 + 0.2j, -0.1)
    assert params.predictor(disk) == scaling_predictor(disk, 0.0, 0.3 + 0.2j, -0.1, 0.5)
    ta, tb = params.tau_pair(disk)
    assert ta == pytest.approx(0.3 + 0.2j) and tb == pytest.approx(-0.1)


def test_christoffel_and_reproducing(ellipse_half, disk):
    from potens.geometry import ellipse_map
    e3 = ellipse_map(0.3)
    polys = orthonormalize(moments(e3, 9, 20.0))
    z = 0.4 + 0.2j
    trials = [np.array([1.0]), np.array([0.0, 1.0]), np.array([0.3, 0.1j, 1.0, 0.2])]
    report = christoffel_check(polys, 10, z, trials)
    assert report.all_bounded
    # the zeroth orthonormal polynomial achieves |pi_0(z)|^2
    r0 = report.ratios[0] * abs(polys.eval(0, z)) ** 2 / report.ratios[0]
    assert r0 <= report.k_diag
    # reproducing residual for a degree-5 polynomial
    p = np.array([0.2, -0.1, 0.05j, 1.0, -0.3, 0.7])
    assert reproducing_check(polys, 10, p, z) <= 1e-8
    # exact on the disk to rounding
    pd = orthonormalize(moments(disk, 9, 20.0))
    assert reproducing_check(pd, 10, p, 0.3 - 0.25j) <= 1e-12
