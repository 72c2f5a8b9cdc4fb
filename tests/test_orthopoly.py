import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potens.geometry import ExteriorMap, disk_map, ellipse_map
from potens.faber import FaberBasis
from potens.moments import head_degree, moments
from potens.orthopoly import _lower_inverse, closed_form, kappa_asymptotic, orthonormalize

from _bruteforce import (
    delta_det,
    epsilon_table,
    exterior_asymptotic,
    gram_quadrature,
    gram_schmidt_polys,
    kappa_delta_identity,
    mono_coeffs_explicit,
    monomial_gram,
    ortho_eval,
    orthonormalize_dense,
    orthopoly_det,
    remainder_series,
    summed_moments,
    with_dense_head,
)
from test_moments import _random_maps


def test_disk_examples(disk):
    polys = orthonormalize(moments(disk, 0, 2.0))
    assert polys.mono_coeffs[0, 0] == pytest.approx(math.sqrt(1 / (2 * math.pi)), abs=1e-14)
    polys = orthonormalize(moments(disk, 3, np.inf))
    assert polys.mono_coeffs[3, 3] == pytest.approx(math.sqrt(4 / math.pi), abs=1e-13)
    assert np.max(np.abs(polys.mono_coeffs[3, :3])) < 1e-13


def test_ellipse_kappa_example(ellipse_half):
    polys = orthonormalize(moments(ellipse_half, 1, 4.0))
    assert polys.kappas[1] == pytest.approx(0.5701600099565547, abs=1e-12)


def test_gram_identity(custom_map):
    mom = moments(custom_map, 8, 18.0)
    polys = orthonormalize(mom)
    c = polys.faber_coeffs
    resid = c @ np.conj(mom.entries) @ c.conj().T - np.eye(9)
    assert np.max(np.abs(resid)) < 1e-12


def test_block_inverse_matches_triangular_solve(rng):
    # n = 151 and 300 run the 2 x 2 block recursion past the 64-row leaves.
    # The ellipse's Faber Gram is diagonal, so the Cholesky factors of dense
    # well-conditioned Hermitian matrices are what exercise the off-diagonal block.
    import scipy.linalg

    mom = moments(ellipse_map(0.5), 150, 302.0)
    gram = np.conj(mom.entries)
    factors = [np.linalg.cholesky(gram)]
    for n in (151, 300):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        factors.append(np.linalg.cholesky(np.eye(n) + a @ a.conj().T / n))
    for low in factors:
        ref = scipy.linalg.solve_triangular(low, np.eye(len(low)), lower=True)
        inv = _lower_inverse(low)
        assert np.max(np.abs(inv - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.array_equal(inv, np.tril(inv))
    c = orthonormalize(mom).faber_coeffs
    assert np.max(np.abs(c @ gram @ c.conj().T - np.eye(151))) <= 1e-12


def test_orthonormality_under_requadrature(ellipse_half):
    mom = moments(ellipse_half, 8, 20.0)
    polys = orthonormalize(mom)
    # sampled Gram at twice the oracle's default node counts (256, 14)
    requad = gram_quadrature(mom.basis, 20.0, 512, 28)
    c = polys.faber_coeffs
    resid = c @ np.conj(requad) @ c.conj().T - np.eye(9)
    assert np.max(np.abs(resid)) <= 1e-9


def test_bordered_determinant_construction(disk, ellipse_half):
    m = moments(disk, 1, 4.0)
    coeffs = orthopoly_det(m, 1)
    assert np.allclose(coeffs, [0, math.sqrt(1 / math.pi)], atol=1e-12)
    m0 = moments(ellipse_half, 2, 10.0)
    assert orthopoly_det(m0, 0)[0] == pytest.approx(1 / math.sqrt(m0.entries[0, 0].real))
    chol = orthonormalize(m0)
    det2 = orthopoly_det(m0, 2)
    assert np.max(np.abs(det2 - chol.mono_coeffs[2, :3])) < 1e-8


def test_non_positive_definite_reports_index(ellipse_half):
    # the ellipse's table is its closed-form diagonal, every degree a pivot
    m = moments(ellipse_half, 3, 10.0)
    assert m.head_degree == 0 and m.tail.shape == (4,)
    bad = m.tail.copy()
    bad[2] = -1.0
    with pytest.raises(ValueError, match="index 2"):
        orthonormalize(dataclasses.replace(m, tail=bad))


def test_non_positive_definite_reports_index_on_the_dense_head(custom_map):
    # m = 2: the head is factored, and the pivot is found by its minors
    m = moments(custom_map, 5, 20.0)
    bad = m.head.copy()
    bad[3, 3] = -1.0
    with pytest.raises(ValueError, match="index 3"):
        orthonormalize(dataclasses.replace(m, head=bad))


def test_non_finite_moment_table_rejected(ellipse_half, custom_map):
    # np.linalg.cholesky turns a NaN entry into a NaN factor without raising,
    # and 1 / sqrt of a NaN pivot is NaN too, with no pivot <= 0
    ellipse, dense = moments(ellipse_half, 3, 10.0), moments(custom_map, 3, 10.0)
    for m, part, entry in ((ellipse, "tail", 1), (dense, "head", (1, 2))):
        bad = getattr(m, part).copy()
        bad[entry] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            orthonormalize(dataclasses.replace(m, **{part: bad}))


def test_kappa_asymptotic_values(disk, ellipse_half):
    assert kappa_asymptotic(0, 2.0, disk) == pytest.approx(math.sqrt(1 / (2 * math.pi)))
    cap2 = ExteriorMap(2.0, (0j,))
    assert kappa_asymptotic(1, np.inf, cap2) == pytest.approx(0.25 * math.sqrt(2 / math.pi))
    # closed-form relative error at n=10, s=20 is ~ q^22/2 scale
    polys = orthonormalize(moments(ellipse_half, 10, 20.0))
    rel = abs(polys.kappas[10] / kappa_asymptotic(10, 20.0, ellipse_half) - 1)
    assert rel <= 1e-6


@pytest.mark.parametrize("s", [math.nan, -math.inf])
def test_kappa_asymptotic_rejects_s_that_is_not_a_number_or_inf(ellipse_half, s):
    # nan used to give the s = inf value 1.1283791670955126 at n = 3
    with pytest.raises(ValueError, match=f"s={s}"):
        kappa_asymptotic(3, s, ellipse_half)


@pytest.mark.parametrize("s", [math.nan, -math.inf])
def test_closed_form_rejects_s_that_is_not_a_number_or_inf(ellipse_half, s):
    with pytest.raises(ValueError, match=f"s={s}"):
        closed_form(ellipse_half, 3, s)


def test_exterior_asymptotic(disk, ellipse_half):
    assert exterior_asymptotic(2, np.inf, disk, 2.0) == pytest.approx(math.sqrt(3 / math.pi) * 4)
    # ratio pi_n / prediction approaches 1 as n grows
    z = ellipse_half.phi(2.0)
    polys = orthonormalize(moments(ellipse_half, 12, 40.0))
    devs = []
    for n in (2, 6, 12):
        pred = exterior_asymptotic(n, 40.0, ellipse_half, z)
        devs.append(abs(complex(ortho_eval(polys, n, z)) / pred - 1))
    assert devs[2] < devs[1] < devs[0]
    assert devs[2] < 1e-6


def test_exterior_asymptotic_rate_is_geometric(ellipse_half):
    z = ellipse_half.phi(1.5)
    s = 60.0
    polys = orthonormalize(moments(ellipse_half, 16, s))
    devs = [abs(complex(ortho_eval(polys, n, z)) / exterior_asymptotic(n, s, ellipse_half, z) - 1)
            for n in range(4, 17)]
    slope = np.polyfit(np.arange(4, 17), np.log(devs), 1)[0]
    assert slope < math.log(0.95)  # geometric decay, not algebraic


def test_closed_form_disk_and_ellipse(disk, ellipse_half):
    cf = closed_form(disk, 3, 12.0)
    assert np.allclose(cf.coeffs, [0, 0, 0, math.sqrt(4 / math.pi * (1 - 4 / 12))])
    polys = orthonormalize(moments(ellipse_half, 6, 25.0))
    for n in range(7):
        cf = closed_form(ellipse_half, n, 25.0)
        assert np.max(np.abs(cf.coeffs - polys.mono_coeffs[n, : n + 1])) < 1e-12
    cfi = closed_form(ellipse_half, 2, np.inf)
    pe = orthonormalize(moments(ellipse_half, 2, np.inf))
    assert np.max(np.abs(cfi.coeffs - pe.mono_coeffs[2, :3])) < 1e-12


@pytest.mark.parametrize("q", [0.5, 0.9])
@pytest.mark.parametrize("s", [400.0, 1e4, np.inf])
def test_kappas_match_the_ellipse_closed_form_to_2_ulp(q, s):
    # head and tail alike take the leading coefficient of F_n as cap^-(n+1)
    emap = ellipse_map(q)
    kappas = orthonormalize(moments(emap, 200, s)).kappas
    want = np.array([closed_form(emap, n, s).coeffs[-1].real for n in range(201)])
    assert np.all(np.abs(kappas - want) <= 2 * np.spacing(want))


def test_delta_determinants(disk, ellipse_half):
    eps = epsilon_table(moments(disk, 4, 12.0))
    for n in range(5):
        assert delta_det(eps, n) == pytest.approx(1.0, abs=1e-12)
    eps = epsilon_table(moments(ellipse_half, 1, 3.0))
    assert delta_det(eps, 0) == pytest.approx(0.875, abs=1e-12)
    eps = epsilon_table(moments(ellipse_half, 10, 30.0))
    dets = [delta_det(eps, n) for n in range(11)]
    assert all(d > 0 for d in dets)
    assert all(dets[n] <= dets[n - 1] for n in range(1, 11))
    # ratio -> 1 geometrically
    ratios = [abs(dets[n] / dets[n - 1] - 1) for n in range(2, 11)]
    slope = np.polyfit(np.arange(2, 11), np.log(ratios), 1)[0]
    assert slope < math.log(0.5)


def test_kappa_delta_identity(ellipse_half, custom_map):
    for emap, s in ((ellipse_half, 12.0), (custom_map, 15.0)):
        mom = moments(emap, 5, s)
        for n in range(1, 6):
            lhs, rhs = kappa_delta_identity(mom, n)
            assert abs(lhs - rhs) <= 1e-8


def test_minimality_of_monic_norm(ellipse_half, rng):
    mom = moments(ellipse_half, 6, 16.0)
    polys = orthonormalize(mom)
    n = 6
    base = polys.faber_coeffs[n, : n + 1] / polys.kappas[n] * ellipse_half.cap ** (-(n + 1))
    # base is monic in the monomial sense: leading Faber coordinate cap^{n+1}
    min_norm = 1.0 / polys.kappas[n] ** 2
    for _ in range(20):
        pert = base.copy()
        pert[:n] += 0.5 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        val = float(np.real(np.conj(pert) @ mom.entries[: n + 1, : n + 1] @ pert))
        assert val >= min_norm - 1e-10


def test_scaled_disk_pipeline_is_exact():
    # phi(w) = 2w: predictions coincide with the pipeline to rounding
    emap = ExteriorMap(2.0, (0j,))
    polys = orthonormalize(moments(emap, 6, 20.0))
    for n in range(7):
        assert polys.kappas[n] == pytest.approx(kappa_asymptotic(n, 20.0, emap), rel=1e-13)


def test_kappa_monotone_in_s(disk):
    n = 4
    kappas = []
    for s in (25.0, 50.0, 100.0, np.inf):
        kappas.append(orthonormalize(moments(disk, n, s)).kappas[n])
    assert all(kappas[i] < kappas[i + 1] for i in range(3))


def test_pipeline_matches_monomial_gram_schmidt(custom_map, rng):
    # independent 2-D quadrature + Gram-Schmidt against the Faber pipeline
    s = 25.0
    n_max = 6
    polys = orthonormalize(moments(custom_map, n_max, s))
    gs = gram_schmidt_polys(monomial_gram(custom_map, n_max, s))
    pts = rng.uniform(-2, 2, size=(10, 2))
    zs = pts[:, 0] + 1j * pts[:, 1]
    for n in range(n_max + 1):
        mine = polys.eval_all(zs)[n]
        theirs = np.polyval(gs[n, : n + 1][::-1], zs)
        assert np.max(np.abs(mine - theirs) / np.maximum(1.0, np.abs(theirs))) < 1e-9


@settings(derandomize=True, deadline=None, max_examples=150)
@given(emap=_random_maps(), n=st.integers(1, 120), excess=st.floats(0.0, 40.0))
def test_tail_bound_covers_the_dropped_remainder_tails(emap, n, excess):
    # against the exact Faber series of every degree up to n - 1
    polys = orthonormalize(moments(emap, n - 1, n + 1 + excess))
    n0 = polys.head_degree
    if n0 == n or emap.tail_length <= 1:
        # the head is the whole table, or the tail is the closed-form diagonal
        assert polys.tail_bound == 0.0
        return
    basis = FaberBasis(emap, n - 1)
    tails = [np.max(np.abs(remainder_series(basis, k))) for k in range(n0, n)]
    assert max(tails) <= polys.tail_bound < 1e-17


def test_monomial_table_builds_no_laurent_tables():
    # mono_coeffs reads FaberBasis.mono of every degree; the composed
    # Laurent table, about 2001 x 4001 complex (128 MB), is not read and not
    # built.  Measured: 94 MiB peak, 123 MiB when the
    # recurrence kept every Ftilde row, 367 MiB with the Laurent tables.
    polys = orthonormalize(moments(ellipse_map(0.5), 1999, 4000.0))
    tracemalloc.start()
    try:
        polys.mono_coeffs
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 105 * 2 ** 20
    assert "_comp" not in vars(polys.basis)


def _checked(emap):
    emap.validate()
    return emap


@pytest.mark.parametrize("n_max", [10, 80, 300])
@pytest.mark.parametrize("emap", [
    disk_map(),
    ellipse_map(0.5),
    ellipse_map(0.9),
    _checked(ExteriorMap(1.0, (0j, 0.2, 0.1j))),
    _checked(ExteriorMap(1.3, (0.1, 0.3, 0, 0.05))),
], ids=["disk", "q=0.5", "q=0.9", "custom", "cap=1.3"])
def test_mono_coeffs_match_the_explicit_head_and_tail_bit_for_bit(emap, n_max):
    # heads of 11 rows span the whole set at n_max = 10; at 80 and 300 the
    # q = 0.5 (62), custom (54) and cap 1.3 (65) heads are cut short
    # on the disk and the ellipses the head rows are scaled, where the
    # explicit head is a matrix product; a structural zero can then come out
    # as +0 on one side and -0 on the other, so zeros compare by value
    polys = orthonormalize(moments(emap, n_max, 2.0 * n_max + 4))
    _assert_same_bits_but_the_sign_of_zero(polys.mono_coeffs, mono_coeffs_explicit(polys))


def _assert_same_bits_but_the_sign_of_zero(got: np.ndarray, want: np.ndarray) -> None:
    assert np.array_equal(got, want)
    nonzero = np.stack([want.real, want.imag], axis=-1) != 0
    assert np.array_equal(got.view(np.uint64).reshape(nonzero.shape)[nonzero],
                          want.view(np.uint64).reshape(nonzero.shape)[nonzero])


@pytest.mark.parametrize("n_upto", [-2, 10, 50])
def test_eval_all_rejects_rows_outside_the_set(ellipse_half, n_upto):
    polys = orthonormalize(moments(ellipse_half, 9, 40.0))
    with pytest.raises(ValueError, match=rf"n_upto={n_upto} outside \[-1, n_max=9\]"):
        polys.eval_all(0.3 + 0.1j, n_upto)
    assert polys.eval_all(np.array([0.3, 0.1j]), -1).shape == (0, 2)


def test_from_faber_maps_a_shared_table_block_in_place(ellipse_half):
    # rows past the set are refused; a column block of a longer Faber table
    # becomes pi_n in place, with the bits of the set's own evaluation
    polys = orthonormalize(moments(ellipse_half, 69, 140.0))  # head 0..61, tail 62..69
    z = np.array([0.1, 1.2 + 0.3j, -0.4j, 2.0, 0.5 - 0.5j])
    table = polys.basis.eval_all(z, 80)
    with pytest.raises(ValueError, match="n_upto=80 outside"):
        polys.from_faber(table.copy())
    block = table[:70, 1:4]
    assert polys.from_faber(block) is block
    want = polys.eval_all(z[1:4])
    assert np.array_equal(table[:70, 1:4].view(np.uint64), want.view(np.uint64))
    assert np.array_equal(table[:, [0, 4]], polys.basis.eval_all(z[[0, 4]], 80))


def _off_diagonal(gram: np.ndarray) -> np.ndarray:
    return gram - np.diag(np.diag(gram))


@pytest.mark.parametrize("emap,n_max", [
    (disk_map(), 50), (ellipse_map(0.5), 61), (ellipse_map(0.9), 433), (ellipse_map(0.97), 999),
], ids=["disk", "q=0.5", "q=0.9", "q=0.97"])
def test_head_gram_of_the_disk_and_ellipses_is_exactly_diagonal(emap, n_max):
    # each A_n = F_n(phi) phi' is w^n plus one negative power w^(-n-2), so
    # no two rows pair: the Gram summed from the Laurent tables (the whole
    # q = 0.5 and 0.9 heads of 62 and 434 rows, 1000 of the 1548 at
    # q = 0.97, and the disk to degree 50) has no off-diagonal entry, and
    # the moment table is that diagonal alone, a tail within rounding of the
    # sum, and pi_n = F_n / sqrt(m[n, n]) on every degree
    s = 2.0 * n_max + 4
    summed = summed_moments(emap, n_max, s).head
    assert np.count_nonzero(_off_diagonal(summed)) == 0
    mom = moments(emap, n_max, s)
    assert mom.head.shape == (0, 0) and mom.tail_bound == 0.0
    want = summed.diagonal().real
    assert np.all(np.abs(mom.tail - want) <= 8 * np.spacing(want))
    polys = orthonormalize(mom)
    assert polys.head_coeffs.shape == (0, 0)
    assert np.array_equal(polys.tail_scales, 1.0 / np.sqrt(mom.tail))


@st.composite
def _one_term_maps(draw):
    cap = draw(st.floats(0.5, 2.0))
    rho = draw(st.floats(0.0, 0.9))
    turn = draw(st.floats(0.0, 1.0))
    c0 = complex(draw(st.floats(-0.3, 0.3)), draw(st.floats(-0.3, 0.3))) * cap
    return ExteriorMap(cap, (c0, cap * rho * np.exp(2j * np.pi * turn)))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(emap=_one_term_maps(), excess=st.floats(0.0, 40.0))
def test_head_gram_off_diagonal_of_one_term_maps_is_rounding(emap, excess):
    # exactly 0 in exact arithmetic; with cap != 1 the recurrence's division
    # by cap leaves rounding, measured up to 0.47 (max(k, j) + 1) eps of
    # sqrt(m_kk m_jj) on 400 random maps (6.3e-15 at cap 1.99, rho 0.71, k 125)
    n = min(head_degree(emap)[0], 150)
    head = summed_moments(emap, n - 1, n + 1 + excess).head
    d = np.sqrt(head.diagonal().real)
    rank = np.maximum.outer(np.arange(n), np.arange(n)) + 1.0
    assert np.all(np.abs(_off_diagonal(head)) <= rank * np.finfo(float).eps * np.outer(d, d))
    if emap.cap == 1.0:
        assert np.count_nonzero(_off_diagonal(head)) == 0


_POINTS = np.array([0.1, 1.2 + 0.3j, -0.4j, 2.0, 0.5 - 0.5j, -1.9 + 0.05j, 0.3 + 1.1j])


@pytest.mark.parametrize("emap", [
    disk_map(), ellipse_map(0.5), ellipse_map(0.9), ExteriorMap(1.0, (0.2 - 0.1j, 0.4 + 0.3j)),
], ids=["disk", "q=0.5", "q=0.9", "rotated"])
@pytest.mark.parametrize("n_max,s", [(40, 90.0), (300, 700.0), (120, np.inf)])
def test_diagonal_head_matches_the_dense_factor_bit_for_bit_at_cap_1(emap, n_max, s):
    # the closed-form table's tail rows against the dense factor of the head
    # that the summed route held: its first n0 degrees (1 on the disk, 62
    # and 434 on the ellipses), cut at n_max + 1, as a diagonal matrix
    mom = moments(emap, n_max, s)
    size = min(int(head_degree(emap)[0]), n_max + 1)
    polys, dense = orthonormalize(mom), orthonormalize_dense(with_dense_head(mom, size))
    assert polys.head_degree == 0 and dense.head_coeffs.shape == (size, size)
    assert np.array_equal(polys.kappas.view(np.uint64), dense.kappas.view(np.uint64))
    got, want = polys.eval_all(_POINTS), dense.eval_all(_POINTS)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("emap", [
    ExteriorMap(1.3, (0.1, 0.5)), ExteriorMap(0.7, (0.05j, 0.3 - 0.2j)),
    ExteriorMap(1.99, (0j, 1.99 * 0.71)),
], ids=["cap=1.3", "cap=0.7", "cap=1.99"])
def test_diagonal_head_matches_the_dense_factor_to_rounding_off_cap_1(emap):
    # against the dense factor of the Gram summed from the Laurent tables
    polys = orthonormalize(moments(emap, 150, 400.0))
    assert polys.head_degree == 0
    dense = orthonormalize_dense(summed_moments(emap, 150, 400.0))
    assert np.max(np.abs(polys.kappas / dense.kappas - 1.0)) <= 1e-13
    got, want = polys.eval_all(_POINTS * emap.cap), dense.eval_all(_POINTS * emap.cap)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13


def test_maps_with_two_or_more_terms_keep_the_dense_factor(custom_map):
    mom = moments(custom_map, 80, 200.0)
    polys, dense = orthonormalize(mom), orthonormalize_dense(mom)
    assert polys.head_coeffs.shape == (mom.head_degree, mom.head_degree)
    assert np.array_equal(polys.head_coeffs, dense.head_coeffs)
    assert np.array_equal(polys.kappas, dense.kappas)
