import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from potens.faber import FaberBasis
from potens.geometry import ExteriorMap, big_phi_eval, disk_map, ellipse_map

from _bruteforce import (
    eval_series,
    faber_eval_joint,
    faber_eval_lists,
    faber_eval_mp,
    faber_oracle_coeffs,
    outer_series,
    remainder_product_integral,
    remainder_series,
)


def _remainder(basis, n, z):
    """(E_n(z), F_n(z), Phi^n(z) Phi'(z)) for z outside the boundary; E_n is
    the series tail remainder_series(n) at w = Phi(z), divided by phi'(w)."""
    w, inside = big_phi_eval(basis.map, z)
    assert not inside
    dphi = complex(basis.map.phi_prime(w))
    value = complex(eval_series(basis, remainder_series(basis, n), w)) / dphi
    return value, complex(basis.eval_all(z, n)[n]), w ** n / dphi


def test_disk_faber_are_monomials(disk):
    for n, mono in enumerate(FaberBasis(disk, 6).mono):
        expect = np.zeros(n + 1)
        expect[n] = 1.0
        assert np.allclose(mono, expect, atol=1e-14)


def test_ellipse_faber_are_monic_chebyshev(ellipse_half, ellipse_quarter):
    mono = FaberBasis(ellipse_half, 4).mono
    assert np.allclose(mono[1], [0, 1], atol=1e-14)
    assert np.allclose(mono[2], [-0.5, 0, 1], atol=1e-14)
    mono = FaberBasis(ellipse_quarter, 3).mono
    assert np.allclose(mono[3], [0, -0.5, 0, 1], atol=1e-14)


def test_recurrence_matches_chebyshev_recurrence(ellipse_half):
    # U_{k+1} = z U_k - q U_{k-1}
    mono = FaberBasis(ellipse_half, 10).mono
    for k in range(1, 10):
        lifted = np.zeros(k + 2, dtype=complex)
        lifted[1:] = mono[k]
        lifted[: k] -= 0.5 * mono[k - 1]
        assert np.allclose(mono[k + 1], lifted, atol=1e-13)


def test_leading_coefficient_invariant(custom_map):
    cap25 = ExteriorMap(2.5, (0.1, 0.05j))
    for emap in (custom_map, cap25):
        for n, mono in enumerate(FaberBasis(emap, 12).mono):
            lead = mono[-1]
            assert abs(lead - emap.cap ** (-(n + 1))) <= 1e-12 * emap.cap ** (-(n + 1))


def test_oracle_agrees_with_recurrence(disk, ellipse_half, ellipse_quarter, custom_map):
    for emap in (disk, ellipse_half, ellipse_quarter, custom_map):
        mono = FaberBasis(emap, 12).mono
        for n in range(13):
            oracle = faber_oracle_coeffs(emap, n)
            assert np.max(np.abs(oracle - mono[n])) < 1e-10


def test_oracle_examples(disk, ellipse_half):
    assert np.allclose(faber_oracle_coeffs(disk, 2), [0, 0, 1], atol=1e-12)
    assert np.allclose(faber_oracle_coeffs(ellipse_half, 2), [-0.5, 0, 1], atol=1e-12)


def test_remainder_zero_on_disk(disk):
    basis = FaberBasis(disk, 5)
    for n in range(6):
        value, faber_term, _ = _remainder(basis, n, 2.0)
        assert abs(value) < 1e-14
        assert faber_term == pytest.approx(2.0 ** n)


def test_remainder_example_ellipse(ellipse_half):
    basis = FaberBasis(ellipse_half, 3)
    value, faber_term, exterior_term = _remainder(basis, 0, 2.25)
    assert value == pytest.approx(1 - 1 / 0.875, abs=1e-12)
    assert faber_term == pytest.approx(1.0)
    assert exterior_term == pytest.approx(1 / 0.875)


def test_remainder_closed_form_ellipse(ellipse_half):
    # E_n = -q^{n+1} Phi^{-(n+2)} Phi' for the ellipse family
    q = 0.5
    basis = FaberBasis(ellipse_half, 8)
    for wtest in (2.0, 1.3 * np.exp(0.7j)):
        z = ellipse_half.phi(wtest)
        w, _ = big_phi_eval(ellipse_half, z)
        for n in range(9):
            expect = -(q ** (n + 1)) * w ** (-(n + 2)) / ellipse_half.phi_prime(w)
            got = _remainder(basis, n, z)[0]
            assert abs(got - expect) < 1e-12 * max(1.0, abs(expect))


def test_double_zero_at_infinity(ellipse_half, custom_map):
    for emap in (ellipse_half, custom_map):
        basis = FaberBasis(emap, 10)
        for n in range(11):
            e6 = _remainder(basis, n, 1e6)[0]
            e7 = _remainder(basis, n, 1e7)[0]
            assert np.isfinite(abs(e6) * 1e12)
            # |z^2 E_n| stays bounded: factor-100 radius scales E by ~1e-2
            if abs(e6) > 0:
                assert abs(e7) / abs(e6) < 1e-2 * 1.5


def test_boundary_l2_decay(ellipse_half, custom_map):
    # Parseval on the remainder tail: integral over T of |E_n(phi) phi'|^2
    for emap, rho_max in ((ellipse_half, np.sqrt(0.5)), (custom_map, 0.85)):
        basis = FaberBasis(emap, 14)
        norms = []
        for n in range(15):
            tail = remainder_series(basis, n)
            norms.append(2 * np.pi * float(np.sum(np.abs(tail) ** 2)))
        logs = np.log(norms[2:])
        slope = np.polyfit(np.arange(2, 15), logs, 1)[0]
        rho_fit = np.exp(slope / 2)
        assert rho_fit < 1.0
        assert rho_fit < rho_max + 0.05


def test_remainder_series_matches_subtraction(custom_map):
    # where the naive subtraction is stable, both routes agree
    basis = FaberBasis(custom_map, 6)
    z = 1.4 + 0.9j
    for n in range(7):
        value, faber_term, exterior_term = _remainder(basis, n, z)
        assert abs(value - (faber_term - exterior_term)) < 1e-11


def test_long_tail_map_oracle_agreement():
    emap = ExteriorMap(1.2, (0.1, 0.15, 0.05j, -0.04))
    emap.validate()
    mono = FaberBasis(emap, 10).mono
    for n in range(11):
        assert np.max(np.abs(faber_oracle_coeffs(emap, n) - mono[n])) < 1e-10


def test_composed_series_matches_monomials():
    emap = ExteriorMap(1.2, (0.1, 0.15, 0.05j, -0.04))
    basis = FaberBasis(emap, 8)
    w = 1.3 * np.exp(1j * 2 * np.pi * np.arange(16) / 16)
    z = emap.phi(w)
    for n in (0, 3, 8):
        via_series = eval_series(basis, outer_series(basis, n), w) / emap.phi_prime(w)
        via_mono = np.polyval(basis.mono[n][::-1], z)
        assert np.max(np.abs(via_series - via_mono)) < 1e-12


def test_signs_identity_machinery(ellipse_half):
    # the tail integral used by the moments sign-identity test is finite and
    # matches the ellipse closed form at n=0: E_0 E_0-bar integral
    basis = FaberBasis(ellipse_half, 6)
    val = remainder_product_integral(basis, 0, 0, 5.0)
    assert val.real > 0
    assert abs(val.imag) < 1e-12


# m = 0, 1, 1, 2, 3: the disk, two ellipses and two custom tails
EVAL_MAPS = {
    "disk": disk_map(),
    "ellipse_q05": ellipse_map(0.5),
    "ellipse_q09": ellipse_map(0.9),
    "custom_m2": ExteriorMap(1.0, (0j, 0.2, 0.1j)),
    "custom_m3": ExteriorMap(1.3, (0.1, 0.3, 0, 0.05)),
}


@pytest.mark.parametrize("name", sorted(EVAL_MAPS))
def test_eval_all_is_bit_identical_to_the_one_row_list_recurrence(name):
    # each degree is written in place, with the IEEE operations of the list
    # form in the same order, so the values agree bit for bit; written into
    # a strided column block of a larger table, they are the same bits, and
    # the rest of the table is untouched
    emap = EVAL_MAPS[name]
    basis = FaberBasis(emap, 12)
    rng = np.random.default_rng(7)
    for shape in ((5,), (300,), (7, 11)):
        z = rng.uniform(-2.0, 2.0, shape) + 1j * rng.uniform(-2.0, 2.0, shape)
        for n_upto in (0, 1, 2, 3, 4, 12, 120):
            got = basis.eval_all(z, n_upto)
            want = faber_eval_lists(emap, z, n_upto).view(np.uint64)
            assert got.shape == (n_upto + 1,) + shape
            assert np.array_equal(got.view(np.uint64), want), (shape, n_upto)
            table = np.full((n_upto + 1,) + shape[:-1] + (3 * shape[-1],), np.nan + 0j)
            block = table[..., shape[-1] : 2 * shape[-1]]
            assert basis.eval_all(z, n_upto, out=block) is block
            assert np.array_equal(block.view(np.uint64), want), (shape, n_upto)
            assert np.isnan(np.delete(table, np.s_[shape[-1] : 2 * shape[-1]], axis=-1)).all()


def test_eval_all_of_a_scalar_is_the_entry_of_a_one_point_array():
    emap = EVAL_MAPS["custom_m3"]
    basis = FaberBasis(emap, 12)
    z = 0.4 - 1.1j
    got = basis.eval_all(z, 60)
    assert got.shape == (61,)
    assert np.array_equal(got.view(np.uint64), basis.eval_all(np.array([z]), 60)[:, 0].view(np.uint64))
    assert np.array_equal(got.view(np.uint64), faber_eval_lists(emap, z, 60).view(np.uint64))


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
def test_eval_all_on_an_ellipse_is_the_chebyshev_recurrence_bit_for_bit(q):
    # cap = 1 and c_0 = 0: the row is U_0 = 1, U_1 = z, U_{k+1} = z U_k - q U_{k-1}
    rng = np.random.default_rng(3)
    z = rng.normal(size=200) + 1j * rng.normal(size=200)
    u = [np.ones_like(z), z]
    for k in range(1, 300):
        u.append(z * u[k] - q * u[k - 1])
    got = FaberBasis(ellipse_map(q), 4).eval_all(z, 300)
    assert np.array_equal(got.view(np.uint64), np.array(u).view(np.uint64))


# m = 0..3 with cap != 1 and c_0 != 0, and the q = 0.5 ellipse
ACCURACY_MAPS = {
    "m0_cap1.3": ExteriorMap(1.3, (0.1,)),
    "m1_cap1.3": ExteriorMap(1.3, (0.1, 0.3j)),
    "ellipse_q05": ellipse_map(0.5),
    "m2_cap0.8": ExteriorMap(0.8, (0.05j, 0.1, 0.15j)),
    "m3_cap1.3": ExteriorMap(1.3, (0.1, 0.3, 0, 0.05)),
}


def _relative_errors(got: np.ndarray, ref: list) -> np.ndarray:
    # ref as the sum of its nearest double and the rest, so that got - ref
    # is formed in doubles without rounding away the error it measures
    hi = np.array([[complex(v) for v in row] for row in ref]).T
    lo = np.array([[complex(v - complex(v)) for v in row] for row in ref]).T
    return np.abs((got - hi) - lo) / np.abs(hi)


@pytest.mark.parametrize("name", sorted(ACCURACY_MAPS))
def test_eval_all_is_as_accurate_as_the_joint_recurrence(name):
    # against the one-row recurrence at 60 digits: six points inside K (the
    # boundary pulled 40% toward c_0), 1e-3 outside the boundary (|w| = 1.001)
    # and at |w| = 1.3, to degree 400; then two points on and near the
    # boundary to degree 10^4.  The one-row recurrence's worst relative
    # error in each class is at most twice the joint recurrence's (measured:
    # 0.60 to 1.16 times it, and 1.1e-14 to 1.3e-12 at degree 10^4)
    emap = ACCURACY_MAPS[name]
    basis = FaberBasis(emap, 4)
    w = np.exp(2j * np.pi * (np.arange(6) + 0.3) / 6)
    c_0 = emap.laurent_coeffs[0]
    classes = [(c_0 + 0.6 * (emap.phi(w) - c_0), 400), (emap.phi(1.001 * w), 400),
               (emap.phi(1.3 * w), 400),
               (emap.phi(np.array([1.0, 1.001]) * np.exp(1j * np.array([0.4, 2.0]))), 10**4)]
    for z, n_upto in classes:
        ref = faber_eval_mp(emap, z, n_upto)
        got = _relative_errors(basis.eval_all(z, n_upto), ref).max()
        joint = _relative_errors(faber_eval_joint(emap, z, n_upto), ref).max()
        assert got <= 2.0 * joint, (n_upto, got, joint)


def test_eval_all_peak_memory_is_below_twice_its_output():
    # each degree is written into its row of the output: besides it the
    # recurrence holds z - c_0 and the temporary of one product c_k F_j, two
    # copies of z against the output's 101; into a given output, nothing else
    z = np.exp(1j * np.linspace(0.0, 2 * np.pi, 20_000)) * 1.1
    for emap in (ellipse_map(0.5), EVAL_MAPS["custom_m3"]):
        basis = FaberBasis(emap, 4)
        table = np.empty((101, 2 * z.size), dtype=complex)
        for out in (None, table[:, ::2]):
            tracemalloc.start()
            try:
                got = basis.eval_all(z, 100, out=out)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            held = 0 if out is not None else got.nbytes
            assert peak < held + 2 * z.nbytes + 4096, (peak - held) / z.nbytes


def test_mono_keeps_only_the_ftilde_rows_it_reads():
    # the recurrence reads Ftilde_n..Ftilde_{n-m}; holding every Ftilde row
    # until the build ends doubled the peak (2.0 times the rows, 34.5 MiB)
    basis = FaberBasis(ellipse_map(0.97), 1493)
    tracemalloc.start()
    try:
        rows = basis.mono
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(row.nbytes for row in rows)
    assert peak < 1.25 * held, (peak, held)


def test_construction_builds_no_table():
    # a degree whose monomial rows leave double range is a valid basis: the
    # rows are built, and refused, only when read
    basis = FaberBasis(ellipse_map(0.97), 3000)
    assert not {"mono", "_comp"} & set(vars(basis))
    basis = FaberBasis(ellipse_map(0.5), 40)
    basis.mono
    assert "_comp" not in vars(basis)


def test_mono_refuses_rows_outside_double_range():
    # F_n of the q = 0.97 ellipse is the monic U_n of [-2 sqrt(q), 2 sqrt(q)]:
    # its coefficient of z^(n-2i) is (-1)^i C(n-i, i) q^i, past 1e308 by
    # degree 1494.  No RuntimeWarning escapes, and the rows below are finite.
    q = 0.97
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="double range at degree 1494"):
            FaberBasis(ellipse_map(q), 1600).mono
        mono = FaberBasis(ellipse_map(q), 1493).mono
    # the U recurrence in exact arithmetic, q^i factored out:
    # U_n[z^(n-2i)] = c[n][i] q^i with c[n+1][i] = c[n][i] - c[n-1][i-1]
    checked = (1, 2, 3, 10, 100, 1000, 1493)
    prev, cur, exact = [1], [1], {1: [1]}
    for n in range(1, checked[-1]):
        prev, cur = cur, [(cur[i] if i < len(cur) else 0) - (prev[i - 1] if i else 0)
                          for i in range((n + 1) // 2 + 1)]
        exact[n + 1] = cur
    qpow = [Fraction(1)]
    for _ in range(checked[-1] // 2):
        qpow.append(qpow[-1] * Fraction(q))
    for n in checked:
        row = mono[n]
        assert np.all(np.isfinite(row)) and np.all(row.imag == 0)
        assert np.all(row[(n + 1) % 2 :: 2] == 0)       # powers of the wrong parity
        for i, c in enumerate(exact[n]):
            want = c * qpow[i]
            assert abs(Fraction(row[n - 2 * i].real) - want) <= n * 2.0 ** -52 * abs(want), (n, i)
