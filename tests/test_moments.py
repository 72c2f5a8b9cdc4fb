import importlib
import math
import time
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from potens.faber import FaberBasis
from potens.geometry import ExteriorMap, disk_map, ellipse_map
from potens.moments import exterior_gram, interior_gram, moments

from _bruteforce import (
    disk_moment,
    ellipse_epsilon,
    ellipse_exterior_moment,
    ellipse_interior_moment,
    ellipse_moment,
    epsilon_table,
    exterior_gram_sums,
    exterior_part,
    exterior_quadrature,
    gram_mp,
    gram_quadrature,
    interior_gram_sums,
    interior_part,
    remainder_product_integral,
    summed_moments,
)

# the module itself: the package re-exports a function named `moments`
mm = importlib.import_module("potens.moments")


def test_disk_interior_diagonal(disk):
    gram = interior_gram(FaberBasis(disk, 4))
    assert gram[0, 0] == pytest.approx(math.pi, abs=1e-13)
    assert gram[2, 2] == pytest.approx(math.pi / 3, abs=1e-13)
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) < 1e-13


def test_disk_exterior(disk):
    gram = exterior_gram(FaberBasis(disk, 0), 2.0)
    assert gram[0, 0] == pytest.approx(math.pi, abs=1e-12)
    gram = exterior_gram(FaberBasis(disk, 1), 25.0)
    assert gram[0, 1] == pytest.approx(0.0, abs=1e-13)
    assert gram[1, 1] == pytest.approx(math.pi / (25 - 2), abs=1e-13)


def test_ellipse_closed_forms(ellipse_half):
    m = moments(ellipse_half, 1, 3.0)
    assert interior_part(m)[1, 1] == pytest.approx(math.pi / 2 * (1 - 0.5 ** 4), abs=1e-12)
    assert exterior_part(m)[0, 0] == pytest.approx(math.pi * 0.5625, abs=1e-12)
    assert m.entries[0, 0] == pytest.approx(1.3125 * math.pi, abs=1e-12)
    m8 = moments(ellipse_half, 8, 30.0)
    for n in range(9):
        assert m8.entries[n, n] == pytest.approx(ellipse_moment(n, 0.5, 30.0), abs=1e-12)
        assert interior_part(m8)[n, n] == pytest.approx(ellipse_interior_moment(n, 0.5), abs=1e-12)
        assert exterior_part(m8)[n, n] == pytest.approx(ellipse_exterior_moment(n, 0.5, 30.0), abs=1e-12)
    off = m8.entries - np.diag(np.diag(m8.entries))
    assert np.max(np.abs(off)) < 1e-12


def test_moment_examples(disk):
    assert moments(disk, 1, 4.0).entries[1, 1] == pytest.approx(math.pi, abs=1e-12)
    assert moments(disk, 3, np.inf).entries[3, 3] == pytest.approx(math.pi / 4, abs=1e-13)


def test_hermitian_positive_definite(custom_map):
    m = moments(custom_map, 10, 20.0)
    assert np.max(np.abs(m.entries - m.entries.conj().T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(m.entries)) > 0


def test_s_too_small_rejected(disk):
    with pytest.raises(ValueError):
        moments(disk, 10, 11.0)


@pytest.mark.parametrize("s", [float("nan"), -np.inf])
def test_non_finite_s_other_than_inf_rejected(disk, s):
    # only s = +inf means the interior-only weight
    with pytest.raises(ValueError):
        moments(disk, 2, s)


def test_node_doubling_stability(disk, ellipse_half, custom_map):
    # the exact sums agree with the sampled tensor rule at 256 and 512 nodes
    for emap in (disk, ellipse_half, custom_map):
        basis = FaberBasis(emap, 8)
        exact = interior_gram(basis) + exterior_gram(basis, 20.0)
        for n_ang in (256, 512):
            assert np.max(np.abs(exact - gram_quadrature(basis, 20.0, n_ang))) <= 1e-11


def test_undersampled_nodes_raise(ellipse_half):
    # 16 angular nodes alias the degree-20 Laurent modes; the default count does not
    m = moments(ellipse_half, 20, 30.0)
    assert np.max(np.abs(gram_quadrature(m.basis, 30.0, 16) - m.entries)) > 1e-6
    assert np.max(np.abs(gram_quadrature(m.basis, 30.0) - m.entries)) <= 1e-11


def test_large_s_flag_and_infinity(disk):
    # the exterior part pi/(s-k-1) is kept at every finite s, however large
    for s in (9.9e5, 1.01e6, 2e6):
        m = moments(disk, 2, s)
        for k in range(3):
            assert m.entries[k, k].real == pytest.approx(disk_moment(k, s), rel=1e-12)
    m = moments(disk, 2, np.inf)
    assert not np.any(exterior_part(m))
    assert np.allclose(np.diag(m.entries), [math.pi / (k + 1) for k in range(3)])


def test_laguerre_fallback_matches_closed_form(disk, ellipse_half):
    m = moments(disk, 3, 2000.0)
    for k in range(4):
        assert m.entries[k, k] == pytest.approx(disk_moment(k, 2000.0), rel=1e-11)
    m = moments(ellipse_half, 3, 1500.0)
    for k in range(4):
        assert m.entries[k, k] == pytest.approx(ellipse_moment(k, 0.5, 1500.0), rel=1e-9)


def test_quadrature_vs_series_cross_check(custom_map, ellipse_quarter):
    for emap in (custom_map, ellipse_quarter):
        basis = FaberBasis(emap, 9)
        a = exterior_gram(basis, 16.0)
        b = exterior_quadrature(basis, 16.0)
        assert np.max(np.abs(a - b)) < 1e-12


@st.composite
def _random_maps(draw):
    cap = draw(st.floats(0.5, 2.0))
    tail = draw(st.integers(0, 3))
    parts = st.floats(-0.3, 0.3)
    coeffs = [complex(draw(parts), draw(parts)) * cap for _ in range(tail + 1)]
    emap = ExteriorMap(cap, tuple(coeffs))
    try:
        emap.validate()
    except ValueError:
        assume(False)
    return emap


@settings(derandomize=True, deadline=None, max_examples=200)
@given(emap=_random_maps(), n=st.integers(0, 12), excess=st.floats(0.0, 40.0))
def test_gram_matches_quadrature_on_random_maps(emap, n, excess):
    s = n + 2 + excess
    m = moments(emap, n, s)
    scale = np.max(np.abs(m.entries))
    assert np.max(np.abs(m.entries - m.entries.conj().T)) <= 1e-14 * scale
    assert np.min(np.linalg.eigvalsh(m.entries)) > 0
    oracle = gram_quadrature(m.basis, s)
    assert np.max(np.abs(m.entries - oracle)) <= 1e-11 * scale


def _relative(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """|got - want| relative to sqrt(m_kk m_jj) of want, entry by entry."""
    d = np.sqrt(want.diagonal().real)
    return np.abs(got - want) / np.outer(d, d)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(emap=_random_maps(), n=st.integers(0, 12),
       excess=st.one_of(st.floats(0.0, 40.0), st.just(np.inf)))
def test_head_matches_the_two_table_sums_and_40_digits_on_random_maps(emap, n, excess):
    # the one-table head against the 40-digit Gram, and on the map's cap = 1
    # image (the same Gram) against the two-table sums over every power of
    # A_n = F_n(phi) phi' and G_k.  Off cap 1 the sums themselves round more:
    # they read the w^(k+1) coefficient of G_k, which the recurrence's
    # division by cap rounds once per degree, and were 1.7e-15 off 40 digits
    # at cap 1.86, degree 7.  On 1000 random maps the head was 4.3e-16 off
    # 40 digits and 3.9e-16 off the sums at cap = 1
    assume(emap.tail_length >= 2)
    s = n + 2 + excess
    head = moments(emap, n, s).head
    assert np.all(_relative(head, gram_mp(emap, head.shape[0] - 1, s)) <= 1e-15)
    unit = ExteriorMap(1.0, tuple(c / emap.cap for c in emap.laurent_coeffs))
    head = moments(unit, n, s).head
    assert np.all(_relative(head, summed_moments(unit, head.shape[0] - 1, s).head) <= 1e-15)


@pytest.mark.parametrize("s", [398.0, np.inf], ids=["s=2(n0+2)", "s=inf"])
def test_whole_head_matches_the_two_table_sums(s):
    # all n0 = 197 degrees of the head at cap = 1; measured 5.7e-16 at s = 398
    emap = ExteriorMap(1.0, (0, 0.5, 0.1, 0.05j))
    mom = moments(emap, 196, s)
    assert mom.head_degree == 197
    assert np.all(_relative(mom.head, summed_moments(emap, 196, s).head) <= 1e-15)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(emap=_random_maps(), n=st.integers(0, 12),
       excess=st.one_of(st.floats(0.0, 40.0), st.just(np.inf)))
def test_grunsky_coefficients_make_the_gram_positive_definite(emap, n, excess):
    # B[n-1, i] = sqrt(n l) b_{n,l}, b_{n,l} the coefficient of w^(-l) in
    # Ftilde_n(phi(w)) / n, l = offset - i.  The Grunsky coefficients are
    # symmetric, and on a univalent map ||B|| < 1.  Normalized by the
    # diagonal model D, the Gram is I minus a weighted B^H B with weights in
    # (0, 1], so its smallest eigenvalue is at least 1 - ||B||^2: the sums
    # are Hermitian and positive definite by their form.  On 300 random
    # maps the asymmetry was at most 2.9e-16 and ||B|| at most 0.89
    assume(emap.tail_length >= 2)
    s = n + 2 + excess
    basis = FaberBasis(emap, n)
    degree = np.arange(1.0, n + 2)
    powers = np.arange(basis.offset, 0, -1.0)
    grunsky = np.sqrt(np.outer(degree, powers)) * basis._comp[1:, : basis.offset] / degree[:, None]
    square = grunsky[:, basis.offset - np.arange(1, n + 2)]
    assert np.max(np.abs(square - square.T)) <= 1e-15
    norm = np.linalg.norm(grunsky, 2)
    assert norm < 1.0
    model = mm._interior_model(n) + (mm._exterior_model(n, s) if s != np.inf else 0.0)
    gram = interior_gram(basis) + exterior_gram(basis, s)
    normalized = gram / np.sqrt(np.outer(model, model))
    assert np.min(np.linalg.eigvalsh(normalized)) >= 1.0 - norm ** 2 - 1e-14


@pytest.mark.parametrize("q", [0.3, 0.5, 0.8, 0.9])
@pytest.mark.parametrize("s", [70.0, np.inf])
def test_ellipse_gram_is_the_closed_diagonal(q, s):
    # each row of the Laurent table has the one negative power w^(-k-1), so
    # no two rows pair, and the diagonal is the closed form (3 ulp at q = 0.8,
    # s = 70); a negative-power column read one off breaks the diagonal
    emap, n = ellipse_map(q), 30
    basis = FaberBasis(emap, n)
    gram = interior_gram(basis) + exterior_gram(basis, s)
    assert np.count_nonzero(gram - np.diag(gram.diagonal())) == 0
    closed = mm._closed_diagonal(emap, n, s)
    assert not np.any(gram.diagonal().imag)
    assert np.all(np.abs(gram.diagonal().real - closed) <= 4 * np.spacing(closed))


def test_epsilon_disk_zero(disk):
    eps = epsilon_table(moments(disk, 5, 12.0))
    assert np.max(np.abs(eps.entries)) < 1e-13
    eps = epsilon_table(moments(disk, 5, np.inf))
    assert np.max(np.abs(eps.entries)) < 1e-13


def test_epsilon_ellipse_closed_form(ellipse_half):
    eps = epsilon_table(moments(ellipse_half, 1, 3.0))
    assert eps.entries[0, 0] == pytest.approx(-0.125, abs=1e-13)
    eps = epsilon_table(moments(ellipse_half, 6, 14.0))
    for n in range(7):
        assert eps.entries[n, n] == pytest.approx(ellipse_epsilon(n, 0.5, 14.0), abs=1e-13)
    off = eps.entries - np.diag(np.diag(eps.entries))
    assert np.max(np.abs(off)) < 1e-12


def test_epsilon_sign_identity(ellipse_half):
    # eps[k,j] = -((k+1)/pi)(1-(k+1)/s) int_O E_j conj(E_k) (1-|Phi|^{-2s}) dA
    s = 10.0
    basis = FaberBasis(ellipse_half, 6)
    eps = epsilon_table(moments(ellipse_half, 6, s))
    for k in range(7):
        for j in range(7):
            integral = remainder_product_integral(basis, j, k, s)
            rhs = -((k + 1) / math.pi) * (1 - (k + 1) / s) * integral
            assert abs(eps.entries[k, j] - rhs) < 1e-8


def test_epsilon_decay_fit(ellipse_half):
    eps = epsilon_table(moments(ellipse_half, 12, np.inf))
    vals = np.abs(np.diag(eps.entries))
    slope = np.polyfit(np.arange(2, 13), np.log(vals[2:]), 1)[0]
    assert slope <= 2 * math.log(0.5) + 0.1



def test_a_run_over_head_sizes_holds_one_head():
    # degrees 1..150 of the q = 0.9 ellipse (n0 = 434) are 150 head sizes;
    # keeping each size's tables took 113 MiB, one head at a time 5 MiB
    emap = ellipse_map(0.9)
    tracemalloc.start()
    try:
        for n in range(1, 151):
            moments(emap, n, 3.0 * n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_head_is_built_once_per_map_instance(monkeypatch, custom_map):
    # head_degree's root sampling, the head's Faber tables and its interior
    # Gram do not depend on s or n_max past the head: one build per map and
    # head size, and the map keeps the tables of one head only (m = 2: the
    # disk and the ellipses sum no head)
    calls, grams = [], []
    true_decay, true_interior = mm.remainder_decay, mm.interior_gram
    monkeypatch.setattr(mm, "remainder_decay", lambda emap: calls.append(emap) or true_decay(emap))
    monkeypatch.setattr(mm, "interior_gram", lambda b: grams.append(b) or true_interior(b))
    emap = ExteriorMap(custom_map.cap, custom_map.laurent_coeffs)
    first, second = moments(emap, 99, 200.0), moments(emap, 199, 400.0)
    assert first.head_degree == 54
    assert len(calls) == 1 and len(grams) == 1
    assert second.head_basis is first.head_basis
    assert not first.head_basis._comp.flags.writeable
    assert not first.head_basis.mono[3].flags.writeable
    # the head is the interior plus the exterior Gram of head_basis
    basis = first.head_basis
    assert np.array_equal(first.head, interior_gram(basis) + exterior_gram(basis, 200.0))
    assert np.array_equal(second.head, interior_gram(basis) + exterior_gram(basis, 400.0))
    grams.clear()
    # an equal map is another instance with its own memo, built afresh
    again = moments(ExteriorMap(custom_map.cap, custom_map.laurent_coeffs), 99, 200.0)
    assert len(calls) == 2 and len(grams) == 1
    assert again.head_basis is not first.head_basis
    assert np.array_equal(again.head, first.head)
    # a head cut short by n_max replaces the map's head, so asking for the
    # full head again rebuilds it, with the same values
    short = moments(emap, 9, 20.0)
    assert short.head_degree == 10
    assert short.head_basis is not first.head_basis
    third = moments(emap, 99, 200.0)
    assert third.head_basis is not first.head_basis
    assert np.array_equal(third.head, first.head)
    assert len(calls) == 2 and len(grams) == 3


# -- the closed-form diagonal of maps with m <= 1 -------------------------------------

def _ulps(got: np.ndarray, ref: list) -> np.ndarray:
    """|got - ref| in units of the spacing of doubles at ref (ref in mpmath)."""
    return np.array([float(abs(mpmath.mpf(float(g)) - r)) / np.spacing(float(r))
                     for g, r in zip(got, ref)])


def _diagonal_mp(emap: ExteriorMap, n_max: int, s: float) -> list:
    """m[k, k] = pi s (1 - q^(2k+2) (s-k-1)/(s+k+1)) / ((k+1)(s-k-1)) at 40
    digits, q = |c_1| / cap from the map's doubles; pi (1 - q^(2k+2)) / (k+1)
    at s = inf."""
    with mpmath.workdps(40):
        c_1 = mpmath.mpc(emap.laurent_coeffs[1]) if emap.tail_length else mpmath.mpc(0)
        q2 = (abs(c_1) / emap.cap) ** 2
        out = []
        for k in range(n_max + 1):
            if s == np.inf:
                out.append(mpmath.pi / (k + 1) * (1 - q2 ** (k + 1)))
            else:
                t = mpmath.mpf(s)
                out.append(mpmath.pi * t / ((k + 1) * (t - k - 1))
                           * (1 - q2 ** (k + 1) * (t - k - 1) / (t + k + 1)))
        return out


def _summed_diagonal(emap: ExteriorMap, n_max: int, s: float) -> np.ndarray:
    basis = FaberBasis(emap, n_max)
    return (interior_gram_sums(basis) + exterior_gram_sums(basis, s)).diagonal().real


@st.composite
def _one_term_maps(draw):
    cap = draw(st.floats(0.5, 2.0))
    rho = draw(st.floats(0.0, 0.95))
    turn = draw(st.floats(0.0, 1.0))
    c0 = complex(draw(st.floats(-0.3, 0.3)), draw(st.floats(-0.3, 0.3))) * cap
    return ExteriorMap(cap, (c0, cap * rho * np.exp(2j * np.pi * turn)))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(emap=_one_term_maps(), n=st.integers(0, 150), excess=st.one_of(
    st.floats(0.0, 200.0), st.just(np.inf)))
def test_closed_diagonal_matches_the_summed_gram_on_random_one_term_maps(emap, n, excess):
    # the summed diagonal rounds more: its Laurent tables divide by cap once
    # per degree, and the interior sum cancels to 1 - q^(2k+2); on 400
    # random maps the two differed by at most 4 such units at cap = 1 and
    # 2.1 at cap != 1
    s = n + 2 + excess
    mom = moments(emap, n, s)
    assert mom.head_degree == 0 and mom.tail.shape == (n + 1,) and mom.tail_bound == 0.0
    want = _summed_diagonal(emap, n, s)
    k1 = np.arange(1.0, n + 2)
    q = abs(emap.laurent_coeffs[1]) / emap.cap if emap.tail_length else 0.0
    unit = (1.0 if emap.cap == 1.0 else k1) / (1.0 - q ** (2.0 * k1)) * np.spacing(want)
    assert np.all(np.abs(mom.tail - want) <= 8.0 * unit)


@pytest.mark.parametrize("emap", [
    ellipse_map(0.3), ellipse_map(0.5), ellipse_map(0.9), ellipse_map(0.97),
    ExteriorMap(1.37, (0.2 - 0.1j, 1.37 * 0.6 * np.exp(0.7j))),
    ExteriorMap(0.63, (0.05j, -0.63 * 0.85j)),
    ExteriorMap(1.93, (-0.4, 1.93 * 0.3 * np.exp(2.1j))),
], ids=["q=0.3", "q=0.5", "q=0.9", "q=0.97", "cap=1.37", "cap=0.63", "cap=1.93"])
@pytest.mark.parametrize("scale", [2.0, np.inf], ids=["s=2n0", "s=inf"])
def test_closed_diagonal_is_no_further_from_mpmath_than_the_summed_gram(emap, scale):
    # every degree of the summed head (n0 = 35, 62, 434, 1548, ...), at
    # s = 2 n0 and s = inf: the summed diagonal is off by up to 6.7 ulp (at
    # q = 0.97), the closed form by up to 2.0, and its worst degree is no
    # worse than the sum's.  Single degrees can be: the model's own rounding
    # reaches 1.6 ulp, so at cap 1.37, k = 2 the closed form is 1.11 ulp off
    # where the sum is 0.11.  Where q^(2k+2) (s-k-1)/(s+k+1) passes 1/2 the
    # subtraction would cancel into up to 8 ulp, and those degrees are rounded
    # once from 40 digits
    n0 = int(mm.head_degree(emap)[0])
    s = scale * n0
    closed = moments(emap, n0 - 1, s).tail
    ref = _diagonal_mp(emap, n0 - 1, s)
    got, summed = _ulps(closed, ref), _ulps(_summed_diagonal(emap, n0 - 1, s), ref)
    assert np.max(got) <= min(np.max(summed) + 1.0, 2.5)
    k1 = np.arange(1.0, n0 + 1)
    ratio = (abs(emap.laurent_coeffs[1]) / emap.cap) ** (2 * k1)
    if s != np.inf:
        ratio *= (s - k1) / (s + k1)
    assert np.all(got[ratio > 0.51] <= 0.5 + 1e-9)


def _random_complex_one_term_maps(count: int, seed: int):
    """(map, n, s): cap in [0.5, 2] off 1, |c_1|/cap in [0.3, 0.95] at a phase
    off the axes, c_0 != 0, n <= 150, s = inf or n + 2 + [0, 200]."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        cap = rng.choice([rng.uniform(0.5, 0.95), rng.uniform(1.05, 2.0)])
        c_1 = cap * rng.uniform(0.3, 0.95) * np.exp(1j * rng.uniform(0.1, 1.47) + 0.5j * np.pi
                                                     * rng.integers(4))
        emap = ExteriorMap(cap, (complex(*rng.uniform(-0.3, 0.3, 2)), complex(c_1)))
        n = int(rng.integers(0, 151))
        yield emap, n, (np.inf if rng.uniform() < 0.5 else n + 2 + rng.uniform(0.0, 200.0))


def test_square_ratio_is_q2_rounded_once_and_its_remainder():
    # q^2 = |c_1|^2 / cap^2 in exact rationals from the map's doubles
    for emap, _, _ in _random_complex_one_term_maps(40, 5):
        c_1, cap = emap.laurent_coeffs[1], emap.cap
        exact = (Fraction(c_1.real) ** 2 + Fraction(c_1.imag) ** 2) / Fraction(cap) ** 2
        q2, err = mm._square_ratio(c_1, cap)
        assert q2 == float(exact) and err == float(exact - Fraction(q2))


def test_closed_diagonal_does_not_raise_the_rounding_of_q_to_the_degree():
    # on m = 1 maps whose q is not a double (cap != 1, complex c_1), raising
    # a rounded |c_1|/cap to the power 2k+2 multiplies its rounding by 2k+2,
    # 11.3 ulp off a 40-digit value on these maps.  Raised from q^2
    # and its remainder the table is 1.96 ulp off at worst, as is the same
    # form with a correctly rounded q^(2k+2).  The rest is the form's own
    # rounding: the model's alone reaches 1.9 ulp at degrees where the
    # q-term is nil, and it doubles where the q-term nears the half of the
    # model that sends a degree to decimal (2.6 ulp on 400 such maps)
    worst = 0.0
    for emap, n, s in _random_complex_one_term_maps(40, 11):
        got = _ulps(mm._closed_diagonal(emap, n, s), _diagonal_mp(emap, n, s))
        worst = max(worst, float(np.max(got)))
    assert worst <= 2.5, worst


@pytest.mark.parametrize("emap", [disk_map(), ellipse_map(0.5)], ids=["disk", "q=0.5"])
def test_closed_diagonal_of_the_disk_and_the_half_ellipse_keeps_its_bits(emap):
    # q^2 = 0 and 1/4 are doubles with no remainder, and q^(2k+2) a power of
    # two either way: the table is the one q = |c_1|/cap raised to 2k+2 gave
    q = abs(emap.laurent_coeffs[-1]) / emap.cap if emap.tail_length else 0.0
    for n, s in ((60, 130.0), (300, 601.5), (40, np.inf), (1200, 2400.0)):
        k1 = np.arange(1.0, n + 2)
        model = mm._interior_model(n) + mm._exterior_model(n, s)
        lift = (np.pi * q ** (2 * k1) / k1 if s == np.inf
                else np.pi * s * q ** (2 * k1) / (k1 * (s + k1)))
        want = model if not emap.tail_length else model - lift
        assert np.array_equal(moments(emap, n, s).tail.view(np.uint64), want.view(np.uint64))


def test_closed_diagonal_of_the_disk_is_the_diagonal_model_bit_for_bit(disk):
    # q = 0: the disk's table is the diagonal model of every degree, which
    # its one-row summed head (n0 = 1) continued, and the summed degree 0
    for n, s in ((60, 130.0), (300, 601.5), (40, np.inf)):
        tail = moments(disk, n, s).tail
        model = mm._interior_model(n) + mm._exterior_model(n, s)
        assert np.array_equal(tail.view(np.uint64), model.view(np.uint64))
        assert tail[0] == _summed_diagonal(disk, 0, s)[0]


def test_one_term_maps_sum_no_laurent_table(monkeypatch):
    # the closed form reads q alone: no root sampling, no Laurent table, no
    # Gram sum, and nothing is kept on the map
    def refuse(*args):
        raise AssertionError("the closed-form diagonal summed a Laurent table")

    monkeypatch.setattr(mm, "remainder_decay", refuse)
    monkeypatch.setattr(mm, "interior_gram", refuse)
    monkeypatch.setattr(mm, "exterior_gram", refuse)
    for emap in (disk_map(), ellipse_map(0.5), ExteriorMap(1.3, (0.2j, 0.4 - 0.3j))):
        for s in (500.0, np.inf):
            mom = moments(emap, 199, s)
            assert mom.head_degree == 0 and mom.tail.shape == (200,) and mom.tail_bound == 0.0
            assert "_comp" not in vars(mom.head_basis)
        assert emap._memo == {}


def test_thin_ellipse_table_takes_milliseconds():
    # summing the q = 0.97 head from its Laurent tables takes 1.3-3.5 s and
    # peaks at 450 MB
    emap = ellipse_map(0.97)
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        moments(emap, 1547, 3096.0)
        elapsed.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        moments(emap, 1547, 3096.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert min(elapsed) < 0.01
    assert peak < 2 ** 20
