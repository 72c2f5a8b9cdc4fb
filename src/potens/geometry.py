"""Exterior conformal-map representation of compact planar domains.

A compact set K with analytic Jordan boundary is encoded through the map

    phi(w) = cap * w + c_0 + c_1 / w + ... + c_m / w**m,

which carries {|w| > 1} conformally onto the exterior of K and fixes
infinity.  Its inverse Phi maps the exterior of K onto the exterior of the
closed unit disk with Phi'(infinity) = 1/cap > 0, so cap is the transfinite
diameter of K.  The exponentiated equilibrium potential is then simply
max(1, |Phi(z)|): identically 1 on K and growing like |z|/cap far away.

Restricting boundaries to finite Laurent tails keeps every curve analytic by
construction, makes univalence checkable on a grid, and turns phi(w) = z
into a polynomial equation of degree m + 1, so Phi needs no iteration.  The
disk, scaled or shifted (m = 0), and the ellipses (m = 1) get their roots in
closed form; longer tails get them as eigenvalues of one stack of companion
matrices for many points at once.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

# Classification threshold on |w| - 1; shared by every module that needs the
# inside/outside decision (the weight max(1, |Phi|) must be consistent).
BOUNDARY_TOL = 1e-10

# No function here returns this marker (big_phi_eval reports the inside
# decision as a flag), but bench/spans.py reads it when it installs its
# wrappers, so it stays defined.
INSIDE = "inside"

_DOMAIN_CHECK_SLACK = 1e-12


@dataclass(frozen=True)
class ExteriorMap:
    """Laurent data of phi, the conformal map from {|w|>1} onto ext(K).

    ``laurent_coeffs`` stores (c_0, c_1, ..., c_m).
    """

    cap: float
    laurent_coeffs: tuple

    def __post_init__(self):
        if not (self.cap > 0 and cmath.isfinite(self.cap)):
            raise ValueError(f"cap (leading Laurent coefficient) must be positive and finite, "
                             f"got {self.cap!r}")
        coeffs = tuple(complex(c) for c in self.laurent_coeffs)
        if not all(cmath.isfinite(c) for c in coeffs):
            raise ValueError(f"Laurent coefficients must be finite, got {coeffs!r}")
        # normalize: keep c_0, trim trailing zero tail coefficients
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if not coeffs:
            coeffs = (0j,)
        object.__setattr__(self, "laurent_coeffs", coeffs)
        # data derived from the map alone (moments keeps the head degree and
        # the tables of the last head of a map with m >= 2 here); not a
        # field, so equality and hashing ignore it, and it lives and dies
        # with this instance
        object.__setattr__(self, "_memo", {})

    @property
    def tail_length(self) -> int:
        """m, the number of negative Laurent powers actually present."""
        return len(self.laurent_coeffs) - 1

    def phi(self, w):
        """phi(w) for |w| >= 1 (small slack allowed)."""
        w = np.asarray(w, dtype=complex)
        if np.any(np.abs(w) < 1 - _DOMAIN_CHECK_SLACK):
            raise ValueError("phi is only defined on |w| >= 1")
        return self._phi_raw(w)

    def phi_prime(self, w):
        w = np.asarray(w, dtype=complex)
        if np.any(np.abs(w) < 1 - _DOMAIN_CHECK_SLACK):
            raise ValueError("phi' is only defined on |w| >= 1")
        return self._phi_prime_raw(w)

    def _phi_raw(self, w):
        out = self.cap * w + self.laurent_coeffs[0]
        wk = np.ones_like(w)
        for c in self.laurent_coeffs[1:]:
            wk = wk / w
            out = out + c * wk
        return out

    def _phi_prime_raw(self, w):
        out = np.full_like(np.asarray(w, dtype=complex), self.cap)
        wk = 1.0 / w
        for k, c in enumerate(self.laurent_coeffs[1:], start=1):
            out = out - k * c * wk / w
            wk = wk / w
        return out

    def _phi_prime_poly(self) -> np.ndarray:
        """Descending coefficients of w^(m+1) phi'(w) = cap w^(m+1) - sum_k k c_k w^(m-k)."""
        m = self.tail_length
        poly = np.zeros(m + 2, dtype=complex)
        poly[0] = self.cap
        poly[2:] = -np.arange(1, m + 1) * np.array(self.laurent_coeffs[1:])
        return poly

    def is_disk(self) -> bool:
        """phi is the identity: K is the closed unit disk."""
        return self.cap == 1.0 and all(c == 0 for c in self.laurent_coeffs)

    def boundary_point(self, theta):
        """z = phi(e^{i theta}), the canonical boundary parameterization."""
        return self._phi_raw(np.exp(1j * np.asarray(theta, dtype=float)))

    def validate(self, n_theta: int = 256) -> None:
        """Numerical univalence checks: simple boundary curve, phi' != 0.

        Raises ValueError when the Laurent data does not define a Jordan
        curve with a conformal exterior map.
        """
        theta = 2 * np.pi * np.arange(n_theta) / n_theta
        tau = np.exp(1j * theta)
        bdry = self._phi_raw(tau)
        # injectivity on the grid: chordal ratio bounded away from zero
        diff_z = np.abs(bdry[:, None] - bdry[None, :])
        diff_w = np.abs(tau[:, None] - tau[None, :])
        np.fill_diagonal(diff_z, 1.0)
        np.fill_diagonal(diff_w, 1.0)
        if np.min(diff_z / diff_w) < 1e-8:
            raise ValueError("boundary curve self-intersects: phi is not univalent on |w|=1")
        # zeros of phi' are the roots of cap w^{m+1} - sum k c_k w^{m-k};
        # all of them must stay strictly inside the unit circle
        if self.tail_length > 0:
            roots = np.roots(self._phi_prime_poly())
            if roots.size and np.max(np.abs(roots)) >= 1 - 1e-12:
                raise ValueError("phi' vanishes on |w| >= 1: map is not conformal")


def disk_map() -> ExteriorMap:
    """Exterior map of the closed unit disk: the identity."""
    return ExteriorMap(1.0, (0j,))


def ellipse_map(q: float) -> ExteriorMap:
    """phi(w) = w + q/w; interpolates between the disk (q=0) and [-2,2] (q->1)."""
    if not (0 <= q < 1):
        raise ValueError("ellipse parameter q must lie in [0, 1)")
    return ExteriorMap(1.0, (0j, complex(q)))


def _ellipse_q(emap: ExteriorMap) -> float | None:
    """q when emap is ellipse_map(q) with 0 < q < 1, else None."""
    c = emap.laurent_coeffs
    if emap.cap == 1 and len(c) == 2 and c[0] == 0 and c[1].imag == 0 and 0 < c[1].real < 1:
        return c[1].real
    return None


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' style literals (i suffix, also plain reals)."""
    t = text.strip().replace(" ", "")
    if not t:
        raise ValueError("empty complex literal")
    t = re.sub(r"i\b", "j", t.replace("I", "i"))
    if t.endswith("i"):
        t = t[:-1] + "j"
    try:
        return complex(t)
    except ValueError as exc:
        raise ValueError(f"bad complex literal {text!r}") from exc


def format_complex(z: complex) -> str:
    re_part = f"{z.real:.17g}"
    if z.imag == 0:
        return re_part
    sign = "+" if z.imag >= 0 else "-"
    return f"{re_part}{sign}{abs(z.imag):.17g}i"


def parse_domain(record: str) -> ExteriorMap:
    """Parse a text record like 'kind=ellipse q=0.5' or
    'kind=custom cap=1.0 coeffs=[0,0.2,0.1i]'."""
    fields = {}
    for token in record.replace(",", " , ").split():
        if "=" in token:
            key, _, value = token.partition("=")
            fields[key.strip()] = value.strip()
    kind = fields.get("kind")
    if kind == "disk":
        return disk_map()
    if kind == "ellipse":
        if "q" not in fields:
            raise ValueError("ellipse record needs q=<value>")
        return ellipse_map(float(fields["q"]))
    if kind == "custom":
        if "cap" not in fields or "coeffs" not in fields:
            raise ValueError("custom record needs cap=<value> coeffs=[...]")
        m = re.search(r"coeffs=\[([^\]]*)\]", record)
        if m is None:
            raise ValueError("could not parse coeffs=[...] list")
        items = [s for s in m.group(1).split(",") if s.strip()]
        coeffs = tuple(parse_complex(s) for s in items)
        emap = ExteriorMap(float(fields["cap"]), coeffs)
        emap.validate()
        return emap
    raise ValueError(f"unknown domain kind {kind!r}")


# -- operations ---------------------------------------------------------------

def phi_roots(emap: ExteriorMap, z: np.ndarray) -> np.ndarray:
    """All m + 1 roots w of phi(w) = z for each point of a 1-d array z,
    shape (len(z), m + 1).

    With b = (c_0 - z) / cap and c = c_1 / cap, phi(w) = z reads w + b = 0
    when m = 0 and w^2 + b w + c = 0 when m = 1, and both are solved in
    closed form.  The root -b is the entry of the 1 x 1 companion matrix,
    formed as np.roots forms it.  The quadratic's larger root is
    -(b + sqrt(b^2 - 4c)) / 2 with the sign of the square root that adds to b,
    so nothing cancels, and the other root is c over it (Vieta).  For m >= 2
    they are the eigenvalues of all points' companion matrices in one
    np.linalg.eigvals call: the cubic and quartic formulas lose digits to
    cancellation on some inputs and past m = 3 there is no formula, while
    eigenvalues are backward stable at every degree.
    """
    c, m = emap.laurent_coeffs, emap.tail_length
    if m == 0:
        return (-(c[0] - z) / complex(emap.cap))[:, None]
    if m == 1:
        b, c1 = (c[0] - z) / emap.cap, c[1] / emap.cap
        # on b divided by a power of two near |b|: exact, and nothing overflows
        scale = np.ldexp(1.0, np.maximum(np.frexp(np.abs(b))[1] - 1, 0))
        bs = b / scale
        root = np.sqrt(bs * bs - 4 * c1 / scale / scale)
        root[bs.real * root.real + bs.imag * root.imag < 0] *= -1
        big = (bs + root) * (-0.5 * scale)
        return np.stack((big, c1 / big), axis=1)
    return np.linalg.eigvals(companion(emap, z))


def companion(emap: ExteriorMap, z: np.ndarray) -> np.ndarray:
    """Companion matrices of phi(w) = z, one per point of a 1-d array z,
    divided by the complex cap as np.roots divides, so their eigenvalues are
    np.roots' bit for bit.  Row 0, (z - c_0, -c_1, ..., -c_m) / cap, is the
    Faber recurrence: C(z) (F_n, ..., F_{n-m}) = (F_{n+1}, ..., F_{n+1-m})."""
    c, m = emap.laurent_coeffs, emap.tail_length
    out = np.zeros((z.size, m + 1, m + 1), dtype=complex)
    out[:, 0, 0] = -(c[0] - z) / complex(emap.cap)
    out[:, 0, 1:] = -np.array(c[1:]) / complex(emap.cap)
    out[:, np.arange(1, m + 1), np.arange(m)] = 1.0
    return out


def big_phi_eval(emap: ExteriorMap, z):
    """Invert phi on an array of points as the roots of polynomials.

    Multiplying phi(w) = z by w^m gives cap w^{m+1} + (c_0 - z) w^m + c_1
    w^{m-1} + ... + c_m = 0.  phi is univalent on |w| > 1, so when z lies on
    or outside the boundary exactly one root has |w| >= 1 and it is Phi(z);
    when z lies inside K no root does.  phi_roots gives the roots of all
    points at once: in closed form when m <= 1, else from one np.linalg.eigvals
    call on their stacked companion matrices, so each point gets exactly the
    roots of np.roots.

    Returns (w, inside): w is the largest-modulus root and inside the flag
    |w| < 1 - BOUNDARY_TOL.  Outside K, w = Phi(z) with residual
    |phi(w) - z| <= 1e-12 (1+|z|); inside K, w continues Phi into K.  A
    scalar z gives (complex, bool), an array z two arrays of its shape.
    Raises ValueError naming the first non-finite z or listing the roots of
    the first point with two roots on the closed exterior (phi is not
    univalent), and ConvergenceError, with that point's root as ``last``,
    for the first exterior point that misses the residual contract.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        raise ValueError(f"Phi is defined for finite z only, got {complex(flat[bad[0]])!r}")
    roots = phi_roots(emap, flat)
    mod = np.abs(roots)
    rows = np.arange(flat.size)
    top = np.argmax(mod, axis=1)
    w = roots[rows, top]
    inside = mod[rows, top] < 1 - BOUNDARY_TOL
    two = np.flatnonzero(np.count_nonzero(mod >= 1 - BOUNDARY_TOL, axis=1) > 1)
    if two.size:
        i = two[0]
        raise ValueError(f"phi is not univalent: phi(w) = {complex(flat[i])!r} has roots "
                         f"{roots[i].tolist()} on or outside the unit circle")
    ext = np.flatnonzero(~inside)
    resid = np.abs(emap._phi_raw(w[ext]) - flat[ext])
    miss = ext[resid > 1e-12 * (1.0 + np.abs(flat[ext]))]
    if miss.size:
        i = miss[0]
        raise ConvergenceError(f"inversion of phi missed the residual contract at "
                               f"z={complex(flat[i])!r}", last=complex(w[i]))
    if z.ndim == 0:
        return complex(w[0]), bool(inside[0])
    return w.reshape(z.shape), inside.reshape(z.shape)


def equilibrium_potential(emap: ExteriorMap, z):
    """P_K(z) = max(1, |Phi(z)|); equals 1 on K and is continuous across T.
    A float for scalar z, else an array of z's shape."""
    w, inside = big_phi_eval(emap, z)
    p = np.where(inside, 1.0, np.maximum(1.0, np.abs(w)))
    return float(p) if p.ndim == 0 else p


def level_line(emap: ExteriorMap, level: float, n_theta: int = 256) -> np.ndarray:
    """Points of the level curve {P_K = level}, level >= 1, as phi(level*e^{i t})."""
    if not 1 <= level < np.inf:
        raise ValueError(f"P_K level lines exist for finite level >= 1 only, got level={level!r}")
    theta = 2 * np.pi * np.arange(n_theta) / n_theta
    return np.asarray(emap._phi_raw(level * np.exp(1j * theta)))
