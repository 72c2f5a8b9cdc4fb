"""Command-line studies: convergence tables and figure data as CSV.

Subcommands: poly, scaling, corr, gap, levelsets, sample.  Every run is
deterministic given (config, seed); floats are written with repr-exact
formatting, so re-running a command reproduces its output byte for byte.
Exit codes: 0 ok, 2 configuration error, 3 numerical non-convergence.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .faber import FaberBasis
from .geometry import (ExteriorMap, disk_map, ellipse_map, format_complex, level_line,
                       parse_complex, parse_domain)
from .kernels import scaled_ratios, scaling_predictor, taus_of
from .moments import moments
from .orthopoly import kappa_asymptotic, orthonormalize
from .pointprocess import (
    DiskRegion,
    gap_probability,
    gap_probability_radial_product,
    r1_limit,
    r2_limit,
    sample_disk_batch,
    sine_corr,
)


class ConfigError(ValueError):
    pass


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass(frozen=True)
class StudyConfig:
    domain: ExteriorMap = disk_map()
    nmax: int = 8              # highest poly degree; the order when --N is absent
    n_list: tuple = ()
    srule: str = "fixed"       # fixed | cn | inf
    s_value: float | None = None
    ell: float | None = None
    theta: float = 0.0
    a_list: tuple = (0j,)
    b_list: tuple = (0j,)
    seed: int = 1
    out: str | None = None
    nodes_angular: int = 128
    nodes_radial: int = 48
    weighted: bool = False
    levels: tuple = (1.0, 1.25, 1.5, 2.0, 3.0)
    center: complex = 0j
    radius: float = 0.5
    bins: int = 64

    def orders(self) -> tuple:
        return self.n_list or (self.nmax,)

    def degrees(self) -> list:
        """The polynomial degrees poly reports: --N, else 0..nmax."""
        return list(self.n_list) if self.n_list else list(range(self.nmax + 1))

    def order(self) -> int:
        if len(self.n_list) > 1:
            raise ConfigError(f"one order only, got N={','.join(map(str, self.n_list))}")
        return self.orders()[0]

    def s_for(self, n: int) -> float:
        if self.srule == "inf":
            return math.inf
        if self.s_value is None:
            raise ConfigError("s rule needs --s")
        return self.s_value * n if self.srule == "cn" else self.s_value

    def ell_for(self, n: int) -> float:
        if self.ell is not None:
            return self.ell
        if self.srule == "inf":
            return 0.0
        if self.srule == "cn":
            return 1.0 / self.s_value
        return n / self.s_value

    def validate(self, command: str | None = None) -> "StudyConfig":
        """Reject out-of-range and non-finite values.  poly reads --N as
        degrees, which need s >= degree + 2; every other command reads kernel
        orders N, which need N <= floor(s-1)."""
        if self.nmax < 0:
            raise ConfigError(f"nmax={self.nmax} is negative")
        if self.bins < 1:
            raise ConfigError(f"bins={self.bins} is below 1")
        for n in self.n_list:
            if n < 1:
                raise ConfigError(f"--N={n} is below 1")
        if not 0 <= self.radius < math.inf:
            raise ConfigError(f"--radius={self.radius!r} must be finite and >= 0")
        if not math.isfinite(self.theta):
            raise ConfigError(f"--theta={self.theta!r} must be finite")
        for key, values in (("a", self.a_list), ("b", self.b_list), ("center", (self.center,)),
                            ("levels", self.levels)):
            for value in values:
                if not cmath.isfinite(value):
                    raise ConfigError(f"--{key}={format_complex(value)} must be finite")
        if not 0 <= self.seed < 2 ** 128:
            raise ConfigError(f"seed {self.seed} outside the Philox key range [0, 2**128)")
        if self.srule == "inf" or self.s_value is not None:
            rule = f"under --srule {self.srule}"
            if command == "poly":
                for n in self.degrees():
                    s = self.s_for(n)
                    if s != math.inf and not s >= n + 2:
                        raise ConfigError(f"pair (degree={n}, s={s}) violates "
                                          f"s >= degree + 2 {rule}")
            else:
                for n in self.orders():
                    s = self.s_for(n)
                    if s != math.inf and not n <= s - 1:
                        raise ConfigError(f"pair (N={n}, s={s}) violates N <= floor(s-1) {rule}")
        return self


def _listed(parse):
    return lambda text: tuple(parse(t) for t in text.split(",") if t)


def _srule(text: str) -> str:
    if text not in ("fixed", "cn", "inf"):
        raise ValueError(f"unknown srule {text!r}")
    return text


def _flag(text: str) -> bool:
    if text not in ("0", "1", "false", "true", "False", "True"):
        raise ValueError(f"expected 0 or 1, got {text!r}")
    return text in ("1", "true", "True")


_ORDERED = "poly scaling gap sample"
_ON_DOMAIN = _ORDERED + " levelsets"

# option key: (StudyConfig field, parser of its text, help, subcommands that read it);
# q has no field of its own: config_from_pairs folds it into the ellipse domain
_OPTIONS = {
    "domain": ("domain", str, "disk | ellipse | kind=... record", _ON_DOMAIN),
    "q": ("q", float, "ellipse parameter", _ON_DOMAIN),
    "nmax": ("nmax", int, "highest degree when --N is absent", "poly"),
    "N": ("n_list", _listed(int), "comma list of kernel orders / degrees", _ORDERED),
    "s": ("s_value", float, "weight exponent, rule constant, or inf", _ORDERED),
    "srule": ("srule", _srule, "fixed | cn | inf: s = value, value * N, or inf", _ORDERED),
    "ell": ("ell", float, "limit parameter in [0, 1]", "scaling corr"),
    "theta": ("theta", float, "boundary angle", "scaling"),
    "a": ("a_list", _listed(parse_complex), "comma list of complex offsets (a+bi)", "scaling"),
    "b": ("b_list", _listed(parse_complex), "comma list of complex offsets (a+bi)", "scaling"),
    "weighted": ("weighted", _flag, "ratio of weighted kernels", "scaling"),
    "center": ("center", parse_complex, "center of the gap disk", "gap"),
    "radius": ("radius", float, "radius of the gap disk", "gap"),
    "nodes-angular": ("nodes_angular", int, "angular nodes of the gap-region quadrature", "gap"),
    "nodes-radial": ("nodes_radial", int, "radial nodes of the gap-region quadrature", "gap"),
    "levels": ("levels", _listed(float), "comma list of P_K levels >= 1", "levelsets"),
    "bins": ("bins", int, "grid points per series or level line", "corr levelsets"),
    "seed": ("seed", int, "Philox key in [0, 2**128)", "sample"),
    "out": ("out", str, "write the CSV to this file", _ON_DOMAIN + " corr"),
}


def _domain(text: str, q: float | None) -> ExteriorMap:
    if text == "ellipse":
        return ellipse_map(0.0 if q is None else q)
    if q is not None:
        raise ConfigError(f"q={q!r} is read with domain=ellipse only")
    if text == "disk":
        return disk_map()
    if "kind=" not in text:
        raise ConfigError(f"unknown domain {text!r}")
    return parse_domain(text)


def config_from_pairs(pairs: dict, command: str | None = None) -> StudyConfig:
    """StudyConfig from option key -> text, validated for command; absent
    keys keep their defaults."""
    values = {}
    for key, text in pairs.items():
        if key not in _OPTIONS:
            raise ConfigError(f"unknown config key {key!r}")
        field, parse = _OPTIONS[key][:2]
        try:
            values[field] = parse(text)
        except ValueError as exc:
            raise ConfigError(f"{key}={text}: {exc}") from None
    values["domain"] = _domain(values.get("domain", "disk"), values.pop("q", None))
    return StudyConfig(**values).validate(command)


def _reads(command: str, key: str) -> bool:
    """Whether command reads option key, on the command line or in a config file."""
    return key in _OPTIONS and command in _OPTIONS[key][3].split()


def _pairs_from_text(text: str, command: str | None = None) -> dict:
    """key=value lines of a config file; blank lines and # comments skipped.
    With a command, a key that command does not read is an error."""
    pairs = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _OPTIONS:
            raise ConfigError(f"unknown config key {key!r}")
        if command and not _reads(command, key):
            raise ConfigError(f"{command} does not read config key {key!r}")
        pairs[key] = value.strip()
    return pairs


# -- output ------------------------------------------------------------------------

def _emit(cfg: StudyConfig, rows: list[str]) -> None:
    text = "\n".join(rows) + "\n"
    if cfg.out:
        try:
            fh = open(cfg.out, "w")
        except OSError as exc:
            raise ConfigError(f"cannot write --out file: {exc}") from None
        with fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fit_rate(ns, errs) -> float:
    pts = [(n, math.log(e)) for n, e in zip(ns, errs) if e > 1e-300]
    if len(pts) < 2:
        return float("nan")
    x = np.array([p[0] for p in pts], dtype=float)
    y = np.array([p[1] for p in pts])
    return float(np.polyfit(x, y, 1)[0])


# -- subcommands --------------------------------------------------------------------

def cmd_poly(cfg: StudyConfig) -> None:
    degrees = cfg.degrees()
    rows = ["n,s,kappa_exact,kappa_pred,rel_err,fitted_rate,coeffs"]
    errs = []
    emap = cfg.domain
    # F_n depends on the map alone, so a monomial row out of double range
    # fails here, before any moment table is built; every printed row of
    # coefficients is read from this one table
    basis = FaberBasis(emap, max(degrees))
    mono = basis.mono
    polys = None
    for i, n in enumerate(degrees):
        # one set for every degree, or one per degree under --srule cn; its
        # head rows are mapped once, and only if a degree reads them
        top = n if cfg.srule == "cn" else max(degrees)
        s = cfg.s_for(top)
        if polys is None or polys.n_max != top:
            polys, head = orthonormalize(moments(emap, top, s)), None
        n0 = polys.head_degree
        if n < n0 and head is None:
            head = polys.from_faber(basis.mono_table(n0 - 1))
        coeffs = head[n, : n + 1] if n < n0 else polys.tail_scales[n - n0] * mono[n]
        exact = polys.kappas[n]
        pred = kappa_asymptotic(n, s, emap)
        rel = abs(exact / pred - 1.0)
        errs.append(rel)
        ascending = ";".join(format_complex(complex(c)) for c in coeffs)
        rows.append(",".join([str(n), _fmt(s), _fmt(exact), _fmt(pred), _fmt(rel),
                              _fmt(_fit_rate(degrees[: i + 1], errs)), ascending]))
    _emit(cfg, rows)


def cmd_scaling(cfg: StudyConfig) -> None:
    theta = cfg.theta
    emap = cfg.domain
    rows = ["N,a,b,ratio_re,ratio_im,predictor_re,predictor_im,abs_err"]
    orders = [(n, orthonormalize(moments(emap, n - 1, cfg.s_for(n)))) for n in cfg.orders()]
    ratio_sets = scaled_ratios(orders, theta, np.array(cfg.a_list), np.array(cfg.b_list),
                               weighted=cfg.weighted)
    taus = taus_of(emap, cfg.a_list + cfg.b_list, theta)
    ta, tb = taus[: len(cfg.a_list)], taus[len(cfg.a_list):]
    for (n, _), ratios in zip(orders, ratio_sets):
        ell = cfg.ell_for(n)
        for i, a in enumerate(cfg.a_list):
            for j, b in enumerate(cfg.b_list):
                ratio = complex(ratios[i, j])
                pred = scaling_predictor(emap, theta, a, b, ell, weighted=cfg.weighted,
                                         taus=(ta[i], tb[j]))
                if pred is None:
                    rows.append(",".join([str(n), format_complex(a), format_complex(b),
                                          _fmt(ratio.real), _fmt(ratio.imag),
                                          "undefined", "undefined", "undefined"]))
                    continue
                pred = complex(pred)
                rows.append(",".join([str(n), format_complex(a), format_complex(b),
                                      _fmt(ratio.real), _fmt(ratio.imag),
                                      _fmt(pred.real), _fmt(pred.imag),
                                      _fmt(abs(ratio - pred))]))
    _emit(cfg, rows)


def cmd_corr(cfg: StudyConfig) -> None:
    if cfg.ell is None:
        raise ConfigError("corr needs --ell")
    ell = cfg.ell
    rows = ["series,ell,t,a,b,value"]

    def add(series, t, a, b, value):
        rows.append(",".join([series, _fmt(ell), _fmt(t), format_complex(a),
                              format_complex(b), _fmt(value)]))

    tgrid = np.linspace(0.0, 4 * np.pi, cfg.bins)
    for t in tgrid:
        add("r2_tangent", t, 1j * t, 0j, r2_limit(ell, 1j * t, 0j))
        add("r2_sine", t, complex(t), 0j, sine_corr(t, 0.0))
    for t in np.linspace(-6.0, 6.0, cfg.bins):
        add("r1_tangent", t, 1j * t, 1j * t, r1_limit(ell, 1j * t))
        add("r1_normal", t, complex(-t), complex(-t), r1_limit(ell, complex(-t)))
    for a in np.linspace(-3.0, 1.0, cfg.bins):
        for b in np.linspace(-3.0, 1.0, cfg.bins):
            add("r2_surface", 0.0, complex(a), complex(b), r2_limit(ell, complex(a), complex(b)))
    _emit(cfg, rows)


def cmd_levelsets(cfg: StudyConfig) -> None:
    rows = ["level,theta,re,im"]
    for level in cfg.levels:
        pts = level_line(cfg.domain, level, cfg.bins)
        for k, z in enumerate(pts):
            theta = 2 * np.pi * k / cfg.bins
            rows.append(",".join([_fmt(level), _fmt(theta), _fmt(z.real), _fmt(z.imag)]))
    _emit(cfg, rows)


def cmd_gap(cfg: StudyConfig) -> None:
    n = cfg.order()
    s = cfg.s_for(n)
    emap = cfg.domain
    polys = orthonormalize(moments(emap, n - 1, s))
    res = gap_probability(polys, n, DiskRegion(cfg.center, cfg.radius),
                          n_rad=cfg.nodes_radial, n_ang=cfg.nodes_angular)
    rows = ["kind,index,value"]
    for k, term in enumerate(res.terms):
        rows.append(f"term,{k},{_fmt(float(term))}")
    rows.append(f"value,,{_fmt(res.value)}")
    rows.append(f"series_sum,,{_fmt(res.series_sum)}")
    if emap.is_disk() and cfg.center == 0:
        oracle = gap_probability_radial_product(n, s, cfg.radius)
        rows.append(f"radial_oracle,,{_fmt(oracle)}")
        rows.append(f"abs_err,,{_fmt(abs(res.value - oracle))}")
    _emit(cfg, rows)


def cmd_sample(cfg: StudyConfig) -> None:
    n = cfg.order()
    s = cfg.s_for(n)
    if not cfg.domain.is_disk():
        raise ConfigError("exact sampling is implemented for the disk domain only")
    rows = ["index,re,im"]
    for k, z in enumerate(sample_disk_batch(n, s, cfg.seed, 1)[0]):
        rows.append(f"{k},{_fmt(z.real)},{_fmt(z.imag)}")
    _emit(cfg, rows)


# -- entry point ----------------------------------------------------------------------

_COMMANDS = {
    "poly": cmd_poly,
    "scaling": cmd_scaling,
    "corr": cmd_corr,
    "gap": cmd_gap,
    "levelsets": cmd_levelsets,
    "sample": cmd_sample,
}


def build_parser():
    """The potens argparse parser, with every subcommand and the options it
    reads.  main builds it only for an argv that _read_argv leaves to it:
    help, a usage error, or a value token that begins with "-"."""
    import argparse

    parser = argparse.ArgumentParser(prog="potens",
                                     description="potential-theoretic ensemble studies")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", help="key=value config file")
        for key, (_, parse, help_text, _) in _OPTIONS.items():
            if _reads(name, key):
                flag = {"action": "store_true", "default": None} if parse is _flag else {}
                p.add_argument("--" + key, dest=key, help=help_text, **flag)
    return parser


def _namespace_pairs(ns) -> dict:
    for key, value in vars(ns).items():
        if isinstance(value, list):  # argparse reads "--key=--" as []
            raise ConfigError(f"--{key}=--: '--' is not a value")
    return {key: str(value) for key, value in vars(ns).items()
            if key in _OPTIONS and value is not None}


def _read_argv(argv):
    """(command, config file, option key -> text) of a well-formed argv, read
    straight from _OPTIONS; the pairs are those of _namespace_pairs, in its
    order.  Well-formed is a known command, then only "--key value" and
    "--key=value" for keys that command reads or --config, and a bare
    --weighted.  Anything else gives None and is left to argparse, which
    alone decides what a value token beginning with "-" is."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    command, config, found = argv[0], None, {}
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("--"):
            return None
        key, eq, value = token[2:].partition("=")
        if key != "config" and not _reads(command, key):
            return None
        if key != "config" and _OPTIONS[key][1] is _flag:
            if eq:
                return None
            value = "True"
        elif not eq:
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
        elif value == "--":  # argparse drops it and reads the key as []
            return None
        if key == "config":
            config = value
        else:
            found[key] = value
    return command, config, {key: found[key] for key in _OPTIONS if key in found}


def main(argv=None) -> int:
    """Run the study argv names (default sys.argv[1:]) and return its exit
    code.  A well-formed argv is read by _read_argv; argparse is built only
    for the rest, so every help text and usage error (exit 2) is its own."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        read = _read_argv(argv)
        if read is None:
            ns = build_parser().parse_args(argv)
            read = ns.command, ns.config, _namespace_pairs(ns)
        command, config, argv_pairs = read
        pairs = {}
        if config:
            try:
                with open(config) as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}") from exc
            pairs = _pairs_from_text(text, command)
        pairs.update(argv_pairs)
        _COMMANDS[command](config_from_pairs(pairs, command))
    except ValueError as exc:  # ConfigError and the library's range checks
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
