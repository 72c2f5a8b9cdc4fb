"""Command-line studies: convergence tables and figure data as CSV.

Subcommands: poly, scaling, corr, gap, levelsets, sample.  Every run is
deterministic given (config, seed); floats are written with repr-exact
formatting, so re-running a command reproduces its output byte for byte.
Exit codes: 0 ok, 2 configuration error, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .geometry import DomainSpec, format_complex, level_line, parse_complex, parse_domain
from .kernels import scaled_ratio, scaling_predictor
from .moments import moments
from .orthopoly import kappa_asymptotic, orthonormalize
from .pointprocess import (
    DiskRegion,
    gap_probability,
    gap_probability_radial_product,
    r1_limit,
    r2_limit,
    sample_disk,
    sine_corr,
)


class ConfigError(ValueError):
    pass


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass(frozen=True)
class StudyConfig:
    domain: DomainSpec = DomainSpec.disk()
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

    def validate(self) -> "StudyConfig":
        if not 0 <= self.seed < 2 ** 128:
            raise ConfigError(f"seed {self.seed} outside the Philox key range [0, 2**128)")
        if self.srule == "inf" or self.s_value is not None:
            for n in self.orders():
                s = self.s_for(n)
                if s != math.inf and not n <= s - 1:
                    raise ConfigError(f"pair (N={n}, s={s}) violates N <= floor(s-1)")
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


def _domain_spec(text: str, q: float) -> DomainSpec:
    if text == "ellipse":
        return DomainSpec.ellipse(q)
    if text == "disk":
        return DomainSpec.disk()
    if "kind=" not in text:
        raise ConfigError(f"unknown domain {text!r}")
    return parse_domain(text)


def config_from_pairs(pairs: dict) -> StudyConfig:
    """StudyConfig from option key -> text; absent keys keep their defaults."""
    values = {}
    for key, text in pairs.items():
        if key not in _OPTIONS:
            raise ConfigError(f"unknown config key {key!r}")
        field, parse = _OPTIONS[key][:2]
        try:
            values[field] = parse(text)
        except ValueError as exc:
            raise ConfigError(f"{key}={text}: {exc}") from None
    q = values.pop("q", 0.0)
    if "domain" in values:
        values["domain"] = _domain_spec(values["domain"], q)
    return StudyConfig(**values).validate()


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
        if command and command not in _OPTIONS[key][3].split():
            raise ConfigError(f"{command} does not read config key {key!r}")
        pairs[key] = value.strip()
    return pairs


def config_from_text(text: str) -> StudyConfig:
    return config_from_pairs(_pairs_from_text(text))


# -- output ------------------------------------------------------------------------

def _emit(cfg: StudyConfig, rows: list[str]) -> None:
    text = "\n".join(rows) + "\n"
    if cfg.out:
        with open(cfg.out, "w") as fh:
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
    degrees = list(cfg.n_list) if cfg.n_list else list(range(cfg.nmax + 1))
    rows = ["n,s,kappa_exact,kappa_pred,rel_err,fitted_rate,coeffs"]
    errs, seen = [], []
    emap = cfg.domain.map
    if cfg.srule != "cn":
        s = cfg.s_for(max(degrees))
        polys = orthonormalize(moments(emap, max(degrees), s))
        get = lambda n: (polys.kappas[n], s, polys.mono_coeffs[n, : n + 1])
    else:
        def get(n):
            s = cfg.s_for(n)
            p = orthonormalize(moments(emap, n, s))
            return p.kappas[n], s, p.mono_coeffs[n, : n + 1]
    for n in degrees:
        exact, s, coeffs = get(n)
        pred = kappa_asymptotic(n, s, emap)
        rel = abs(exact / pred - 1.0)
        seen.append(n)
        errs.append(rel)
        ascending = ";".join(format_complex(complex(c)) for c in coeffs)
        rows.append(",".join([str(n), _fmt(s), _fmt(exact), _fmt(pred), _fmt(rel),
                              _fmt(_fit_rate(seen, errs)), ascending]))
    _emit(cfg, rows)


def cmd_scaling(cfg: StudyConfig) -> None:
    theta = cfg.theta
    emap = cfg.domain.map
    rows = ["N,a,b,ratio_re,ratio_im,predictor_re,predictor_im,abs_err"]
    for n in cfg.orders():
        s = cfg.s_for(n)
        ell = cfg.ell_for(n)
        polys = orthonormalize(moments(emap, n - 1, s))
        for a in cfg.a_list:
            for b in cfg.b_list:
                ratio = scaled_ratio(polys, n, theta, a, b, weighted=cfg.weighted)
                pred = scaling_predictor(emap, theta, a, b, ell, weighted=cfg.weighted)
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
        pts = level_line(cfg.domain.map, level, cfg.bins)
        for k, z in enumerate(pts):
            theta = 2 * np.pi * k / cfg.bins
            rows.append(",".join([_fmt(level), _fmt(theta), _fmt(z.real), _fmt(z.imag)]))
    _emit(cfg, rows)


def cmd_gap(cfg: StudyConfig) -> None:
    n = cfg.order()
    s = cfg.s_for(n)
    emap = cfg.domain.map
    polys = orthonormalize(moments(emap, n - 1, s))
    res = gap_probability(polys, n, DiskRegion(cfg.center, cfg.radius),
                          n_rad=cfg.nodes_radial, n_ang=cfg.nodes_angular)
    rows = ["kind,index,value"]
    for k, term in enumerate(res.terms):
        rows.append(f"term,{k},{_fmt(float(term))}")
    rows.append(f"value,,{_fmt(res.value)}")
    rows.append(f"series_sum,,{_fmt(res.series_sum)}")
    if cfg.domain.kind == "disk" and cfg.center == 0:
        oracle = gap_probability_radial_product(n, s, cfg.radius)
        rows.append(f"radial_oracle,,{_fmt(oracle)}")
        rows.append(f"abs_err,,{_fmt(abs(res.value - oracle))}")
    _emit(cfg, rows)


def cmd_sample(cfg: StudyConfig) -> None:
    n = cfg.order()
    s = cfg.s_for(n)
    if cfg.domain.kind != "disk":
        raise ConfigError("exact sampling is implemented for the disk domain only")
    conf = sample_disk(n, s, cfg.seed)
    rows = ["index,re,im"]
    for k, z in enumerate(conf.points):
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="potens",
                                     description="potential-theoretic ensemble studies")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", help="key=value config file")
        for key, (_, parse, help_text, readers) in _OPTIONS.items():
            if name in readers.split():
                flag = {"action": "store_true", "default": None} if parse is _flag else {}
                p.add_argument("--" + key, dest=key, help=help_text, **flag)
    return parser


def _namespace_pairs(ns: argparse.Namespace) -> dict:
    return {key: str(value) for key, value in vars(ns).items()
            if key in _OPTIONS and value is not None}


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        pairs = {}
        if ns.config:
            try:
                with open(ns.config) as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}") from exc
            pairs = _pairs_from_text(text, ns.command)
        pairs.update(_namespace_pairs(ns))
        _COMMANDS[ns.command](config_from_pairs(pairs))
    except ValueError as exc:  # ConfigError and the library's range checks
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
