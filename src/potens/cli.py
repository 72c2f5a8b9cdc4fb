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
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError
from .geometry import DomainSpec, format_complex, format_domain, level_line, parse_complex, parse_domain
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
    domain: DomainSpec
    nmax: int = 8
    n_list: tuple = ()
    srule: str = "fixed"       # fixed | cn | inf
    s_value: float | None = None
    ell: float | None = None
    theta: float = 0.0
    a_list: tuple = (0j,)
    b_list: tuple = (0j,)
    seed: int = 1
    out: str | None = None
    nodes_angular: int | None = None
    nodes_radial: int | None = None
    weighted: bool = False
    levels: tuple = (1.0, 1.25, 1.5, 2.0, 3.0)
    center: complex = 0j
    radius: float = 0.5
    bins: int = 64

    def s_for(self, n: int) -> float:
        if self.srule == "inf":
            return math.inf
        if self.s_value is None:
            raise ConfigError("s rule needs --s")
        if self.srule == "fixed":
            return self.s_value
        if self.srule == "cn":
            return self.s_value * n
        raise ConfigError(f"unknown srule {self.srule!r}")

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
            for n in self.n_list or (self.nmax,):
                s = self.s_for(n)
                if s != math.inf and not n <= s - 1:
                    raise ConfigError(f"pair (N={n}, s={s}) violates N <= floor(s-1)")
        return self


_CONFIG_KEYS = ("domain", "q", "nmax", "N", "s", "srule", "ell", "theta", "a", "b",
                "seed", "out", "nodes-angular", "nodes-radial", "weighted",
                "levels", "center", "radius", "bins")


def config_to_text(cfg: StudyConfig) -> str:
    lines = [f"domain={format_domain(cfg.domain)}"]
    if cfg.n_list:
        lines.append("N=" + ",".join(str(n) for n in cfg.n_list))
    lines.append(f"nmax={cfg.nmax}")
    lines.append(f"srule={cfg.srule}")
    if cfg.s_value is not None:
        lines.append(f"s={_fmt(cfg.s_value)}")
    if cfg.ell is not None:
        lines.append(f"ell={_fmt(cfg.ell)}")
    lines.append(f"theta={_fmt(cfg.theta)}")
    lines.append("a=" + ",".join(format_complex(a) for a in cfg.a_list))
    lines.append("b=" + ",".join(format_complex(b) for b in cfg.b_list))
    lines.append(f"seed={cfg.seed}")
    if cfg.out:
        lines.append(f"out={cfg.out}")
    if cfg.nodes_angular:
        lines.append(f"nodes-angular={cfg.nodes_angular}")
    if cfg.nodes_radial:
        lines.append(f"nodes-radial={cfg.nodes_radial}")
    lines.append(f"weighted={int(cfg.weighted)}")
    lines.append("levels=" + ",".join(_fmt(v) for v in cfg.levels))
    lines.append(f"center={format_complex(cfg.center)}")
    lines.append(f"radius={_fmt(cfg.radius)}")
    lines.append(f"bins={cfg.bins}")
    return "\n".join(lines) + "\n"


def config_from_pairs(pairs: dict) -> StudyConfig:
    try:
        domain_text = pairs.get("domain", "disk")
        if "kind=" in domain_text:
            domain = parse_domain(domain_text)
        elif domain_text == "ellipse":
            domain = DomainSpec.ellipse(float(pairs.get("q", "0")))
        elif domain_text == "disk":
            domain = DomainSpec.disk()
        else:
            raise ConfigError(f"unknown domain {domain_text!r}")
        s_raw = pairs.get("s")
        cfg = StudyConfig(
            domain=domain,
            nmax=int(pairs.get("nmax", 8)),
            n_list=tuple(int(t) for t in pairs.get("N", "").split(",") if t),
            srule=pairs.get("srule", "fixed"),
            s_value=None if s_raw in (None, "", "inf") else float(s_raw),
            ell=None if pairs.get("ell") in (None, "") else float(pairs["ell"]),
            theta=float(pairs.get("theta", 0.0)),
            a_list=tuple(parse_complex(t) for t in pairs.get("a", "0").split(",") if t),
            b_list=tuple(parse_complex(t) for t in pairs.get("b", "0").split(",") if t),
            seed=int(pairs.get("seed", 1)),
            out=pairs.get("out") or None,
            nodes_angular=int(pairs["nodes-angular"]) if pairs.get("nodes-angular") else None,
            nodes_radial=int(pairs["nodes-radial"]) if pairs.get("nodes-radial") else None,
            weighted=pairs.get("weighted", "0") in ("1", "true", "True"),
            levels=tuple(float(t) for t in pairs.get("levels", "1,1.25,1.5,2,3").split(",") if t),
            center=parse_complex(pairs.get("center", "0")),
            radius=float(pairs.get("radius", 0.5)),
            bins=int(pairs.get("bins", 64)),
        )
        if s_raw == "inf" and pairs.get("srule") in (None, "", "fixed"):
            cfg = replace(cfg, srule="inf")
        return cfg.validate()
    except (ValueError, KeyError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def _pairs_from_text(text: str) -> dict:
    """key=value lines of a config file; blank lines and # comments skipped."""
    pairs = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
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
    ns = list(cfg.n_list) if cfg.n_list else [cfg.nmax]
    theta = cfg.theta
    emap = cfg.domain.map
    rows = ["N,a,b,ratio_re,ratio_im,predictor_re,predictor_im,abs_err"]
    for n in ns:
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
    n = cfg.n_list[0] if cfg.n_list else cfg.nmax
    s = cfg.s_for(n)
    emap = cfg.domain.map
    polys = orthonormalize(moments(emap, n - 1, s))
    res = gap_probability(polys, n, DiskRegion(cfg.center, cfg.radius),
                          n_rad=cfg.nodes_radial or 48, n_ang=cfg.nodes_angular or 128)
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
    n = cfg.n_list[0] if cfg.n_list else cfg.nmax
    s = cfg.s_for(n)
    if cfg.domain.kind != "disk":
        raise ConfigError("exact sampling is implemented for the disk domain only")
    conf = sample_disk(n, s, cfg.seed)
    rows = ["index,re,im"]
    for k, z in enumerate(conf.points):
        rows.append(f"{k},{_fmt(z.real)},{_fmt(z.imag)}")
    _emit(cfg, rows)


# -- entry point ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="potens",
                                     description="potential-theoretic ensemble studies")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("poly", "scaling", "corr", "gap", "levelsets", "sample"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--domain", default=None, help="disk | ellipse | kind=... record")
        p.add_argument("--q", default=None, help="ellipse parameter")
        p.add_argument("--nmax", default=None)
        p.add_argument("--N", default=None, help="comma list of kernel orders / degrees")
        p.add_argument("--s", default=None, help="weight exponent, rule constant, or inf")
        p.add_argument("--srule", default=None, choices=("fixed", "cn", "inf"))
        p.add_argument("--ell", default=None)
        p.add_argument("--theta", default=None, help="boundary angle")
        p.add_argument("--a", default=None, help="comma list of complex offsets (a+bi)")
        p.add_argument("--b", default=None)
        p.add_argument("--seed", default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--nodes-angular", dest="nodes_angular", default=None,
                       help="gap only: angular nodes of the gap-region quadrature (default 128)")
        p.add_argument("--nodes-radial", dest="nodes_radial", default=None,
                       help="gap only: radial nodes of the gap-region quadrature (default 48)")
        p.add_argument("--weighted", action="store_true", default=None)
        p.add_argument("--levels", default=None)
        p.add_argument("--center", default=None)
        p.add_argument("--radius", default=None)
        p.add_argument("--bins", default=None)
    return parser


_COMMANDS = {
    "poly": cmd_poly,
    "scaling": cmd_scaling,
    "corr": cmd_corr,
    "gap": cmd_gap,
    "levelsets": cmd_levelsets,
    "sample": cmd_sample,
}


def _namespace_pairs(ns: argparse.Namespace) -> dict:
    mapping = {"nodes_angular": "nodes-angular", "nodes_radial": "nodes-radial"}
    pairs = {}
    for key, value in vars(ns).items():
        if key in ("command", "config") or value is None:
            continue
        if key == "weighted":
            value = "1" if value else "0"
        pairs[mapping.get(key, key)] = str(value)
    return pairs


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        pairs = {}
        if ns.config:
            try:
                with open(ns.config) as fh:
                    pairs = _pairs_from_text(fh.read())
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}") from exc
        pairs.update(_namespace_pairs(ns))
        cfg = config_from_pairs(pairs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        _COMMANDS[ns.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
