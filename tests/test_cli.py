import argparse
import functools
import importlib
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import potens.cli as cli
from potens.errors import ConvergenceError
from potens.faber import FaberBasis
from potens.geometry import ExteriorMap, disk_map, ellipse_map, format_complex

from _bruteforce import h_limit_mp, poly_rows_per_degree

# the module itself: the package re-exports a function named `moments`
moments_module = importlib.import_module("potens.moments")


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def test_poly_disk_zero_error_column(capsys):
    code, out = run_cli(["poly", "--domain", "disk", "--nmax", "6", "--s", "25"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,s,kappa_exact,kappa_pred,rel_err,fitted_rate,coeffs"
    rel_errs = [float(line.split(",")[4]) for line in lines[1:]]
    assert max(rel_errs) < 1e-12
    # ascending complex coefficient list: degree-2 row ends with the leading term
    from potens.geometry import parse_complex
    coeffs = [parse_complex(t) for t in lines[3].split(",")[6].split(";")]
    assert len(coeffs) == 3
    assert coeffs[2].real == pytest.approx(math.sqrt(3 / math.pi * (1 - 3 / 25)))
    assert abs(coeffs[0]) < 1e-13 and abs(coeffs[1]) < 1e-13


def test_poly_ellipse_rate_column(capsys):
    code, out = run_cli(["poly", "--domain", "ellipse", "--q", "0.5",
                         "--N", "4,8,12,16,20", "--srule", "cn", "--s", "2"], capsys)
    assert code == 0
    last = out.strip().splitlines()[-1].split(",")
    fitted = float(last[5])
    assert fitted == pytest.approx(2 * math.log(0.5), rel=0.1)


def test_scaling_rows(capsys):
    code, out = run_cli(["scaling", "--domain", "disk", "--N", "20,40",
                         "--srule", "cn", "--s", "2",
                         "--a", "0,0.3+0.2i", "--b", "0"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,a,b,ratio_re,ratio_im,predictor_re,predictor_im,abs_err"
    # a=b=0 rows have ratio exactly 1
    zero_rows = [l for l in lines[1:] if l.split(",")[1] == "0"]
    for row in zero_rows:
        assert float(row.split(",")[3]) == 1.0
    # abs_err decreases with N for the nonzero offset
    errs = [float(l.split(",")[-1]) for l in lines[1:] if l.split(",")[1] != "0"]
    assert errs[1] < errs[0]


def test_scaling_weighted_undefined_marker(capsys):
    code, out = run_cli(["scaling", "--domain", "disk", "--N", "10", "--srule", "inf",
                         "--ell", "0", "--weighted", "--a", "1i", "--b", "-0.3"], capsys)
    assert code == 0
    assert "undefined" in out


def test_corr_series(capsys):
    code, out = run_cli(["corr", "--ell", "0", "--bins", "5"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    r1t = [l for l in lines if l.startswith("r1_tangent")]
    assert all(float(l.split(",")[-1]) == 1.0 for l in r1t)
    # ell=0 surface vanishes once either offset is outward
    surf = [l for l in lines if l.startswith("r2_surface")]
    for l in surf:
        parts = l.split(",")
        a, b, v = float(parts[3]), float(parts[4]), float(parts[5])
        if a > 0 or b > 0:
            assert v == 0.0
    # diagonal of the surface vanishes
    for l in surf:
        parts = l.split(",")
        if parts[3] == parts[4]:
            assert abs(float(parts[5])) < 1e-12


def test_gap_table(capsys):
    code, out = run_cli(["gap", "--domain", "disk", "--N", "4", "--s", "6",
                         "--radius", "0.5"], capsys)
    assert code == 0
    rows = dict()
    for line in out.strip().splitlines()[1:]:
        kind, _, value = line.split(",")
        rows.setdefault(kind, value)
    assert abs(float(rows["value"]) - float(rows["radial_oracle"])) < 1e-6
    assert float(rows["abs_err"]) < 1e-6


def test_gap_general_domain_term_decay(capsys):
    code, out = run_cli(["gap", "--domain", "ellipse", "--q", "0.5", "--N", "4",
                         "--s", "8", "--radius", "0.4", "--center", "0.2"], capsys)
    assert code == 0
    terms = [abs(float(l.split(",")[2])) for l in out.strip().splitlines()
             if l.startswith("term")]
    assert all(terms[i + 1] < terms[i] for i in range(len(terms) - 1))
    assert "radial_oracle" not in out


def test_gap_conjugate_centers_agree_on_thin_ellipse(capsys):
    # the ellipse is symmetric under conjugation, so centers +-0.3i give the
    # same gap probability; near the flat sides Phi must not take the root
    # q/w inside the unit disk for the exterior one
    values = []
    for center in ("-0.3i", "0.3i"):
        code, out = run_cli(["gap", "--domain", "ellipse", "--q", "0.9", "--N", "6",
                             "--s", "12", "--radius", "0.25", "--nodes-radial", "12",
                             "--nodes-angular", "32", f"--center={center}"], capsys)
        assert code == 0
        values += [float(l.split(",")[2]) for l in out.splitlines() if l.startswith("value,")]
    assert len(values) == 2
    assert values[0] == pytest.approx(values[1], rel=1e-12)


def test_node_flags_reach_gap_region_only(capsys):
    # the node flags size the gap-region quadrature; scaling does not accept them
    code = cli.main(["gap", "--domain", "ellipse", "--q", "0.5", "--N", "20", "--s", "40",
                     "--center=1.3", "--radius", "0.4",
                     "--nodes-angular", "16", "--nodes-radial", "4"])
    assert code == 0, capsys.readouterr().err
    capsys.readouterr()
    args = ["scaling", "--domain", "ellipse", "--q", "0.5", "--N", "60", "--srule", "cn",
            "--s", "2", "--a", "0.3+0.2i", "--b", "-0.1"]
    for flag in ("--nodes-angular", "--nodes-radial"):
        with pytest.raises(SystemExit) as exc:
            cli.main(args + [flag, "8"])
        assert exc.value.code == 2


def test_levelsets(capsys):
    code, out = run_cli(["levelsets", "--domain", "disk", "--levels", "1,2", "--bins", "8"], capsys)
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        level, _, re, im = (float(x) for x in line.split(","))
        assert math.hypot(re, im) == pytest.approx(level, abs=1e-12)


def test_sample_csv(capsys):
    code, out = run_cli(["sample", "--domain", "disk", "--N", "4", "--s", "6",
                         "--seed", "9"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,re,im"
    assert len(lines) == 5


def test_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["scaling", "--domain", "ellipse", "--q", "0.25", "--N", "12",
            "--srule", "cn", "--s", "2", "--a", "0.2+0.1i", "--b", "-0.1"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_config_file_with_flag_override(tmp_path, capsys):
    cfgfile = tmp_path / "study.cfg"
    cfgfile.write_text("domain=disk\nnmax=3\ns=25\n")
    code, out = run_cli(["poly", "--config", str(cfgfile), "--nmax", "2"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 3  # header + degrees 0..2


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    # a config file passes the same key check as config_from_pairs
    cfgfile = tmp_path / "study.cfg"
    cfgfile.write_text("domain=disk\nnmax=2\ns=25\nbogus=1\n")
    with pytest.raises(cli.ConfigError):
        cli.config_from_pairs(cli._pairs_from_text(cfgfile.read_text()))
    assert cli.main(["poly", "--config", str(cfgfile)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = cli.main(["poly", "--config", str(tmp_path / "missing.cfg")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "missing.cfg" in err


def test_theta_is_one_angle_and_dead_flags_are_gone(capsys):
    args = ["scaling", "--domain", "disk", "--N", "10", "--s", "20", "--a", "0.3"]
    assert cli.main(args + ["--theta", "0.5"]) == 0
    assert cli.main(args + ["--theta", "0,0.5"]) == 2
    for flag in ("--tol", "--count"):
        with pytest.raises(SystemExit) as exc:
            cli.main(args + [flag, "1"])
        assert exc.value.code == 2


def test_exit_code_config_error(capsys):
    code = cli.main(["poly", "--domain", "disk", "--N", "30", "--s", "20"])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    code = cli.main(["corr", "--bins", "4"])
    assert code == 2
    code = cli.main(["sample", "--domain", "ellipse", "--q", "0.3", "--N", "3", "--s", "8"])
    assert code == 2


@pytest.mark.parametrize("seed", ["-1", str(2 ** 128)], ids=["negative", "2**128"])
def test_seed_outside_philox_key_range_exits_2(seed, capsys):
    code = cli.main(["sample", "--domain", "disk", "--N", "4", "--s", "6", "--seed", seed])
    captured = capsys.readouterr()
    assert code == 2
    assert "seed" in captured.err and captured.out == ""


@pytest.mark.parametrize("domain", ["kind=custom cap=inf coeffs=[0]",
                                    "kind=custom cap=1 coeffs=[nan]"])
def test_non_finite_domain_exits_2(domain, capsys):
    code, out = run_cli(["poly", "--domain", domain, "--nmax", "2", "--s", "10"], capsys)
    assert code == 2
    assert out == ""


def _fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's
    potens on one BLAS thread."""
    src = Path(__file__).resolve().parent.parent / "src"
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def test_cli_import_in_a_fresh_interpreter_is_quiet():
    # what a benchmark or script pays before its first call: the import must
    # succeed silently on one BLAS thread, start no thread and load no scipy;
    # argparse is imported only by build_parser
    code = ("import sys, threading, potens.cli; "
            "print(threading.active_count()); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "print('argparse' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code], env=_fresh_env(), capture_output=True,
                         text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
    assert res.stdout.splitlines() == ["1", "[]", "False"]


def test_gap_runs_in_a_fresh_interpreter_leave_numpy_polynomial_unloaded():
    # the radial rule is pointprocess._gauss_legendre, so importing
    # numpy.polynomial is a cost no gap run pays
    argvs = ["gap --domain disk --N 4 --s 6 --radius 0.5",
             "gap --domain ellipse --q 0.5 --N 8 --s 16.0 "
             "--center=1.2724474743969516+0.006497461571995086i --radius 0.4 "
             "--nodes-radial 24 --nodes-angular 64"]
    code = ("import sys, potens.cli; "
            "codes = [potens.cli.main(argv.split()) for argv in sys.argv[1:]]; "
            "print(codes, 'numpy.polynomial' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code] + argvs, env=_fresh_env(),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[0, 0] False"


def _run_cli_process(argv: list) -> subprocess.CompletedProcess:
    """potens.cli in a fresh interpreter, so its stderr holds every warning."""
    return subprocess.run([sys.executable, "-m", "potens.cli"] + argv, env=_fresh_env(),
                          capture_output=True, text=True, timeout=120)


def test_thin_ellipse_scaling_writes_nothing_to_stderr():
    # the q = 0.97 ellipse reads no monomial row, so the rows that leave
    # double range from degree 1494 on are never built
    res = _run_cli_process(["scaling", "--domain", "ellipse", "--q", "0.97", "--N", "2000",
                            "--s", "4000", "--theta", "0.7", "--a", "0.3+0.1i", "--b=-0.2i"])
    assert res.returncode == 0 and res.stderr == ""
    assert len(res.stdout.splitlines()) == 2


PRODUCTION_ARGV = [
    "scaling --domain ellipse --q 0.9 --N 30,500 --s 1000 --a 0.3+0.1i --b=-0.2i",
    "scaling --domain ellipse --q 0.5 --N 10,100 --srule cn --s 2 --weighted",
    "gap --domain ellipse --q 0.5 --N 8 --s 16 --center 1.3 --radius 0.4",
    "gap --domain disk --N 4 --s 6 --radius 0.5",
    "sample --N 4 --s 6",
]


@pytest.mark.parametrize("argv", PRODUCTION_ARGV)
def test_production_studies_never_read_monomial_rows(argv, monkeypatch, capsys):
    def refuse(basis):
        raise AssertionError("FaberBasis.mono was read")
    monkeypatch.setattr(FaberBasis, "mono", property(refuse))
    assert cli.main(argv.split()) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("argv", PRODUCTION_ARGV)
def test_production_studies_on_the_disk_and_ellipses_sum_no_laurent_table(argv, monkeypatch,
                                                                          capsys):
    # their moment tables are the closed-form diagonal: no root sampling for
    # a head degree, no composed Laurent table, no Gram sum
    def refuse(*args):
        raise AssertionError("a Laurent table or Gram sum was built")
    for name in ("remainder_decay", "interior_gram", "exterior_gram"):
        monkeypatch.setattr(moments_module, name, refuse)
    monkeypatch.setattr(FaberBasis, "_comp", property(refuse))
    assert cli.main(argv.split()) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("srule", [[], ["--srule", "cn", "--s", "3"]], ids=["fixed", "cn"])
def test_poly_refuses_rows_out_of_double_range_before_any_moment_table(srule, monkeypatch,
                                                                       capsys):
    def refuse(*args):
        raise AssertionError("a moment table was built")
    monkeypatch.setattr(cli, "moments", refuse)
    argv = "poly --domain ellipse --q 0.97 --N 1600 --s 4000".split() + srule
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "double range at degree 1494" in captured.err


@pytest.mark.parametrize("argv", [
    "poly --domain ellipse --q 0.5 --nmax 80 --s 200",
    "poly --domain ellipse --q 0.5 --srule cn --s 3 --N " + ",".join(map(str, range(1, 81))),
], ids=["fixed", "cn"])
def test_poly_builds_the_monomial_table_once(argv, monkeypatch, capsys):
    # the ellipse's table has no head, every row a scaled tail row, so no
    # dense table of a head is built either
    def refuse(basis, n_upto):
        raise AssertionError("a dense monomial table was built")
    monkeypatch.setattr(FaberBasis, "mono_table", refuse)
    builds = []
    true_mono = FaberBasis.mono.func

    def counting(basis):
        builds.append(basis.n_max)
        return true_mono(basis)

    mono = functools.cached_property(counting)
    mono.__set_name__(FaberBasis, "mono")
    monkeypatch.setattr(FaberBasis, "mono", mono)
    assert cli.main(argv.split()) == 0
    assert len(capsys.readouterr().out.splitlines()) == (82 if "nmax" in argv else 81)
    assert builds == [80]


def test_exit_code_nonconvergence(monkeypatch, capsys):
    def boom(cfg):
        raise ConvergenceError("did not settle")
    monkeypatch.setitem(cli._COMMANDS, "poly", boom)
    code = cli.main(["poly", "--domain", "disk", "--nmax", "2", "--s", "25"])
    assert code == 3
    assert "non-convergence" in capsys.readouterr().err


def test_invalid_pairs_rejected_at_parse():
    with pytest.raises(cli.ConfigError):
        cli.config_from_pairs({"domain": "disk", "N": "30", "s": "20"})
    for bad in ("nan", "-inf"):
        with pytest.raises(cli.ConfigError):
            cli.config_from_pairs({"domain": "disk", "N": "3", "s": bad})
    cli.config_from_pairs({"domain": "disk", "N": "19", "s": "20"})  # boundary case ok


# what each subcommand reads, written out apart from cli._OPTIONS; None marks a flag
READS = {
    "poly": "domain q nmax N s srule out",
    "scaling": "domain q N s srule ell theta a b weighted out",
    "corr": "ell bins out",
    "gap": "domain q N s srule center radius nodes-angular nodes-radial out",
    "levelsets": "domain q levels bins out",
    "sample": "domain q N s srule seed out",
}
VALUES = {"domain": "disk", "q": "0.5", "nmax": "4", "N": "4", "s": "10", "srule": "fixed",
          "ell": "0.5", "theta": "0.1", "a": "0.1", "b": "0.2i", "weighted": None,
          "center": "0.3", "radius": "0.4", "nodes-angular": "16", "nodes-radial": "4",
          "levels": "1,2", "bins": "8", "seed": "3", "out": "x.csv"}


def parser_options() -> dict:
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {o for a in p._actions for o in a.option_strings if o not in ("-h", "--help")}
            for name, p in sub.choices.items()}


def readme_cli_argv() -> list:
    """The argv, without the leading potens, of the README's CLI block."""
    section = readme_section("CLI")
    block = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    lines = [shlex.split(line) for line in block.splitlines() if line.strip()]
    assert all(argv[0] == "potens" for argv in lines)
    return [argv[1:] for argv in lines]


def test_subcommand_help_is_the_full_parsers(capsys):
    # main leaves --help to argparse, which prints the full parser's help of
    # the subcommand
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    argvs = readme_cli_argv()
    assert sorted(argv[0] for argv in argvs) == sorted(cli._COMMANDS)
    for argv in argvs:
        with pytest.raises(SystemExit) as exc:
            cli.main([argv[0], "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == sub.choices[argv[0]].format_help()


def _argparse_read(argv) -> tuple:
    ns = cli.build_parser().parse_args(argv)
    pairs = cli._namespace_pairs(ns)
    return ns.command, ns.config, pairs, list(pairs)


def _reader_read(argv) -> tuple:
    command, config, pairs = cli._read_argv(argv)
    return command, config, pairs, list(pairs)


def well_formed_argv() -> list:
    """The README's CLI argv and the benchmark-shaped argv of this file."""
    return (readme_cli_argv() + [shlex.split(SCALING_BENCH)]
            + [shlex.split(EXACT_REFERENCE[name]) for name in sorted(EXACT_REFERENCE)])


def test_read_argv_reads_the_readme_and_benchmark_argv_as_argparse_does():
    for argv in well_formed_argv():
        assert _reader_read(argv) == _argparse_read(argv), argv


# the values and keys a well-formed argv takes are drawn more often than the
# rest, so that about a quarter of the draws are read
ARGV_VALUES = ["0.3", "4", "disk", "x=y", ""] * 3 + ["-0.1", "-0.1,0.2i", "-", "--"]
ARGV_STRAYS = ["-h", "--help", "--config", "--weighted", "stray", "--", "-", "-0.1", "0.3",
               "--bogus", "-q"]


@settings(derandomize=True, deadline=None, max_examples=500)
@given(st.data())
def test_read_argv_agrees_with_argparse_whenever_it_reads(data):
    # what the reader reads, argparse accepts and reads the same way, pairs
    # in the same order; what it leaves (None) goes to argparse unchanged
    command = data.draw(st.sampled_from(sorted(cli._COMMANDS) * 3 + ["bogus", "-h", "--help"]))
    reads = [k for k in cli._OPTIONS if cli._reads(command, k)] + ["config"]
    key = st.sampled_from(reads * 6 + list(cli._OPTIONS))
    value = st.sampled_from(ARGV_VALUES)
    pair = st.tuples(key, value)
    token = st.one_of(pair.map(lambda kv: ["--" + kv[0], kv[1]]),
                      pair.map(lambda kv: ["--" + "=".join(kv)]),
                      pair.map(lambda kv: ["--" + kv[0], kv[1]]),
                      pair.map(lambda kv: ["--" + "=".join(kv)]),
                      key.map(lambda k: ["--" + k]),
                      st.sampled_from(ARGV_STRAYS).map(lambda s: [s]))
    argv = [command] + sum(data.draw(st.lists(token, max_size=5)), [])
    if cli._read_argv(argv) is not None:
        assert _reader_read(argv) == _argparse_read(argv)


def test_read_argv_leaves_help_usage_errors_and_dash_values_to_argparse():
    for argv in ([], ["bogus"], ["--help"], ["scaling", "-h"], ["scaling", "--help"],
                 ["scaling", "--N"], ["scaling", "--nmax", "4"], ["scaling", "10"],
                 ["scaling", "--b", "-0.1"], ["scaling", "--weighted=1"],
                 ["scaling", "--weighted", "1"], ["scaling", "--", "--N", "4"]):
        assert cli._read_argv(argv) is None, argv
    assert cli._read_argv(["scaling", "--b=-0.1", "--weighted", "--config="]) == (
        "scaling", "", {"b": "-0.1", "weighted": "True"})


@pytest.mark.parametrize("argv,key", [
    (["corr", "--ell", "0.5", "--bins", "3", "--out=--"], "out"),
    (["corr", "--config=--"], "config"),
    (["corr", "--ell=--", "--bins", "5"], "ell"),
], ids=["out", "config", "ell"])
def test_a_double_dash_value_is_refused(argv, key, tmp_path, monkeypatch, capsys):
    # argparse reads an explicit "--key=--" as the list []; it is refused
    # with exit 2 before any file is written, where a [] file or an ignored
    # config used to follow
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    assert f"config error: --{key}=--" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_well_formed_argv_run_without_building_argparse(tmp_path, monkeypatch, capsys):
    # each runs once through argparse and once with build_parser refusing:
    # the same exit code 0, stdout and --out file
    outputs = []
    for via_argparse in (True, False):
        with monkeypatch.context() as patch:
            if via_argparse:
                patch.setattr(cli, "_read_argv", lambda argv: None)
            else:
                def refuse():
                    raise AssertionError("argparse was built")
                patch.setattr(cli, "build_parser", refuse)
            runs = []
            for argv in well_formed_argv():
                if "--out" in argv:
                    i = argv.index("--out") + 1
                    argv[i] = str(tmp_path / f"{via_argparse}-{Path(argv[i]).name}")
                assert cli.main(argv) == 0, (argv, capsys.readouterr().err)
                out = capsys.readouterr().out
                runs.append(Path(argv[i]).read_text() if "--out" in argv else out)
            outputs.append(runs)
    assert outputs[0] == outputs[1]


def test_accepted_options_are_the_table():
    options = parser_options()
    assert options == {c: {"--config"} | {"--" + k for k in keys.split()}
                       for c, keys in READS.items()}
    assert sum(map(len, options.values())) == 49


@pytest.mark.parametrize("command,key", [(c, k) for c in READS for k in VALUES])
def test_each_subcommand_accepts_only_the_options_it_reads(command, key, tmp_path, capsys):
    value = VALUES[key]
    flag = ["--" + key] + ([] if value is None else [value])
    cfgfile = tmp_path / "study.cfg"
    cfgfile.write_text(f"{key}={value or 1}\n")
    if key in READS[command].split():
        ns = cli.build_parser().parse_args([command] + flag)
        assert cli._namespace_pairs(ns) == {key: value or "True"}
        assert cli._pairs_from_text(cfgfile.read_text(), command) == {key: value or "1"}
        return
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args([command] + flag)
    assert exc.value.code == 2
    capsys.readouterr()
    assert cli.main([command, "--config", str(cfgfile)]) == 2
    captured = capsys.readouterr()
    assert repr(key) in captured.err and captured.out == ""


@pytest.mark.parametrize("argv, reason", [
    ("sample --domain disk --N 4 --srule inf", "finite s"),
    ("levelsets --domain disk --levels 0.5", "level >= 1"),
    ("corr --ell 2", "ell must lie"),
    ("scaling --domain disk --N 10 --s 20 --a 0.3 --ell 1.5", "ell must lie"),
    ("gap --domain disk --N 4 --s 6 --nodes-radial -3", "node"),
    ("gap --domain disk --N 4 --s 6 --nodes-radial 0", "node"),
    ("gap --domain disk --N 4,8 --s 10", "one order"),
    ("sample --domain disk --N 4,8 --s 10", "one order"),
    ("levelsets --domain disk --levels 1,2 --bins 0", "bins=0"),
    ("corr --ell 0.5 --bins 0", "bins=0"),
    ("poly --domain disk --nmax -1 --s 20", "nmax=-1"),
    ("gap --domain disk --N 4 --s 6 --radius -1", "--radius=-1"),
    ("sample --N 0 --s 10", "--N=0"),
    ("scaling --N -2 --s 10", "--N=-2"),
    ("poly --domain disk --srule cn --s 2",
     "pair (degree=0, s=0.0) violates s >= degree + 2 under --srule cn"),
    ("poly --N 1 --srule cn --s 2",
     "pair (degree=1, s=2.0) violates s >= degree + 2 under --srule cn"),
    ("scaling --N 10 --s 20 --theta inf", "--theta=inf must be finite"),
    ("scaling --N 10 --s 20 --theta nan", "--theta=nan must be finite"),
    ("scaling --N 10 --s 20 --a=inf", "--a=inf must be finite"),
    ("scaling --N 10 --s 20 --a=0.1,1+infi", "--a=1+infi must be finite"),
    ("scaling --N 10 --s 20 --b=nan", "--b=nan must be finite"),
    ("gap --N 4 --s 6 --radius inf", "--radius=inf must be finite"),
    ("gap --N 4 --s 6 --center=nan", "--center=nan must be finite"),
    ("levelsets --levels 1,inf --bins 4", "--levels=inf must be finite"),
    ("poly --domain ellipse --q 0.97 --N 1600 --s 4000", "double range at degree 1494"),
    # H_0 leaves double range near Re tau = 715.6
    ("scaling --N 10 --s 20 --a 716 --b 0", "tau=(716+0j)"),
    ("scaling --N 10 --s 20 --a 1000 --b 0.5 --weighted --ell 0.5", "tau=(1000.5+0j)"),
])
def test_out_of_range_values_exit_2_without_traceback(argv, reason, capsys):
    code = cli.main(argv.split())
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("config error") and reason in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("offset", ["1e100i", "1e160i"])
def test_scaling_refuses_an_offset_whose_kernel_leaves_double_range(offset):
    # F_n(z + a/N) overflows, so the ratio would be NaN: one line names N
    # and the offsets, with no numpy warning before it
    res = _run_cli_process(["scaling", "--domain", "ellipse", "--q", "0.5", "--N", "10",
                            "--s", "20", f"--a={offset}", "--b", "0"])
    assert res.returncode == 2 and res.stdout == ""
    value = offset.replace("i", "j").replace("e", "e+")
    assert res.stderr == (f"config error: scaled kernel ratio at N=10, a={value}, b=0j "
                          "is not finite in double precision\n")


def test_scaling_prints_h_ell_where_only_its_closed_form_overflows(capsys):
    # at tau = 705, ell = n/s = 0.5, e^tau (tau - 1) overflows but H_ell is 3.2e303
    code, out = run_cli("scaling --N 10 --s 20 --a 705 --b 0".split(), capsys)
    assert code == 0
    pred = float(out.splitlines()[1].split(",")[5])
    ref = h_limit_mp(0.5, 705)
    assert abs(pred - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("argv", [
    "levelsets --q 0.5 --levels 2 --bins 4",
    "poly --domain disk --q 0.5 --nmax 2 --s 10",
    'gap --domain "kind=ellipse q=0.5" --q 0.3 --N 4 --s 6',
])
def test_q_without_domain_ellipse_exits_2(argv, tmp_path, capsys):
    argv = shlex.split(argv)
    cfgfile = tmp_path / "study.cfg"
    cfgfile.write_text("q=0.5\n")
    for args in (argv, [argv[0], "--config", str(cfgfile)]):
        code = cli.main(args)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("config error") and "domain=ellipse" in captured.err
    assert cli.main(["levelsets", "--config", str(cfgfile), "--domain", "ellipse",
                     "--levels", "1", "--bins", "4"]) == 0


def test_unwritable_out_exits_2_without_traceback(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code = cli.main(["sample", "--N", "4", "--s", "6", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("config error") and str(target) in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["sample --N 4 --s 6", "gap --N 4 --s 6 --radius 0.5"])
def test_custom_record_of_the_disk_runs_as_the_disk(command, capsys):
    code, disk = run_cli(command.split() + ["--domain", "disk"], capsys)
    assert code == 0
    code, custom = run_cli(command.split() + ["--domain", "kind=custom cap=1 coeffs=[0]"], capsys)
    assert code == 0
    assert custom == disk
    if command.startswith("gap"):
        assert "radial_oracle" in custom and "abs_err" in custom


def test_gap_at_s_inf_has_finite_radial_oracle(capsys):
    code, out = run_cli(["gap", "--domain", "disk", "--N", "4", "--srule", "inf",
                         "--radius", "0.5"], capsys)
    assert code == 0
    rows = dict(line.split(",,") for line in out.splitlines() if ",," in line)
    assert float(rows["radial_oracle"]) == pytest.approx(
        math.prod(1 - 0.5 ** (2 * n + 2) for n in range(4)), rel=1e-15)
    assert float(rows["abs_err"]) < 1e-12


def readme_section(title: str) -> str:
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_quick_start_block_runs(capsys):
    block = readme_section("Quick start").split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) >= 6  # the sampled points may wrap over several lines
    kappa, exact = float(printed[0]), complex(printed[1].strip("()"))
    assert kappa == pytest.approx(exact.real, rel=1e-12)
    assert float(printed[2]) < 1e-2              # boundary ratio against its limit
    assert float(printed[3]) == pytest.approx(float(printed[4]), abs=1e-6)


def test_readme_cli_block_runs_and_its_table_matches_the_parser(tmp_path, capsys):
    argvs = readme_cli_argv()
    assert len(argvs) == 6
    for argv in argvs:
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / argv[i])
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)
        capsys.readouterr()
    section = readme_section("CLI")
    table = {m.group(1): set(re.findall(r"--[\w-]+", m.group(2)))
             for m in re.finditer(r"^\| `(\w+)` \|(.*)\|$", section, re.M)}
    assert table == {c: opts - {"--config"} for c, opts in parser_options().items()}


def test_scaling_evaluates_the_faber_recurrence_once_per_run(monkeypatch, capsys):
    # the Faber values read only the map, so every order shares one pass up to
    # the largest N, over z and the offset points of every order
    sizes = []
    true_eval_all = FaberBasis.eval_all

    def counting(self, z, n_upto=None):
        sizes.append((np.size(z), n_upto))
        return true_eval_all(self, z, n_upto)

    monkeypatch.setattr(FaberBasis, "eval_all", counting)
    code, _ = run_cli(["scaling", "--domain", "ellipse", "--q", "0.5", "--N", "30,70,90",
                       "--srule", "cn", "--s", "2", "--a=0.1,0.2i", "--b=-0.3"], capsys)
    assert code == 0 and sizes == [(3 * 4, 89)]


@pytest.mark.parametrize("weighted", [[], ["--weighted"]], ids=["plain", "weighted"])
def test_scaling_evaluates_phi_prime_once_per_run(weighted, monkeypatch, capsys):
    # tau reads the offset and Phi'(z) alone: one evaluation of Phi' serves
    # every offset, and each row's predictor takes its two tau
    kernels = importlib.import_module("potens.kernels")
    calls, rows = [], []
    true_prime, true_predictor = ExteriorMap._phi_prime_raw, kernels.scaling_predictor

    def counting_prime(self, w):
        calls.append(np.size(w))
        return true_prime(self, w)

    def counting_predictor(*args, **kwargs):
        rows.append(kwargs["taus"])
        return true_predictor(*args, **kwargs)

    monkeypatch.setattr(ExteriorMap, "_phi_prime_raw", counting_prime)
    monkeypatch.setattr(cli, "scaling_predictor", counting_predictor)
    code, out = run_cli(["scaling", "--domain", "ellipse", "--q", "0.5", "--N", "30,70,90",
                         "--srule", "cn", "--s", "2", "--a=0.1,0.2i", "--b=-0.3,0.1"] + weighted,
                        capsys)
    assert code == 0 and len(out.splitlines()) == 1 + 3 * 2 * 2
    assert calls == [1] and len(rows) == 12 and None not in rows


POLY_CN = {
    "ellipse 0.5": ("ellipse --q 0.5", ellipse_map(0.5), range(1, 121)),  # head degree 62
    "ellipse 0.5 sparse": ("ellipse --q 0.5", ellipse_map(0.5), (5, 70, 150)),
    "ellipse 0.9": ("ellipse --q 0.9", ellipse_map(0.9), range(1, 61)),   # all in the head
    "m = 3": ("'kind=custom cap=1.3 coeffs=[0.1,0.3,0,0.05]'",
              ExteriorMap(1.3, (0.1, 0.3, 0, 0.05)), range(1, 81)),
    "disk": ("disk", disk_map(), range(1, 41)),                           # head degree 1
}


@pytest.mark.parametrize("name", sorted(POLY_CN))
def test_poly_cn_rows_are_those_of_a_table_per_degree(name, capsys):
    domain, emap, degrees = POLY_CN[name]
    code, out = run_cli(shlex.split(f"poly --domain {domain} --srule cn --s 3 --N "
                                    + ",".join(map(str, degrees))), capsys)
    assert code == 0
    rows = out.splitlines()[1:]
    want = poly_rows_per_degree(emap, degrees, lambda n: 3.0 * n)
    assert len(rows) == len(want)
    for row, (n, s, kappa, coeffs) in zip(rows, want):
        fields = row.split(",")
        assert fields[:3] == [str(n), cli._fmt(s), cli._fmt(kappa)]
        assert fields[6] == ";".join(format_complex(complex(c)) for c in coeffs), n


# outputs of the dense Cholesky path, kept under tests/data with the argv that made them;
# scaling_q05_w1 comes from the head-plus-tail path, whose weighted ratio divides by
# the weight of z (its a = 0 and b = 0 rows moved by up to 8e-13, each toward a
# 50-digit value)
DATA = Path(__file__).resolve().parent / "data"
OFFSETS = "--srule cn --s 2 --theta 0.7 --a=0.3+0.2i,-0.4,0 --b=-0.1,0.2-0.3i,0"
SCALING_REFERENCE = {
    "scaling_disk_readme": "scaling --domain disk --N 50,100,200 --srule cn --s 2 "
                           "--a 0.3+0.2i --b -0.1",
    "scaling_q05_w0": f"scaling --domain ellipse --q 0.5 --N 50,100,300 {OFFSETS}",
    "scaling_q05_w1": f"scaling --domain ellipse --q 0.5 --N 50,100,300 {OFFSETS} --weighted",
    "scaling_q09_w0": f"scaling --domain ellipse --q 0.9 --N 50,200,500 {OFFSETS}",
    "scaling_q09_w1": f"scaling --domain ellipse --q 0.9 --N 50,200,500 {OFFSETS} --weighted",
}
EXACT_REFERENCE = {
    "gap_ellipse_bench": "gap --domain ellipse --q 0.5 --N 8 --s 16 --center=1.3+0.02i "
                         "--radius 0.4 --nodes-radial 24 --nodes-angular 64",
    "gap_disk_readme": "gap --domain disk --N 4 --s 6 --radius 0.5",
    "gap_ellipse_n100": "gap --domain ellipse --q 0.5 --N 100 --s 200 --center=1.3 --radius 0.2 "
                        "--nodes-radial 12 --nodes-angular 32",
    "sample_disk_readme": "sample --domain disk --N 8 --s 12 --seed 42",
}


@pytest.mark.parametrize("name", sorted(SCALING_REFERENCE))
def test_scaling_csv_matches_the_dense_path(name, capsys):
    # the ratio of a row moves by at most 1e-13 of its modulus; its components
    # and abs_err are compared on that scale, since a component near 0 or a
    # difference of two nearly equal values keeps no relative digits
    code, out = run_cli(SCALING_REFERENCE[name].split(), capsys)
    assert code == 0
    want = (DATA / f"{name}.csv").read_text().splitlines()
    got = out.splitlines()
    assert len(got) == len(want) and got[0] == want[0]
    for new, old in zip(got[1:], want[1:]):
        new, old = new.split(","), old.split(",")
        assert new[:3] == old[:3] and new[5:7] == old[5:7]
        scale = abs(complex(float(old[3]), float(old[4])))
        for col in (3, 4, 7):
            if old[col] == "undefined":
                assert new[col] == "undefined"
                continue
            assert abs(float(new[col]) - float(old[col])) <= 1e-13 * scale, (name, new, old)


@pytest.mark.parametrize("name", sorted(EXACT_REFERENCE))
def test_gap_and_sample_csv_are_byte_identical_to_the_dense_path(name, capsys):
    code, out = run_cli(shlex.split(EXACT_REFERENCE[name]), capsys)
    assert code == 0
    assert out == (DATA / f"{name}.csv").read_text()


# the first input set of the scaling-ellipse benchmark at seed 1; the files above
# compare scaling rows to 1e-13, this one byte for byte
SCALING_BENCH = ("scaling --domain ellipse --q 0.5 --N 100,200,300 --srule cn --s 2 "
                 "--a=-0.4096907501471655+0.4924791189312039i,"
                 "0.3592500804236982+0.13039058858806618i "
                 "--b=-0.09197940416226713+0.3218865232875219i,"
                 "-0.32701409168316564-0.20868990387666753i")


def test_scaling_bench_csv_is_byte_identical_to_the_dense_path(capsys):
    code, out = run_cli(shlex.split(SCALING_BENCH), capsys)
    assert code == 0
    assert out == (DATA / "scaling_ellipse_bench.csv").read_text()


# gap argv whose finest pass has eigenvalues of Lambda above 1, with the evidence printed
OVERSHOOT = {
    "gap_disk_n64": ("gap --domain disk --N 64 --s 100 --radius 0.95 --center 0.1 "
                     "--nodes-radial 12 --nodes-angular 32",
                     "6 eigenvalues of Lambda exceed 1, the largest 1.06111814724"),
    "gap_ellipse_q03_n80": ("gap --domain ellipse --q 0.3 --N 80 --s 160 --center 0.2 "
                            "--radius 1.0 --nodes-radial 12 --nodes-angular 32",
                            "11 eigenvalues of Lambda exceed 1, the largest 1.14472677295"),
}


@pytest.mark.parametrize("name", sorted(OVERSHOOT))
def test_gap_with_eigenvalues_above_one_on_the_finest_pass_exits_3(name, capsys):
    # both quadratures are too coarse for their order: without the check
    # the first printed 8.8e-37, some 30 orders below the 3.8e-6 of the
    # centered disk of that radius, and the second a negative probability
    argv, message = OVERSHOOT[name]
    code = cli.main(shlex.split(argv))
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("numerical non-convergence: gap quadrature too coarse")
    assert message in captured.err and "finest pass (48 x 128 nodes)" in captured.err
