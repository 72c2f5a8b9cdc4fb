import argparse
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import potens.cli as cli
from potens.errors import ConvergenceError


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
    # a config file passes the same key check as config_from_text
    cfgfile = tmp_path / "study.cfg"
    cfgfile.write_text("domain=disk\nnmax=2\ns=25\nbogus=1\n")
    with pytest.raises(cli.ConfigError):
        cli.config_from_text(cfgfile.read_text())
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


def test_cli_import_loads_no_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys, potens.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


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
])
def test_out_of_range_values_exit_2_without_traceback(argv, reason, capsys):
    code = cli.main(argv.split())
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("config error") and reason in captured.err
    assert "Traceback" not in captured.err


def test_gap_at_s_inf_has_finite_radial_oracle(capsys):
    code, out = run_cli(["gap", "--domain", "disk", "--N", "4", "--srule", "inf",
                         "--radius", "0.5"], capsys)
    assert code == 0
    rows = dict(line.split(",,") for line in out.splitlines() if ",," in line)
    assert float(rows["radial_oracle"]) == pytest.approx(
        math.prod(1 - 0.5 ** (2 * n + 2) for n in range(4)), rel=1e-15)
    assert float(rows["abs_err"]) < 1e-12


def readme_cli_section() -> str:
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def test_readme_cli_block_runs_and_its_table_matches_the_parser(tmp_path, capsys):
    section = readme_cli_section()
    block = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    lines = [line for line in block.splitlines() if line.strip()]
    assert len(lines) == 6
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "potens"
        argv = argv[1:]
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / argv[i])
        assert cli.main(argv) == 0, (line, capsys.readouterr().err)
        capsys.readouterr()
    table = {m.group(1): set(re.findall(r"--[\w-]+", m.group(2)))
             for m in re.finditer(r"^\| `(\w+)` \|(.*)\|$", section, re.M)}
    assert table == {c: opts - {"--config"} for c, opts in parser_options().items()}
