import csv
import io
import math
import re
import shlex
from pathlib import Path

import pytest

from casdrift.cli import build_parser, main
from casdrift.config import COMMAND_INPUTS, build_run_config

from conftest import assert_close


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def parse_csv(text):
    meta = {}
    trailing = []
    body = []
    for line in text.splitlines():
        if line.startswith("#"):
            k, _, v = line[1:].partition("=")
            if body:
                trailing.append(line)
            else:
                meta[k.strip()] = v.strip()
        else:
            body.append(line)
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    return meta, rows[0], rows[1:], trailing


def test_materials_table_si(capsys):
    rc, out, _ = run_cli(capsys, "materials", "--material", "Si", "--T", "300")
    assert rc == 0
    meta, header, rows, _ = parse_csv(out)
    assert meta["material"] == "Si"
    assert "config_hash" in meta
    table = {r[0]: float(r[1]) for r in rows}
    assert_close(table["E_g"], 1.12, 5e-3)
    assert_close(table["tau"], 0.5, 5e-2)


def test_reflect_static_te_all_zero(capsys):
    rc, out, _ = run_cli(capsys, "reflect", "--material", "Ge",
                         "--model", "drift", "--xi", "0", "--k", "1e2:1e5:log7")
    assert rc == 0
    _, header, rows, _ = parse_csv(out)
    assert header == ["model", "polarization", "xi_rad_s", "k_cm", "r"]
    te = [float(r[4]) for r in rows if r[1] == "TE"]
    tm = [float(r[4]) for r in rows if r[1] == "TM"]
    assert te and all(v == 0.0 for v in te)
    assert all(0.0 < v < 1.0 for v in tm)


def test_energy_run(capsys):
    rc, out, _ = run_cli(capsys, "energy", "--material", "Ge", "--model",
                         "drift", "--T", "300", "--d", "1")
    assert rc == 0
    meta, header, rows, _ = parse_csv(out)
    assert float(rows[0][1]) < 0.0
    assert meta["casdrift_version"]


def test_fig1_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["fig1", "--material", "Ge", "--T", "300", "--d", "0.5:5:log4"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nmaterial = Ge\nmodel = bare\nt = 200\nd = 2\n")
    rc, out, _ = run_cli(capsys, "reflect", "--config", str(cfg), "--T", "300",
                         "--xi", "0", "--k", "1e4")
    assert rc == 0
    meta, _, rows, _ = parse_csv(out)
    assert meta["T_K"] == "300.0"      # flag wins
    assert meta["model"] == "bare"     # config supplies the rest


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nmaterial = Ge\nfrobnicate = 1\n")
    rc, _, err = run_cli(capsys, "materials", "--config", str(cfg))
    assert rc == 2
    assert "frobnicate" in err


def test_inline_material_section(tmp_path, capsys):
    cfg = tmp_path / "mat.cfg"
    cfg.write_text(
        "[material]\n"
        "name = film\n"
        "eps0 = 12.0\neps_inf = 1.05\nomega0 = 6.0e15\n"
        "nc_prefactor = 2.0e15\nnv_prefactor = 1.0e15\n"
        "gap_e0 = 0.8\ngap_alpha = 4.0e-4\ngap_beta = 300\n"
        "tau0 = 0.5\ntau1 = 0.5\ntau_c1 = 0.0\ntau_c2 = 0.0\n"
        "mass_ratio = 0.2\n"
    )
    rc, out, _ = run_cli(capsys, "materials", "--config", str(cfg), "--T", "300")
    assert rc == 0
    meta, _, rows, _ = parse_csv(out)
    assert meta["material"] == "film"


def test_unknown_material_exits_2(capsys):
    rc, _, err = run_cli(capsys, "materials", "--material", "GaAs")
    assert rc == 2
    assert "GaAs" in err


def test_bad_model_exits_2(capsys):
    rc, _, err = run_cli(capsys, "energy", "--material", "Ge", "--model", "plasma")
    assert rc == 2


def test_bad_tolerance_exits_2(capsys):
    rc, _, err = run_cli(capsys, "energy", "--material", "Ge", "--model",
                         "drift", "--tol-quad", "1e-2")
    assert rc == 2


def _energy_at(capsys, model, T, *flags):
    rc, out, _ = run_cli(capsys, "energy", "--material", "Ge", "--model", model,
                         "--T", T, "--d", "0.5", *flags)
    assert rc == 0
    meta, header, rows, _ = parse_csv(out)
    return meta, rows[0][header.index("E_erg_cm2")]


def test_millikelvin_energy_lies_within_sum_rel_of_zero_temperature(capsys):
    meta, e = _energy_at(capsys, "drift", "0.001")
    _, e0 = _energy_at(capsys, "drift", "0")
    assert abs(float(e) - float(e0)) <= float(meta["tol_sum"]) * abs(float(e0))


def test_energy_at_zero_temperature_drift_writes_bare(capsys):
    # no carriers at T = 0
    meta, e_drift = _energy_at(capsys, "drift", "0")
    assert meta["T_K"] == "0.0"
    assert e_drift == _energy_at(capsys, "bare", "0")[1]


def test_pressure_at_zero_temperature(capsys):
    rc, out, _ = run_cli(capsys, "pressure", "--material", "Ge", "--T", "0", "--d", "1")
    _, header, rows, _ = parse_csv(out)
    assert rc == 0 and float(rows[0][header.index("P_dyn_cm2")]) > 0.0
    assert rows[0][header.index("n_terms")] == "0"


@pytest.mark.parametrize("command", ["materials", "reflect", "entropy", "fig1",
                                     "nonlocal-verify"])
def test_only_energy_and_pressure_take_zero_temperature(command, capsys):
    rc, out, err = run_cli(capsys, command, "--material", "Ge", "--T", "0")
    assert rc == 2 and "--T" in err and out == ""


@pytest.mark.parametrize("model, T, xi, k", [
    ("drift", "1", "1e-160", "1e4"),       # X underflows to 0: EvaluationError
    ("nonlocal", "300", "1e13", "1e160"),  # k^2 overflows
    ("drift", "300", "1e13", "1e160"),     # k^2 overflows: a nan amplitude
])
def test_reflect_arithmetic_failure_exits_3(model, T, xi, k, capsys):
    rc, out, err = run_cli(capsys, "reflect", "--material", "Ge", "--model", model,
                           "--T", T, "--xi", xi, "--k", k)
    assert rc == 3
    assert "numerical failure" in err
    assert "nan" not in out


def test_n_terms_column_counts_the_summed_terms(capsys):
    from casdrift.lifshitz import Geometry, free_energy_per_area, pressure
    from casdrift.materials import GE
    from casdrift.reflection import Drift

    geom = Geometry.identical(1.0e-4, GE, Drift())
    for command, op in (("energy", free_energy_per_area), ("pressure", pressure)):
        rc, out, _ = run_cli(capsys, command, "--material", "Ge", "--model",
                             "drift", "--d", "1")
        assert rc == 0
        _, header, rows, _ = parse_csv(out)
        n_terms = int(rows[0][header.index("n_terms")])
        assert n_terms == len(op(geom, 300.0).per_n_terms)


def test_cond_model_default_sigma0(capsys):
    rc, out, _ = run_cli(capsys, "reflect", "--material", "Ge", "--model",
                         "cond", "--xi", "0", "--k", "1e4")
    assert rc == 0
    _, _, rows, _ = parse_csv(out)
    tm = [float(r[4]) for r in rows if r[1] == "TM"]
    assert tm == [1.0]  # perfect TM reflector at zero frequency


def test_unsorted_distances_exit_2(capsys):
    rc, _, err = run_cli(capsys, "energy", "--material", "Ge", "--model",
                         "drift", "--d", "3,1")
    assert rc == 2
    assert "sorted" in err


def test_reflect_k_in_given_order(capsys):
    # wavevectors need no order: rows follow the list and k_cm records it
    rc, out, _ = run_cli(capsys, "reflect", "--material", "Ge", "--model",
                         "drift", "--xi", "1e14", "--k", "1e5,1e4")
    assert rc == 0
    meta, _, rows, _ = parse_csv(out)
    assert meta["k_cm"] == "100000.0,10000.0"
    assert [float(r[3]) for r in rows] == [1e5, 1e5, 1e4, 1e4]
    for bad in ("1e5,-1e4", "1e5,nan"):
        rc, _, err = run_cli(capsys, "reflect", "--material", "Ge", "--k", bad)
        assert rc == 2 and "positive and finite" in err


def test_sigma0_fraction_syntax(capsys):
    rc, out, _ = run_cli(capsys, "reflect", "--material", "Ge", "--model",
                         "cond", "--sigma0", "1/43", "--xi", "0", "--k", "1e4")
    assert rc == 0


def test_nonlocal_verify_small_grid(capsys):
    rc, out, _ = run_cli(capsys, "nonlocal-verify", "--material", "Ge",
                         "--T", "300", "--nk", "4", "--nxi", "4")
    assert rc == 0
    assert "equivalence = PASS" in out


def test_nonlocal_verify_below_one_kelvin(capsys):
    # the default grid reaches xi/(c k) ~ 3e-9 at 0.1 K; the closed-form
    # h-integrals need no scale-separation guard there
    rc, out, _ = run_cli(capsys, "nonlocal-verify", "--material", "Ge",
                         "--T", "0.1", "--nk", "3", "--nxi", "3")
    assert rc == 0
    assert "equivalence = PASS" in out


def test_nernst_short(capsys):
    rc, out, _ = run_cli(capsys, "nernst", "--material", "Ge", "--model",
                         "drift", "--T-list", "120,60", "--d", "1")
    assert rc == 0
    _, header, rows, trailing = parse_csv(out)
    assert header == ["T_K", "S_erg_cm2K", "error_est"]
    assert len(rows) == 2
    # short sweep never reaches freeze-out: judged on monotonicity alone
    assert any("nernst_trend = PASS" in t for t in trailing)


@pytest.mark.parametrize("model, rc_want", [("drift", 0), ("cond", 4)])
def test_nernst_default_sweep_drift_passes_cond_fails(model, rc_want, capsys):
    # the paper's contrast on the default sweep 300..10 K: the drift
    # entropy falls to 0.002 of its 300 K value, while with a fixed dc
    # conductivity |S| at 10 K stays at 0.6 of it, above the 0.05 asked for
    rc, out, _ = run_cli(capsys, "nernst", "--material", "Ge", "--d", "1",
                         "--model", model)
    assert rc == rc_want
    verdict = "PASS" if rc_want == 0 else "FAIL"
    assert any(f"nernst_trend = {verdict}" in t for t in parse_csv(out)[3])


def test_main_reuses_its_parser(capsys):
    # main builds its parser once per process; a run after others must
    # behave as it does on a parser of its own
    from casdrift import __version__, cli

    runs = [["energy", "--material", "Ge", "--d", "1,2"],
            ["nernst", "--material", "Ge", "--T-list", "120,60"],
            ["energy", "--material", "Ge", "--T-list", "300"],
            ["--version"]]

    def outcome(argv):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = f"exit {exc.code}"
        out = capsys.readouterr()
        return rc, out.out, out.err

    alone = []
    for argv in runs:
        cli._parser.cache_clear()
        alone.append(outcome(argv))
    together = [outcome(argv) for argv in runs]
    assert together == alone
    assert cli._parser.cache_info().misses == 1
    assert [rc for rc, _, _ in alone] == [0, 0, "exit 2", "exit 0"]
    assert "unrecognized arguments: --T-list" in alone[2][2]
    assert alone[3][1] == f"{__version__}\n"


def test_modeplot_g_nonpositive(capsys):
    rc, out, _ = run_cli(capsys, "modeplot", "--material", "Ge", "--model",
                         "drift", "--d", "1", "--T-list", "150,300")
    assert rc == 0
    _, header, rows, _ = parse_csv(out)
    g = [float(r[4]) for r in rows]
    assert all(v <= 0.0 for v in g)
    # screened TM sheet approaches the perfect-conductor mode function at
    # small k and zero frequency
    d = 1e-4
    tm0 = {float(r[3]): float(r[4]) for r in rows
           if r[1] == "TM" and float(r[2]) == 0.0 and r[0] == "3.00000000000e+02"}
    k_min = min(tm0)
    g_pc = math.log1p(-math.exp(-2 * d * k_min))
    assert abs(tm0[k_min] - g_pc) <= 0.05 * abs(g_pc)
    # the TE sheet is essentially temperature independent
    te = {}
    for r in rows:
        if r[1] == "TE":
            te.setdefault((r[2], r[3]), []).append(float(r[4]))
    worst = 0.0
    for vals in te.values():
        if min(vals) < 0:
            worst = max(worst, abs(vals[0] - vals[1]) / abs(min(vals)))
    assert worst < 1e-3


def test_entropy_cli(capsys):
    rc, out, _ = run_cli(capsys, "entropy", "--material", "Ge", "--model",
                         "drift", "--T", "300", "--d", "1")
    assert rc == 0
    _, header, rows, _ = parse_csv(out)
    assert header == ["d_um", "T_K", "S_erg_cm2K", "error_est"]
    assert float(rows[0][2]) > 0.0


def test_entropy_applies_and_records_tolerances(capsys):
    argv = ("entropy", "--material", "Ge", "--model", "drift", "--T", "300", "--d", "1")
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    meta, _, rows, _ = parse_csv(out)
    # entropy runs default to the tighter entropy tolerances
    assert (meta["tol_quad"], meta["tol_sum"]) == ("1e-10", "1e-12")
    rc, out, _ = run_cli(capsys, *argv, "--tol-quad", "1e-6", "--tol-sum", "1e-6")
    assert rc == 0
    meta_loose, _, rows_loose, _ = parse_csv(out)
    assert (meta_loose["tol_quad"], meta_loose["tol_sum"]) == ("1e-06", "1e-06")
    assert rows_loose[0][2] != rows[0][2]


def test_failed_nernst_trend_exits_4(tmp_path, capsys, monkeypatch):
    from casdrift import cli
    from casdrift.thermo import EntropyPoint, NernstReport

    points = tuple(EntropyPoint(T=t, S=1e-10, fd_step=1.0, richardson_error=0.0)
                   for t in (20.0, 10.0))
    monkeypatch.setattr(cli, "nernst_sweep", lambda *a, **kw: NernstReport(
        points=points, monotone_abs_decreasing=False, s_ratio_low_to_high=1.0))
    out = tmp_path / "n.csv"
    rc, _, _ = run_cli(capsys, "nernst", "--material", "Ge", "--T-list", "20,10",
                       "--out", str(out))
    assert rc == 4
    _, _, rows, trailing = parse_csv(out.read_text())
    assert len(rows) == 2
    assert any("nernst_trend = FAIL" in t for t in trailing)


def test_failed_equivalence_exits_4(tmp_path, capsys, monkeypatch):
    from casdrift import cli

    monkeypatch.setattr(cli, "verify_equivalence", lambda *a, **kw: (
        [("TM", 1e3, 1e12, 0.5, 0.6, 0.2)], 0.2))
    out = tmp_path / "v.csv"
    rc, _, _ = run_cli(capsys, "nonlocal-verify", "--material", "Ge", "--out", str(out))
    assert rc == 4
    _, _, rows, trailing = parse_csv(out.read_text())
    assert len(rows) == 1
    assert any("equivalence = FAIL" in t for t in trailing)


def test_malformed_fd_step_exits_2(capsys):
    rc, _, err = run_cli(capsys, "entropy", "--material", "Ge", "--fd-step", "abc")
    assert rc == 2
    assert "--fd-step" in err


def test_fd_step_is_recorded(capsys):
    argv = ("entropy", "--material", "Ge", "--T", "300", "--d", "1")
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    meta, _, rows, _ = parse_csv(out)
    assert "fd_step_K" not in meta
    rc, out, _ = run_cli(capsys, *argv, "--fd-step", "5")
    assert rc == 0
    meta_5, _, rows_5, _ = parse_csv(out)
    assert meta_5["fd_step_K"] == "5.0"
    assert meta_5["config_hash"] != meta["config_hash"]
    assert rows_5[0][2] != rows[0][2]


def test_single_distance_commands_reject_lists(capsys):
    for argv in (("nernst", "--T-list", "120,60"), ("modeplot", "--T-list", "300")):
        rc, out, err = run_cli(capsys, *argv, "--material", "Ge", "--d", "1,2,3")
        assert rc == 2, argv
        assert "one distance" in err and out == ""


def test_malformed_grid_count_exits_2(capsys):
    rc, _, err = run_cli(capsys, "nonlocal-verify", "--material", "Ge", "--nk", "x")
    assert rc == 2
    assert "--nk" in err


def test_empty_grid_exits_2(capsys):
    rc, out, err = run_cli(capsys, "nonlocal-verify", "--material", "Ge",
                           "--nk", "4", "--nxi", "0")
    assert rc == 2
    assert "--nxi" in err
    assert "equivalence" not in out


# two valid values of every input, for any command that reads it
INPUT_VALUES = {
    "material": ("Ge", "Si"),
    "model": ("drift", "bare"),
    "T": ("300", "200"),
    "d": ("1", "2"),
    "sigma0": ("0.02", "0.03"),
    "tol-quad": ("1e-8", "1e-7"),
    "tol-sum": ("1e-10", "1e-9"),
    "fd-step": ("5", "6"),
    "xi": ("0", "1e14"),
    "k": ("1e4", "1e5"),
    "T-list": ("300", "150"),
    "nk": ("3", "4"),
    "nxi": ("3", "4"),
}


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, inputs in COMMAND_INPUTS.items()
    for flag in ("material",) + tuple(inp.flag for inp in inputs)])
def test_read_inputs_reach_the_header(command, flag):
    # the header's config_hash is the hash of the recorded inputs
    hashes = {build_run_config(build_parser().parse_args(
        [command, "--material", "Ge", f"--{flag}", value])).config_hash()
        for value in INPUT_VALUES[flag]}
    assert len(hashes) == 2


@pytest.mark.parametrize("command,flag", [
    ("materials", "model"), ("materials", "d"), ("materials", "sigma0"),
    ("materials", "tol-quad"), ("materials", "tol-sum"),
    ("reflect", "d"), ("reflect", "tol-quad"), ("reflect", "tol-sum"),
    ("fig1", "model"),
    ("nernst", "T"),
    ("nonlocal-verify", "model"), ("nonlocal-verify", "d"), ("nonlocal-verify", "sigma0"),
    ("nonlocal-verify", "tol-quad"), ("nonlocal-verify", "tol-sum"),
    ("modeplot", "T"), ("modeplot", "tol-quad"), ("modeplot", "tol-sum")])
def test_unread_flags_are_rejected(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--material", "Ge", f"--{flag}", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["nernst", "modeplot"])
@pytest.mark.parametrize("bad", ["0", "-5", "nan", "300,-5"])
def test_bad_temperature_list_exits_2_before_any_work(command, bad, capsys, monkeypatch):
    from casdrift import cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "nernst_sweep", no_work)
    monkeypatch.setattr(cli, "g_mode", no_work)
    rc, out, err = run_cli(capsys, command, "--material", "Ge", "--d", "1", "--T-list", bad)
    assert rc == 2
    assert "--T-list" in err and out == ""


def test_unread_config_keys_are_not_recorded(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nmaterial = Ge\nmodel = bare\nd = 2\ntol-quad = 1e-6\n")
    rc, out, _ = run_cli(capsys, "materials", "--config", str(cfg))
    assert rc == 0
    meta, _, _, _ = parse_csv(out)
    assert not {"model", "d_um", "tol_quad"} & set(meta)
    assert meta["T_K"] == "300.0"


def test_readme_command_block_runs(tmp_path, monkeypatch, capsys):
    # every documented command must run as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line for line in block.splitlines() if line.startswith("casdrift ")]
    assert len(commands) == 9
    monkeypatch.chdir(tmp_path)
    for line in commands:
        assert main(shlex.split(line)[1:]) == 0, line


def test_readme_flag_table_matches_the_inputs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("## Library use", 1)[0]
    documented = {}
    for line in section.splitlines():
        cells = line.split("|")
        if line.startswith("| `") and len(cells) == 4:
            flags = re.findall(r"--[\w-]+", cells[2])
            for command in re.findall(r"`([\w-]+)`", cells[1]):
                documented[command] = flags
    assert documented == {command: [f"--{inp.flag}" for inp in inputs]
                          for command, inputs in COMMAND_INPUTS.items()}
