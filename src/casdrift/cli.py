"""Batch command-line front end.

Subcommands
-----------
materials        temperature-derived material table
reflect          reflection amplitudes on a (xi, k) grid -> CSV
energy           free energy per area over a distance list -> CSV
pressure         pressure over a distance list -> CSV
entropy          entropy at one temperature -> CSV
fig1             distance sweep of drift/cond free-energy ratios -> CSV
nernst           entropy sweep over temperatures at one distance, with
                 trend check -> CSV
nonlocal-verify  drift vs spatial-dispersion amplitude cross-check -> CSV
modeplot         mode-function g^p(i xi, k) samples at one distance for
                 external plotting

All output is CSV with '#'-prefixed metadata lines (package version, config
hash and the full effective configuration), so a run is reproducible from
its own output header.  Numbers are written with 12 significant digits;
identical configuration yields byte-identical output.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 failed verification (``nernst_trend`` or ``equivalence`` reads FAIL; the
CSV is still written).
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable, Optional, Sequence

import numpy as np

from . import __version__, phys
from .config import RunConfig, build_run_config, parse_distances_um, parse_model
from .errors import CasdriftError, ConfigError, DomainError
from .lifshitz import (
    Geometry,
    energy_ratio,
    free_energy_per_area,
    g_mode,
    pressure as pressure_op,
)
from .materials import band_gap, bare_eps, material_state
from .reflection import amplitude_fn
from .spatial import verify_equivalence
from .thermo import entropy as entropy_op, nernst_sweep

_UNITS_NOTE = (
    "frequencies rad/s; wavevectors 1/cm; distances um at the CLI, cm inside; "
    "energy erg/cm^2; pressure dyn/cm^2; entropy erg/(cm^2 K)"
)


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    return f"{v:.11e}"


def _emit(cfg: RunConfig, header: Sequence[str], rows: Iterable[Sequence],
          out: Optional[str], trailing: Sequence[str] = ()) -> None:
    meta = [("casdrift_version", __version__),
            ("config_hash", cfg.config_hash()),
            ("units", _UNITS_NOTE)]
    meta.extend(cfg.metadata)
    lines = [f"# {k} = {v}" for k, v in meta]
    lines.append(",".join(header))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    lines.extend(f"# {t}" for t in trailing)
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_float_list(text: str) -> list:
    try:
        return [float(s) for s in str(text).split(",")]
    except ValueError as exc:
        raise ConfigError(f"cannot parse number list {text!r}: {exc}") from exc


def _parse_count(text: str, name: str) -> int:
    try:
        n = int(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {name} {text!r}: {exc}") from exc
    if n < 1:
        raise ConfigError(f"{name} must be an integer >= 1, got {text!r}")
    return n


# --- subcommand handlers -----------------------------------------------------

def _cmd_materials(args) -> int:
    cfg = build_run_config(args, "materials")
    T = cfg.temperature
    spec = cfg.material
    st = material_state(spec, T)
    rows = [
        ("T", T, "K"),
        ("eps_bare_static", spec.permittivity.eps0, "1"),
        ("eps_bare_xi1", bare_eps(spec, phys.matsubara_xi(1, T)), "1"),
        ("E_g", band_gap(spec, T), "eV"),
        ("tau", st.tau / phys.S_PER_PS, "ps"),
        ("n_c", spec.nc_prefactor * T**1.5, "cm^-3"),
        ("n_v", spec.nv_prefactor * T**1.5, "cm^-3"),
        ("n0", st.n0, "cm^-3"),
        ("sigma0_transport", st.sigma0, "1/s"),
        ("v_T", st.v_T, "cm/s"),
        ("D", st.D, "cm^2/s"),
        ("mobility", st.mobility, "esu"),
        ("kappa", st.kappa, "1/cm"),
        ("R_D", st.R_D / phys.CM_PER_UM, "um"),
        ("lambda_T", phys.thermal_wavelength(T) / phys.CM_PER_UM, "um"),
    ]
    trailing = [f"warning = {w}" for w in st.warnings]
    _emit(cfg, ("quantity", "value", "unit"), rows, cfg.out, trailing)
    return 0


def _cmd_reflect(args) -> int:
    cfg = build_run_config(args, "reflect")
    xis = _parse_float_list(args.xi) if args.xi is not None else [0.0]
    # wavevector lists reuse the distance-list syntax, read as raw 1/cm
    ks = list(parse_distances_um(args.k if args.k is not None else "1e2:1e6:log25"))
    pair = amplitude_fn(cfg.model, cfg.material, cfg.temperature)
    model_name = dict(cfg.metadata)["model"]
    rows = []
    for xi in xis:
        if xi < 0:
            raise ConfigError(f"xi must be >= 0, got {xi}")
        for k in ks:
            r_tm_v, r_te_v = pair(xi, k)
            rows.append((model_name, "TM", xi, k, r_tm_v))
            rows.append((model_name, "TE", xi, k, r_te_v))
    _emit(cfg, ("model", "polarization", "xi_rad_s", "k_cm", "r"), rows, cfg.out)
    return 0


def _cmd_energy(args, kind: str = "energy") -> int:
    cfg = build_run_config(args, kind)
    op = free_energy_per_area if kind == "energy" else pressure_op
    rows = []
    warnings = []
    for d in cfg.distances_cm:
        geom = Geometry.identical(d, cfg.material, cfg.model)
        res = op(geom, cfg.temperature, tolerances=cfg.tolerances)
        rows.append((d / phys.CM_PER_UM, res.value,
                     res.quadrature_error_estimate,
                     res.truncation_error_estimate, res.n_truncated_at))
        warnings.extend(w for w in res.warnings if w not in warnings)
    value_col = "E_erg_cm2" if kind == "energy" else "P_dyn_cm2"
    _emit(cfg, ("d_um", value_col, "quad_err", "trunc_err", "n_terms"),
          rows, cfg.out, [f"warning = {w}" for w in warnings])
    return 0


def _cmd_pressure(args) -> int:
    return _cmd_energy(args, kind="pressure")


def _cmd_fig1(args) -> int:
    cfg = build_run_config(args, "fig1")
    models = [parse_model(name, cfg.material, cfg.sigma0_ohm_cm)
              for name in ("bare", "drift", "cond")]
    rows = []
    for d in cfg.distances_cm:
        e_bare, e_drift, e_cond = (
            free_energy_per_area(Geometry.identical(d, cfg.material, model),
                                 cfg.temperature, tolerances=cfg.tolerances).value
            for model in models)
        rows.append((d / phys.CM_PER_UM, e_bare, e_drift, e_cond,
                     energy_ratio(e_drift, e_bare), energy_ratio(e_cond, e_bare)))
    _emit(cfg, ("d_um", "E_bare", "E_drift", "E_cond",
                "ratio_drift", "ratio_cond"), rows, cfg.out)
    return 0


def _cmd_entropy(args) -> int:
    cfg = build_run_config(args, "entropy")
    rows = []
    warnings = []
    for d in cfg.distances_cm:
        geom = Geometry.identical(d, cfg.material, cfg.model)
        pt = entropy_op(geom, cfg.temperature, fd_step=cfg.fd_step,
                        tolerances=cfg.tolerances)
        rows.append((d / phys.CM_PER_UM, pt.T, pt.S, pt.richardson_error))
        warnings.extend(w for w in pt.warnings if w not in warnings)
    _emit(cfg, ("d_um", "T_K", "S_erg_cm2K", "error_est"), rows, cfg.out,
          [f"warning = {w}" for w in warnings])
    return 0


def _cmd_nernst(args) -> int:
    cfg = build_run_config(args, "nernst")
    T_list = _parse_float_list(args.T_list) if args.T_list is not None \
        else [300.0, 150.0, 75.0, 40.0, 20.0, 10.0]
    geom = Geometry.identical(cfg.distances_cm[0], cfg.material, cfg.model)
    report = nernst_sweep(geom, T_list, tolerances=cfg.tolerances)
    rows = [(pt.T, pt.S, pt.richardson_error) for pt in report.points]
    # the deep-freeze ratio bound only applies when the sweep reaches the
    # carrier freeze-out regime; shorter sweeps are judged on monotonicity
    deep = min(T_list) <= 15.0
    ok = report.monotone_abs_decreasing and (
        report.s_ratio_low_to_high < 0.05 if deep else True)
    trailing = [
        f"monotone_abs_S_below_75K = {report.monotone_abs_decreasing}",
        f"S_ratio_lowT_to_highT = {_fmt(report.s_ratio_low_to_high)}",
        f"nernst_trend = {'PASS' if ok else 'FAIL'}",
    ]
    _emit(cfg, ("T_K", "S_erg_cm2K", "error_est"), rows, cfg.out, trailing)
    if cfg.out:
        print(f"nernst trend: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 4


def _cmd_nonlocal_verify(args) -> int:
    cfg = build_run_config(args, "nonlocal-verify")
    n_k = _parse_count(args.nk, "--nk") if args.nk is not None else 20
    n_xi = _parse_count(args.nxi, "--nxi") if args.nxi is not None else 20
    rows, max_rel = verify_equivalence(cfg.material, cfg.temperature,
                                       n_k=n_k, n_xi=n_xi)
    ok = max_rel <= 1.0e-8
    trailing = [
        f"max_rel_diff = {_fmt(max_rel)}",
        f"equivalence = {'PASS' if ok else 'FAIL'} (tolerance 1e-8)",
    ]
    _emit(cfg, ("polarization", "k_cm", "xi_rad_s", "r_drift",
                "r_nonlocal", "rel_diff"), rows, cfg.out, trailing)
    if cfg.out:
        print(f"nonlocal equivalence: {'PASS' if ok else 'FAIL'} "
              f"(max rel diff {max_rel:.3e})")
    return 0 if ok else 4


def _cmd_modeplot(args) -> int:
    cfg = build_run_config(args, "modeplot")
    T_list = _parse_float_list(args.T_list) if args.T_list is not None \
        else [1.0, 150.0, 300.0]
    geom = Geometry.identical(cfg.distances_cm[0], cfg.material, cfg.model)
    xi_max = 3.0 * phys.matsubara_xi(1, 300.0)
    n_xi = 25
    xis = [xi_max * i / (n_xi - 1) for i in range(n_xi)]
    ks = parse_distances_um("1e2:1e6:log25")  # raw 1/cm values
    k_arr = np.array(ks)
    rows = []
    for T in T_list:
        for xi in xis:
            g_tm, g_te = g_mode(geom, T, xi, k_arr)
            for k, g_tm_k, g_te_k in zip(ks, g_tm.tolist(), g_te.tolist()):
                rows.append((T, "TM", xi, k, g_tm_k))
                rows.append((T, "TE", xi, k, g_te_k))
    _emit(cfg, ("T_K", "polarization", "xi_rad_s", "k_cm", "g"), rows, cfg.out)
    return 0


# --- parser ---------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="config file (flat key=value with sections)")
    p.add_argument("--material", help="built-in material name (Ge | Si)")
    p.add_argument("--model", help="bare | cond | drift | nonlocal")
    p.add_argument("--T", help="temperature [K]")
    p.add_argument("--d", help="separation(s) [um]: X | X,Y,Z | start:stop:logN")
    p.add_argument("--sigma0",
                   help="dc conductivity [Ohm^-1 cm^-1] for the cond model; "
                        "accepts fractions like 1/43")
    p.add_argument("--tol-quad", dest="tol_quad", help="relative quadrature tolerance")
    p.add_argument("--tol-sum", dest="tol_sum", help="relative sum-truncation tolerance")
    p.add_argument("--out", help="output CSV path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casdrift",
        description="Casimir-Lifshitz computations for low-carrier-density media",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for name, handler in (
        ("materials", _cmd_materials),
        ("energy", _cmd_energy),
        ("pressure", _cmd_pressure),
        ("fig1", _cmd_fig1),
    ):
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(handler=handler)

    p = sub.add_parser("reflect")
    _add_common(p)
    p.add_argument("--xi", help="imaginary frequencies [rad/s], comma list")
    p.add_argument("--k", help="wavevectors [1/cm]: X | X,Y | start:stop:logN")
    p.set_defaults(handler=_cmd_reflect)

    p = sub.add_parser("entropy")
    _add_common(p)
    p.add_argument("--fd-step", dest="fd_step", help="finite-difference step [K]")
    p.set_defaults(handler=_cmd_entropy)

    p = sub.add_parser("nernst")
    _add_common(p)
    p.add_argument("--T-list", dest="T_list",
                   help="sweep temperatures [K], comma list")
    p.set_defaults(handler=_cmd_nernst)

    p = sub.add_parser("nonlocal-verify")
    _add_common(p)
    p.add_argument("--nk", help="number of k grid points (default 20)")
    p.add_argument("--nxi", help="number of xi grid points (default 20)")
    p.set_defaults(handler=_cmd_nonlocal_verify)

    p = sub.add_parser("modeplot")
    _add_common(p)
    p.add_argument("--T-list", dest="T_list",
                   help="temperatures [K] for the g-sheets (default 1,150,300)")
    p.set_defaults(handler=_cmd_modeplot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, DomainError) as exc:
        print(f"casdrift: configuration error: {exc}", file=sys.stderr)
        return 2
    except CasdriftError as exc:
        print(f"casdrift: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
