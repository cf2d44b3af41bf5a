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

Each command offers ``--config``, ``--material`` and ``--out`` plus one flag
per input it reads, as listed in ``config.COMMAND_INPUTS`` (``casdrift
<command> --help`` shows them).  All output is CSV with '#'-prefixed
metadata lines: package version, config hash and every input the command
read, so a run is reproducible from its own output header.  Numbers are
written with 12 significant digits; identical configuration yields
byte-identical output.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 failed verification (``nernst_trend`` or ``equivalence`` reads FAIL; the
CSV is still written).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Iterable, Sequence

import numpy as np

from . import __version__, phys
from .config import (COMMAND_INPUTS, RunConfig, build_run_config,
                     parse_distances_um, parse_model)
from .errors import CasdriftError, ConfigError, DomainError, EvaluationError
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
    if isinstance(v, int):
        return str(v)
    return f"{v:.11e}"


def _emit(cfg: RunConfig, header: Sequence[str], rows: Iterable[Sequence],
          trailing: Sequence[str] = ()) -> None:
    meta = [("casdrift_version", __version__),
            ("config_hash", cfg.config_hash()),
            ("units", _UNITS_NOTE)]
    meta.extend(cfg.metadata)
    lines = [f"# {k} = {v}" for k, v in meta]
    lines.append(",".join(header))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    lines.extend(f"# {t}" for t in trailing)
    text = "\n".join(lines) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- subcommand handlers -----------------------------------------------------

def _cmd_materials(cfg: RunConfig) -> int:
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
    _emit(cfg, ("quantity", "value", "unit"), rows, trailing)
    return 0


def _cmd_reflect(cfg: RunConfig) -> int:
    pair = amplitude_fn(cfg.model, cfg.material, cfg.temperature)
    model_name = dict(cfg.metadata)["model"]
    rows = []
    for xi in cfg.xi:
        for k in cfg.k:
            r_tm_v, r_te_v = pair(xi, k)
            if not (math.isfinite(r_tm_v) and math.isfinite(r_te_v)):
                raise EvaluationError("non-finite reflection amplitude", k=k, xi=xi)
            rows.append((model_name, "TM", xi, k, r_tm_v))
            rows.append((model_name, "TE", xi, k, r_te_v))
    _emit(cfg, ("model", "polarization", "xi_rad_s", "k_cm", "r"), rows)
    return 0


def _cmd_energy(cfg: RunConfig) -> int:
    op = free_energy_per_area if cfg.subcommand == "energy" else pressure_op
    rows = []
    warnings = []
    for d in cfg.distances_cm:
        geom = Geometry.identical(d, cfg.material, cfg.model)
        res = op(geom, cfg.temperature, tolerances=cfg.tolerances)
        rows.append((d / phys.CM_PER_UM, res.value,
                     res.quadrature_error_estimate,
                     res.truncation_error_estimate, len(res.per_n_terms)))
        warnings.extend(w for w in res.warnings if w not in warnings)
    value_col = "E_erg_cm2" if cfg.subcommand == "energy" else "P_dyn_cm2"
    _emit(cfg, ("d_um", value_col, "quad_err", "trunc_err", "n_terms"),
          rows, [f"warning = {w}" for w in warnings])
    return 0


def _cmd_fig1(cfg: RunConfig) -> int:
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
                "ratio_drift", "ratio_cond"), rows)
    return 0


def _cmd_entropy(cfg: RunConfig) -> int:
    rows = []
    warnings = []
    for d in cfg.distances_cm:
        geom = Geometry.identical(d, cfg.material, cfg.model)
        pt = entropy_op(geom, cfg.temperature, fd_step=cfg.fd_step,
                        tolerances=cfg.tolerances)
        rows.append((d / phys.CM_PER_UM, pt.T, pt.S, pt.richardson_error))
        warnings.extend(w for w in pt.warnings if w not in warnings)
    _emit(cfg, ("d_um", "T_K", "S_erg_cm2K", "error_est"), rows,
          [f"warning = {w}" for w in warnings])
    return 0


def _cmd_nernst(cfg: RunConfig) -> int:
    geom = Geometry.identical(cfg.distances_cm[0], cfg.material, cfg.model)
    report = nernst_sweep(geom, cfg.T_list, tolerances=cfg.tolerances)
    rows = [(pt.T, pt.S, pt.richardson_error) for pt in report.points]
    # the deep-freeze ratio bound only applies when the sweep reaches the
    # carrier freeze-out regime; shorter sweeps are judged on monotonicity
    deep = min(cfg.T_list) <= 15.0
    ok = report.monotone_abs_decreasing and (
        report.s_ratio_low_to_high < 0.05 if deep else True)
    trailing = [
        f"monotone_abs_S_below_75K = {report.monotone_abs_decreasing}",
        f"S_ratio_lowT_to_highT = {_fmt(report.s_ratio_low_to_high)}",
        f"nernst_trend = {'PASS' if ok else 'FAIL'}",
    ]
    _emit(cfg, ("T_K", "S_erg_cm2K", "error_est"), rows, trailing)
    if cfg.out:
        print(f"nernst trend: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 4


def _cmd_nonlocal_verify(cfg: RunConfig) -> int:
    rows, max_rel = verify_equivalence(cfg.material, cfg.temperature,
                                       n_k=cfg.n_k, n_xi=cfg.n_xi)
    ok = max_rel <= 1.0e-8
    trailing = [
        f"max_rel_diff = {_fmt(max_rel)}",
        f"equivalence = {'PASS' if ok else 'FAIL'} (tolerance 1e-8)",
    ]
    _emit(cfg, ("polarization", "k_cm", "xi_rad_s", "r_drift",
                "r_nonlocal", "rel_diff"), rows, trailing)
    if cfg.out:
        print(f"nonlocal equivalence: {'PASS' if ok else 'FAIL'} "
              f"(max rel diff {max_rel:.3e})")
    return 0 if ok else 4


def _cmd_modeplot(cfg: RunConfig) -> int:
    geom = Geometry.identical(cfg.distances_cm[0], cfg.material, cfg.model)
    xi_max = 3.0 * phys.matsubara_xi(1, 300.0)
    n_xi = 25
    xis = [xi_max * i / (n_xi - 1) for i in range(n_xi)]
    ks = parse_distances_um("1e2:1e6:log25")  # raw 1/cm values
    k_arr = np.array(ks)
    rows = []
    for T in cfg.T_list:
        for xi in xis:
            g_tm, g_te = g_mode(geom, T, xi, k_arr)
            for k, g_tm_k, g_te_k in zip(ks, g_tm.tolist(), g_te.tolist()):
                rows.append((T, "TM", xi, k, g_tm_k))
                rows.append((T, "TE", xi, k, g_te_k))
    _emit(cfg, ("T_K", "polarization", "xi_rad_s", "k_cm", "g"), rows)
    return 0


_HANDLERS = {
    "materials": _cmd_materials,
    "reflect": _cmd_reflect,
    "energy": _cmd_energy,
    "pressure": _cmd_energy,
    "entropy": _cmd_entropy,
    "fig1": _cmd_fig1,
    "nernst": _cmd_nernst,
    "nonlocal-verify": _cmd_nonlocal_verify,
    "modeplot": _cmd_modeplot,
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, offering exactly the inputs it reads."""
    parser = argparse.ArgumentParser(
        prog="casdrift",
        description="Casimir-Lifshitz computations for low-carrier-density media",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, inputs in COMMAND_INPUTS.items():
        # no abbreviations: nernst --T must not reach --T-list
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", help="config file (flat key=value with sections)")
        p.add_argument("--material", help="built-in material name (Ge | Si)")
        for inp in inputs:
            p.add_argument(f"--{inp.flag}", help=inp.help)
        p.add_argument("--out", help="output CSV path (default: stdout)")
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """:func:`main`'s parser, built on its first call: a build takes about 3 ms."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _HANDLERS[args.subcommand](build_run_config(args))
    except (ConfigError, DomainError) as exc:
        print(f"casdrift: configuration error: {exc}", file=sys.stderr)
        return 2
    except (CasdriftError, ArithmeticError) as exc:
        print(f"casdrift: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
