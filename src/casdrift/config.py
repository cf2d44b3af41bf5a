"""Run configuration: config-file parsing, flag merging, unit conversion.

Config files are flat key = value text with INI-style sections, e.g.::

    [run]
    material = Ge
    model = drift
    T = 300
    d = 0.1:10:log25
    tol-quad = 1e-8

    [material]
    name = custom-film
    eps0 = 12.0
    eps_inf = 1.05
    omega0 = 6.0e15
    ...

Every [run] key is also available as a command-line flag; flags win.  The
[material] section defines an inline material in practical units (eV, ps,
rad/s, cm^-3) and is used when no --material flag / run key names a
built-in.  Unknown keys are configuration errors (listing the key), not
silent ignores.

Distances are given in micrometres as a single value, a comma list, or a
log sweep ``start:stop:logN``; they are converted to centimetres here,
exactly once.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field
from typing import Optional

from . import phys
from .errors import ConfigError
from .lifshitz import Tolerances
from .materials import (
    DEFAULT_COND_SIGMA0_OHM_CM,
    BUILTIN,
    MaterialSpec,
    SellmeierPermittivity,
    get_material,
)
from .reflection import Bare, Conductivity, Drift, Nonlocal, ReflectionModel
from .thermo import ENTROPY_TOL

__all__ = [
    "RunConfig",
    "parse_distances_um",
    "parse_model",
    "parse_sigma0",
    "load_config_file",
    "build_run_config",
]

_RUN_KEYS = {
    "material", "model", "t", "d", "sigma0", "tol-quad", "tol-sum", "out",
}
_MATERIAL_KEYS = {
    "name", "eps0", "eps_inf", "omega0", "nc_prefactor", "nv_prefactor",
    "gap_e0", "gap_alpha", "gap_beta", "tau0", "tau1", "tau_c1", "tau_c2",
    "mass_ratio", "carrier_doubling",
}


@dataclass(frozen=True)
class RunConfig:
    """Validated effective configuration of one CLI run."""

    material: MaterialSpec
    model: ReflectionModel
    temperature: float
    distances_cm: tuple
    tolerances: Tolerances
    out: Optional[str] = None
    sigma0_ohm_cm: Optional[float] = None
    fd_step: Optional[float] = None  # entropy finite-difference step [K]
    metadata: tuple = field(default_factory=tuple)  # (key, value) pairs, ordered

    def config_hash(self) -> str:
        blob = "\n".join(f"{k} = {v}" for k, v in self.metadata)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def parse_distances_um(text: str) -> tuple:
    """Parse '--d' syntax: '1.0' | '0.5,1,2' | 'start:stop:logN' (um)."""
    text = text.strip()
    try:
        if ":" in text:
            start_s, stop_s, n_s = text.split(":")
            if not n_s.startswith("log"):
                raise ValueError("third field must be logN")
            start, stop, n = float(start_s), float(stop_s), int(n_s[3:])
            if start <= 0 or stop <= start or n < 2:
                raise ValueError("need 0 < start < stop and N >= 2")
            ratio = (stop / start) ** (1.0 / (n - 1))
            vals = [start * ratio**i for i in range(n)]
        elif "," in text:
            vals = [float(s) for s in text.split(",")]
        else:
            vals = [float(text)]
    except ValueError as exc:
        raise ConfigError(f"cannot parse distance list {text!r}: {exc}") from exc
    if any(not math.isfinite(v) or v <= 0.0 for v in vals):
        raise ConfigError(f"distances must be positive and finite: {text!r}")
    if sorted(vals) != vals:
        raise ConfigError(f"distances must be sorted ascending: {text!r}")
    return tuple(vals)


def parse_sigma0(text: str) -> float:
    """dc conductivity in Ohm^-1 cm^-1; accepts '1/43' fraction shorthand."""
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            val = float(num) / float(den)
        else:
            val = float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse sigma0 {text!r}: {exc}") from exc
    if not math.isfinite(val) or val < 0.0:
        raise ConfigError(f"sigma0 must be >= 0, got {text!r}")
    return val


def parse_model(name: str, material: MaterialSpec,
                sigma0_ohm_cm: Optional[float]) -> ReflectionModel:
    """Map a model name to its tag; resolves the conductivity input.

    The conductivity model needs an explicit dc conductivity; built-in
    materials fall back to their measured values (1/43 and 1/2.3e5
    Ohm^-1 cm^-1 for Ge and Si).
    """
    key = name.strip().lower()
    if key == "bare":
        return Bare()
    if key == "drift":
        return Drift()
    if key == "nonlocal":
        return Nonlocal()
    if key == "cond":
        s = sigma0_ohm_cm
        if s is None:
            s = DEFAULT_COND_SIGMA0_OHM_CM.get(material.name)
        if s is None:
            raise ConfigError(
                "the cond model needs --sigma0 (Ohm^-1 cm^-1) for custom materials"
            )
        return Conductivity(sigma0=phys.sigma_gaussian(s))
    raise ConfigError(
        f"unknown model {name!r}; choose from bare|cond|drift|nonlocal"
    )


def _material_from_section(section) -> MaterialSpec:
    unknown = set(k.lower() for k in section) - _MATERIAL_KEYS
    if unknown:
        raise ConfigError(
            f"unknown [material] config keys: {', '.join(sorted(unknown))}"
        )
    def need(key):
        if key not in section:
            raise ConfigError(f"[material] section is missing key {key!r}")
        return section[key]
    try:
        perm = SellmeierPermittivity(
            eps0=float(need("eps0")),
            eps_inf=float(need("eps_inf")),
            omega0=float(need("omega0")),
        )
        return MaterialSpec(
            permittivity=perm,
            nc_prefactor=float(need("nc_prefactor")),
            nv_prefactor=float(need("nv_prefactor")),
            gap_E0=float(need("gap_e0")),
            gap_alpha=float(need("gap_alpha")),
            gap_beta=float(need("gap_beta")),
            tau0_ps=float(need("tau0")),
            tau1_ps=float(need("tau1")),
            tau_C1=float(need("tau_c1")),
            tau_C2=float(need("tau_c2")),
            mass_ratio=float(need("mass_ratio")),
            carrier_doubling=section.getboolean("carrier_doubling", fallback=True),
            name=section.get("name", "custom"),
        )
    except ValueError as exc:
        raise ConfigError(f"bad [material] value: {exc}") from exc


def load_config_file(path: str):
    """Read a config file; returns ({run key: str}, MaterialSpec | None)."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    known_sections = {"run", "material"}
    unknown_sections = set(parser.sections()) - known_sections
    if unknown_sections:
        raise ConfigError(
            f"unknown config sections: {', '.join(sorted(unknown_sections))}"
        )
    run = {}
    if parser.has_section("run"):
        section = parser["run"]
        unknown = set(k.lower() for k in section) - _RUN_KEYS
        if unknown:
            raise ConfigError(
                f"unknown [run] config keys: {', '.join(sorted(unknown))}"
            )
        run = {k.lower(): v for k, v in section.items()}
    material = None
    if parser.has_section("material"):
        material = _material_from_section(parser["material"])
    return run, material


def build_run_config(args, subcommand: str) -> RunConfig:
    """Merge config file and flags (flags win) into a validated RunConfig."""
    run_cfg = {}
    inline_material = None
    if getattr(args, "config", None):
        run_cfg, inline_material = load_config_file(args.config)

    def pick(flag_value, key: str, default=None):
        if flag_value is not None:
            return flag_value
        return run_cfg.get(key, default)

    material_name = pick(getattr(args, "material", None), "material")
    if material_name is not None:
        material = get_material(str(material_name)) \
            if str(material_name) in BUILTIN else None
        if material is None:
            raise ConfigError(
                f"unknown material {material_name!r}; built-ins: "
                f"{sorted(BUILTIN)} (define custom media in a [material] section)"
            )
    elif inline_material is not None:
        material = inline_material
    else:
        raise ConfigError("no material given (--material or [material] section)")

    sigma0_text = pick(getattr(args, "sigma0", None), "sigma0")
    sigma0_val = parse_sigma0(str(sigma0_text)) if sigma0_text is not None else None

    model_name = str(pick(getattr(args, "model", None), "model", "drift"))
    model = parse_model(model_name, material, sigma0_val)

    try:
        temperature = float(pick(getattr(args, "T", None), "t", 300.0))
    except ValueError as exc:
        raise ConfigError(f"bad temperature: {exc}") from exc
    if not math.isfinite(temperature) or temperature <= 0.0:
        raise ConfigError(f"temperature must be positive, got {temperature!r}")

    d_text = str(pick(getattr(args, "d", None), "d", "1.0"))
    distances_um = parse_distances_um(d_text)
    if subcommand in ("nernst", "modeplot") and len(distances_um) > 1:
        raise ConfigError(f"{subcommand} takes one distance, got {d_text!r}")
    distances_cm = tuple(v * phys.CM_PER_UM for v in distances_um)

    # entropy runs default tighter: the finite difference divides the
    # free-energy noise by the temperature step
    default_tol = ENTROPY_TOL if subcommand in ("entropy", "nernst") else Tolerances()
    try:
        tol = Tolerances(
            quad_rel=float(pick(getattr(args, "tol_quad", None), "tol-quad",
                                default_tol.quad_rel)),
            sum_rel=float(pick(getattr(args, "tol_sum", None), "tol-sum",
                               default_tol.sum_rel)),
        )
    except ValueError as exc:
        raise ConfigError(f"bad tolerance: {exc}") from exc

    fd_step_text = getattr(args, "fd_step", None)
    try:
        fd_step = float(fd_step_text) if fd_step_text is not None else None
    except ValueError as exc:
        raise ConfigError(f"cannot parse --fd-step {fd_step_text!r}: {exc}") from exc

    out = pick(getattr(args, "out", None), "out")

    metadata = [
        ("subcommand", subcommand),
        ("material", material.name),
        ("model", model_name.strip().lower()),
        ("T_K", repr(temperature)),
        ("d_um", ",".join(repr(v) for v in distances_um)),
        ("tol_quad", repr(tol.quad_rel)),
        ("tol_sum", repr(tol.sum_rel)),
    ]
    if fd_step is not None:
        metadata.append(("fd_step_K", repr(fd_step)))
    if sigma0_val is not None:
        metadata.append(("sigma0_ohm_cm", repr(sigma0_val)))
    if material.name not in BUILTIN:
        metadata.append(("material_params", repr(material)))

    return RunConfig(
        material=material,
        model=model,
        temperature=temperature,
        distances_cm=distances_cm,
        tolerances=tol,
        out=str(out) if out is not None else None,
        sigma0_ohm_cm=sigma0_val,
        fd_step=fd_step,
        metadata=tuple(metadata),
    )
