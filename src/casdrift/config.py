"""Run configuration: the inputs each command reads, parsed and recorded once.

``COMMAND_INPUTS`` maps every subcommand to the inputs it reads.  The CLI
offers exactly those flags (plus ``--config``, ``--material`` and ``--out``,
which every command takes), and :func:`build_run_config` parses, validates
and records exactly those inputs, so a run's header names every input that
shaped its numbers and no other.

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

The [run] keys material, model, t, d, sigma0, tol-quad, tol-sum and out
stand for the flags of the same name; flags win.  A command reads only the
[run] keys among its inputs, so one file can serve several commands.
The [material] section defines an inline material in practical units (eV,
ps, rad/s, cm^-3) and is used when no --material flag / run key names a
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
from dataclasses import dataclass, replace
from typing import Callable, Optional

from . import phys
from .errors import ConfigError
from .lifshitz import Tolerances
from .materials import (
    DEFAULT_COND_SIGMA0_OHM_CM,
    BUILTIN,
    MaterialSpec,
    SellmeierPermittivity,
)
from .reflection import Bare, Conductivity, Drift, Nonlocal, ReflectionModel
from .thermo import ENTROPY_TOL

__all__ = [
    "COMMAND_INPUTS",
    "RunConfig",
    "parse_distances_um",
    "parse_model",
    "parse_sigma0",
    "load_config_file",
    "build_run_config",
]

# The float [material] keys in reading order, each with its MaterialSpec field;
# the first one missing or not a float decides the error
_MATERIAL_KEYS = {
    "eps0": "eps0", "eps_inf": "eps_inf", "omega0": "omega0",
    "nc_prefactor": "nc_prefactor", "nv_prefactor": "nv_prefactor",
    "gap_e0": "gap_E0", "gap_alpha": "gap_alpha", "gap_beta": "gap_beta",
    "tau0": "tau0_ps", "tau1": "tau1_ps", "tau_c1": "tau_C1", "tau_c2": "tau_C2",
    "mass_ratio": "mass_ratio",
}


@dataclass(frozen=True)
class RunConfig:
    """Validated inputs of one CLI run; those the command does not read stay unset."""

    subcommand: str
    material: MaterialSpec
    metadata: tuple  # (key, value) pairs in header order
    model: Optional[ReflectionModel] = None
    temperature: Optional[float] = None
    distances_cm: tuple = ()
    tolerances: Optional[Tolerances] = None
    sigma0_ohm_cm: Optional[float] = None
    fd_step: Optional[float] = None  # entropy finite-difference step [K]
    xi: tuple = ()                   # rad/s
    k: tuple = ()                    # 1/cm
    T_list: tuple = ()               # K
    n_k: Optional[int] = None
    n_xi: Optional[int] = None
    out: Optional[str] = None

    def config_hash(self) -> str:
        blob = "\n".join(f"{k} = {v}" for k, v in self.metadata)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _positive_list(text: str) -> tuple:
    """Parse 'X' | 'X,Y,Z' | 'start:stop:logN' into positive finite values.

    Values keep their order.  Raises ValueError saying what is wrong.
    """
    text = text.strip()
    if ":" in text:
        start_s, stop_s, n_s = text.split(":")
        if not n_s.startswith("log"):
            raise ValueError("third field must be logN")
        start, stop, n = float(start_s), float(stop_s), int(n_s[3:])
        if start <= 0 or stop <= start or n < 2:
            raise ValueError("need 0 < start < stop and N >= 2")
        ratio = (stop / start) ** (1.0 / (n - 1))
        vals = [start * ratio**i for i in range(n)]
    else:
        vals = [float(s) for s in text.split(",")]
    if any(not math.isfinite(v) or v <= 0.0 for v in vals):
        raise ValueError("values must be positive and finite")
    return tuple(vals)


def parse_distances_um(text: str) -> tuple:
    """Parse '--d' syntax, '1.0' | '0.5,1,2' | 'start:stop:logN' (um), ascending."""
    vals = _positive_list(text)
    if sorted(vals) != list(vals):
        raise ValueError("values must be sorted ascending")
    return vals


def parse_sigma0(text: str) -> float:
    """dc conductivity in Ohm^-1 cm^-1; accepts '1/43' fraction shorthand."""
    num, _, den = text.partition("/")
    val = float(num) / float(den) if den else float(num)
    if not math.isfinite(val) or val < 0.0:
        raise ValueError("sigma0 must be finite and >= 0")
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
    unknown = set(section) - _MATERIAL_KEYS.keys() - {"name", "carrier_doubling"}
    if unknown:
        raise ConfigError(f"unknown [material] config keys: {', '.join(sorted(unknown))}")
    values = {}
    try:
        for key, name in _MATERIAL_KEYS.items():
            if key not in section:
                raise ConfigError(f"[material] section is missing key {key!r}")
            values[name] = float(section[key])
        return MaterialSpec(
            permittivity=SellmeierPermittivity(
                values.pop("eps0"), values.pop("eps_inf"), values.pop("omega0")),
            **values,
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
        unknown = set(section) - _RUN_KEYS
        if unknown:
            raise ConfigError(f"unknown [run] config keys: {', '.join(sorted(unknown))}")
        run = dict(section)
    material = None
    if parser.has_section("material"):
        material = _material_from_section(parser["material"])
    return run, material


# --- the inputs of each command -------------------------------------------------

@dataclass(frozen=True)
class Input:
    """One input a command may read: its flag, header key, parser and default."""

    flag: str                       # command-line flag without the leading "--"
    header: str                     # key the header records it under
    parse: Callable[[str], object]  # raises ValueError or ArithmeticError
    help: str
    default: Optional[str] = None   # None: unset and unrecorded unless given
    file_key: Optional[str] = None  # its [run] key; None: flag only

    @property
    def dest(self) -> str:
        return self.flag.replace("-", "_")


def _float_from_zero(closed: bool):
    """Parser of one finite float in [0, inf) if ``closed``, else in (0, inf)."""
    def parse(text: str) -> float:
        v = float(text)
        if not (math.isfinite(v) and (v >= 0.0 if closed else v > 0.0)):
            raise ValueError(f"must be finite and {'>=' if closed else '>'} 0")
        return v
    return parse


def _comma_list(item: Callable[[str], float]):
    return lambda text: tuple(item(s) for s in text.split(","))


def _count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise ValueError("must be an integer >= 1")
    return n


def _one_distance(text: str) -> tuple:
    vals = parse_distances_um(text)
    if len(vals) > 1:
        raise ValueError("this command takes one distance")
    return vals


def _tolerances(default: Tolerances) -> tuple:
    return (Input("tol-quad", "tol_quad", float, "relative quadrature tolerance",
                  repr(default.quad_rel), "tol-quad"),
            Input("tol-sum", "tol_sum", float, "relative sum-truncation tolerance",
                  repr(default.sum_rel), "tol-sum"))


_MODEL = Input("model", "model", lambda text: text.strip().lower(),
               "bare | cond | drift | nonlocal", "drift", "model")
_T = Input("T", "T_K", _float_from_zero(False), "temperature [K]", "300.0", "t")
_D = Input("d", "d_um", parse_distances_um,
           "separation(s) [um]: X | X,Y,Z | start:stop:logN", "1.0", "d")
_ONE_D = replace(_D, parse=_one_distance, help="separation [um]")
_SIGMA0 = Input("sigma0", "sigma0_ohm_cm", parse_sigma0,
                "dc conductivity [Ohm^-1 cm^-1] for the cond model; "
                "accepts fractions like 1/43", file_key="sigma0")
_TOLS = _tolerances(Tolerances())
# entropy runs default tighter: the finite difference divides the
# free-energy noise by the temperature step
_ENTROPY_TOLS = _tolerances(ENTROPY_TOL)
_T_LIST = Input("T-list", "T_list_K", _comma_list(_float_from_zero(False)),
                "temperatures [K], comma list")
_FD_STEP = Input("fd-step", "fd_step_K", float, "finite-difference step [K]")
_XI = Input("xi", "xi_rad_s", _comma_list(_float_from_zero(True)),
            "imaginary frequencies [rad/s], comma list", "0")
# wavevector lists use the distance-list syntax, read as raw 1/cm, in any order
_K = Input("k", "k_cm", _positive_list,
           "wavevectors [1/cm]: X | X,Y | start:stop:logN", "1e2:1e6:log25")
_NK = Input("nk", "n_k", _count, "number of k grid points (default 20)", "20")
_NXI = Input("nxi", "n_xi", _count, "number of xi grid points (default 20)", "20")

# The inputs each command reads besides --material, in header order.
COMMAND_INPUTS = {
    "materials": (_T,),
    "reflect": (_MODEL, _T, _SIGMA0, _XI, _K),
    "energy": (_MODEL, replace(_T, parse=_float_from_zero(True)), _D, *_TOLS, _SIGMA0),
    "pressure": (_MODEL, replace(_T, parse=_float_from_zero(True)), _D, *_TOLS, _SIGMA0),
    "entropy": (_MODEL, _T, _D, *_ENTROPY_TOLS, _FD_STEP, _SIGMA0),
    "fig1": (_T, _D, *_TOLS, _SIGMA0),
    "nernst": (_MODEL, _ONE_D, *_ENTROPY_TOLS, _SIGMA0,
               replace(_T_LIST, default="300,150,75,40,20,10")),
    "nonlocal-verify": (_T, _NK, _NXI),
    "modeplot": (_MODEL, _ONE_D, _SIGMA0, replace(_T_LIST, default="1,150,300")),
}
_RUN_KEYS = {"material", "out"} | {
    inp.file_key for inputs in COMMAND_INPUTS.values() for inp in inputs if inp.file_key}


def _record(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return ",".join(repr(v) for v in value)
    return repr(value)


def build_run_config(args) -> RunConfig:
    """Parse, validate and record the inputs that ``args.subcommand`` reads.

    Each input comes from its flag, else its [run] key, else its default;
    one without a default stays unset unless given.
    """
    run_cfg, inline_material = {}, None
    if args.config:
        run_cfg, inline_material = load_config_file(args.config)

    def given(dest: str, file_key: Optional[str], default: Optional[str] = None):
        value = getattr(args, dest)
        if value is None and file_key:
            value = run_cfg.get(file_key)
        return default if value is None else value

    name = given("material", "material")
    if name is None and inline_material is None:
        raise ConfigError("no material given (--material or [material] section)")
    if name is not None and name not in BUILTIN:
        raise ConfigError(f"unknown material {name!r}; built-ins: {sorted(BUILTIN)} "
                          "(define custom media in a [material] section)")
    material = inline_material if name is None else BUILTIN[name]

    metadata = [("subcommand", args.subcommand), ("material", material.name)]
    values = {}
    for inp in COMMAND_INPUTS[args.subcommand]:
        text = given(inp.dest, inp.file_key, inp.default)
        if text is None:
            continue
        try:
            values[inp.flag] = value = inp.parse(text)
        except (ValueError, ArithmeticError) as exc:
            raise ConfigError(f"bad --{inp.flag} {text!r}: {exc}") from exc
        metadata.append((inp.header, _record(value)))
    if material.name not in BUILTIN:
        metadata.append(("material_params", repr(material)))

    sigma0 = values.get("sigma0")
    return RunConfig(
        subcommand=args.subcommand,
        material=material,
        metadata=tuple(metadata),
        model=parse_model(values["model"], material, sigma0) if "model" in values else None,
        temperature=values.get("T"),
        distances_cm=tuple(v * phys.CM_PER_UM for v in values.get("d", ())),
        tolerances=Tolerances(values["tol-quad"], values["tol-sum"])
        if "tol-quad" in values else None,
        sigma0_ohm_cm=sigma0,
        fd_step=values.get("fd-step"),
        xi=values.get("xi", ()),
        k=values.get("k", ()),
        T_list=values.get("T-list", ()),
        n_k=values.get("nk"),
        n_xi=values.get("nxi"),
        out=given("out", "out"),
    )
