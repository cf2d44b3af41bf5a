"""The package's public surface, pinned, and the README's library example.

Names that only the tests call live in ``tests/oracles.py``; none of them
is exported, and a new export has to be added here on purpose.  The one
exported name that only the tests call is ``IdealMetal``, the reference
model that the closed-form tests run through the engine.  No source
module reaches into another's private names.
"""

import ast
from pathlib import Path

import casdrift

PUBLIC = {
    # submodules
    "errors", "lifshitz", "materials", "phys", "reflection", "spatial", "thermo",
    # errors
    "CasdriftError", "ConfigError", "DomainError", "EvaluationError",
    "ModelValidityError", "NormalizationError", "SummationError",
    # lifshitz
    "Geometry", "Plate", "SummationResult", "SumStats", "Tolerances",
    "energy_ratio", "free_energies", "free_energy_per_area", "g_mode", "pressure",
    "ratio_to_bare",
    # materials
    "BUILTIN", "GE", "SI", "MaterialSpec", "MaterialState", "SellmeierPermittivity",
    "band_gap", "bare_eps", "carrier_density", "material_state", "relaxation_time",
    # phys
    "matsubara_xi", "sigma_gaussian", "thermal_wavelength",
    # reflection
    "Bare", "Conductivity", "Drift", "IdealMetal", "Nonlocal",
    "ReflectionModel", "amplitude_fn",
    # spatial
    "eps_perp_drift", "r_from_H_tilde", "verify_equivalence",
    # thermo
    "EntropyPoint", "NernstReport", "entropy", "nernst_sweep",
}


def test_public_names_are_pinned():
    assert set(casdrift.__all__) == PUBLIC
    assert len(casdrift.__all__) == len(PUBLIC)


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_uses_another_modules_private_names():
    # flags `from .m import _x` and `m._x` for another casdrift module m
    src = Path(casdrift.__file__).resolve().parent
    modules = {p.stem for p in src.glob("*.py")}
    hits = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        others = set()  # local names bound to another casdrift module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or node.module.split(".")[0] == "casdrift"):
                for a in node.names:
                    if node.module in (None, "casdrift") and a.name in modules:
                        if a.name != path.stem:
                            others.add(a.asname or a.name)
                    elif _is_private(a.name):
                        hits.append(f"{path.name}: from {node.module} import {a.name}")
        hits += [f"{path.name}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in others and _is_private(node.attr)]
    assert hits == []


def test_readme_library_block_runs():
    # the documented API must run as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
