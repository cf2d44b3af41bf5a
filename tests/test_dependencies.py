"""The package imports and runs with only its declared dependencies."""

import os
import subprocess
import sys
from pathlib import Path

import casdrift

# the test-only extras (pyproject's ``test`` group, scipy among them) are
# made unimportable
_SCRIPT = r"""
import importlib, pkgutil, sys

BLOCKED = {"mpmath", "hypothesis", "pytest", "scipy"}

class Block:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in BLOCKED:
            raise ModuleNotFoundError(f"blocked: {name}", name=name)
        return None

sys.meta_path.insert(0, Block())
import casdrift
for info in pkgutil.iter_modules(casdrift.__path__):
    importlib.import_module(f"casdrift.{info.name}")
from casdrift import cli
rc = 0
for argv in (["materials", "--material", "Ge"],
             ["energy", "--material", "Ge", "--model", "drift", "--d", "1"],
             ["modeplot", "--material", "Ge", "--T-list", "300"],
             ["fig1", "--material", "Ge", "--d", "1"]):
    rc = rc or cli.main(argv)
sys.exit(rc)
"""


def test_runs_without_test_extras():
    src = str(Path(casdrift.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "n0" in proc.stdout
    assert "E_erg_cm2" in proc.stdout
    assert "T_K,polarization,xi_rad_s,k_cm,g" in proc.stdout
    assert "d_um,E_bare,E_drift,E_cond,ratio_drift,ratio_cond" in proc.stdout
