"""The benchmark's workloads: inputs from a seed, timed calls, checks.

Each workload is built from ``(seed, small)``; building it imports casdrift
and makes every input the program will receive, which is what ``setup_s``
measures.  ``round()`` makes one pass over the workload's fixed list of
operations, times each call into casdrift with ``time.perf_counter`` and
checks each output outside the timed region.  ``finish()`` runs the checks
that need references computed after all rounds.  A failed check or an
exception marks its operation as failed; it never stops the run.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass, field
from time import perf_counter

import reference as ref

CHECK_TOL = {
    "e_drift_1um": 1e-9,   # against the 30-digit frozen value
    "closed_form": 1e-5,   # n = 0 closed forms at d = 10 um
    "swap": 1e-12,         # P(plate1, plate2) against P(plate2, plate1)
    "fd": 1e-5,            # P against the centred difference of E
    "equivalence": 1e-8,   # Drift against Nonlocal amplitudes
    "static": 1e-9,        # xi = 0 amplitudes against their closed forms
}


@dataclass
class Op:
    """One timed operation: its label, wall time, output and failed checks."""

    label: str
    seconds: float
    output: object = None
    failures: list = field(default_factory=list)


@dataclass
class Round:
    """One pass over a workload's operations; ``wall`` spans its timed calls."""

    wall: float
    ops: list


def parse_csv(text: str):
    """(header, rows of strings, trailer dict) of a casdrift CSV file."""
    lines = text.splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    if not body:
        return [], [], {}
    trailer = {}
    for ln in lines[lines.index(body[0]) + 1:]:
        if ln.startswith("# ") and " = " in ln:
            key, _, value = ln[2:].partition(" = ")
            trailer[key] = value
    return body[0].split(","), [ln.split(",") for ln in body[1:]], trailer


def _log_points(seed_rng, lo_exp: float, hi_exp: float, n: int, jitter: float):
    """n points 10^e, e evenly spaced in [lo_exp, hi_exp]; interior e moved
    by up to +-jitter of the spacing, the ends and the midpoint kept fixed."""
    step = (hi_exp - lo_exp) / (n - 1)
    anchors = {0, (n - 1) // 2, n - 1}
    exps = [lo_exp + i * step + (0.0 if i in anchors else seed_rng.uniform(-jitter, jitter) * step)
            for i in range(n)]
    return [float(f"1e{round(e)}") if i in anchors else 10.0**e for i, e in enumerate(exps)]


class Workload:
    """A workload's hooks around its rounds; both do nothing unless overridden."""

    def prepare(self):
        """Compute references that need no casdrift call, before any round."""

    def finish(self, rounds):
        """Run the checks that need casdrift calls of their own, after all rounds."""


def _run_cli(cli, argv, out_path):
    """Time ``casdrift.cli.main(argv)``; return (seconds, exit code, CSV text)."""
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = perf_counter()
        rc = cli.main(argv)
        dt = perf_counter() - t0
    with open(out_path, encoding="utf-8") as fh:
        return dt, rc, fh.read()


class Fig1(Workload):
    """The CLI ``fig1`` command for Ge at 300 K, one call per distance row."""

    T = 300.0

    def __init__(self, seed: int, small: bool, workdir: str):
        from casdrift import cli

        self.cli = cli
        self.out = os.path.join(workdir, "fig1.csv")
        self.d_um = _log_points(random.Random(seed), -1.0, 1.0, 5 if small else 25, 0.25)
        self.argv = [["fig1", "--material", "Ge", "--T", "300", "--d", repr(d),
                      "--out", self.out] for d in self.d_um]
        self.closed = None

    def prepare(self):
        self.closed = ref.ge_n0_free_energies(10.0e-4, self.T)

    def round(self) -> Round:
        ops = []
        for d, argv in zip(self.d_um, self.argv):
            op = Op(f"fig1 d={d:.6g}um", 0.0)
            try:
                op.seconds, rc, text = _run_cli(self.cli, argv, self.out)
                op.output = text
                op.failures = self.check_row(d, rc, text)
            except Exception as exc:  # a failed operation must not stop the run
                op.failures = [f"raised {exc!r}"]
            ops.append(op)
        return Round(sum(op.seconds for op in ops), ops)

    def check_row(self, d: float, rc: int, text: str) -> list:
        if rc != 0:
            return [f"exit code {rc}"]
        header, rows, _ = parse_csv(text)
        if len(rows) != 1:
            return [f"{len(rows)} rows, expected 1"]
        row = dict(zip(header, map(float, rows[0])))
        e_bare, e_drift, e_cond = row["E_bare"], row["E_drift"], row["E_cond"]
        fails = []
        if ref.rel(row["d_um"], d) > 1e-10:
            fails.append(f"row for d={row['d_um']} um, asked {d}")
        if not (e_cond <= e_drift <= e_bare < 0.0):
            fails.append(f"order E_cond <= E_drift <= E_bare < 0 broken: {e_cond}, {e_drift}, {e_bare}")
        if d == 1.0 and ref.rel(e_drift, ref.GE_E_DRIFT_1UM_300K) > CHECK_TOL["e_drift_1um"]:
            fails.append(f"E_drift(1 um) = {e_drift!r}, 30-digit value {ref.GE_E_DRIFT_1UM_300K!r}")
        if d == 10.0:
            for key, val in (("bare", e_bare), ("drift", e_drift), ("cond", e_cond)):
                if ref.rel(val, self.closed[key]) > CHECK_TOL["closed_form"]:
                    fails.append(f"E_{key}(10 um) = {val!r}, closed form {self.closed[key]!r}")
        return fails


class Nernst(Workload):
    """The CLI ``nernst`` command for Ge/drift at 1 um down to 10 K."""

    def __init__(self, seed: int, small: bool, workdir: str):
        from casdrift import cli, thermo

        self.cli, self.thermo = cli, thermo
        self.out = os.path.join(workdir, "nernst.csv")
        self.T_list = (300.0, 150.0) if small else (300.0, 150.0, 75.0, 40.0, 20.0, 10.0)
        self.argv = ["nernst", "--material", "Ge", "--model", "drift", "--d", "1",
                     "--T-list", ",".join(repr(t) for t in self.T_list), "--out", self.out]

    def round(self) -> Round:
        # each entropy point is an operation; nernst_sweep looks up
        # thermo.entropy per point, so a thin timer there times the points
        times = []
        inner = self.thermo.entropy

        def timed_entropy(*args, **kwargs):
            t0 = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                times.append(perf_counter() - t0)

        self.thermo.entropy = timed_entropy
        wall, shared, text = 0.0, [], ""
        try:
            wall, rc, text = _run_cli(self.cli, self.argv, self.out)
            if rc != 0:
                shared.append(f"exit code {rc}")
        except Exception as exc:  # a failed operation must not stop the run
            shared.append(f"raised {exc!r}")
        finally:
            self.thermo.entropy = inner
        ops = [Op(f"nernst T={T:g}K", times[i] if i < len(times) else 0.0)
               for i, T in enumerate(self.T_list)]
        for op, fails in zip(ops, self.check_sweep(text) if not shared else [[]] * len(ops)):
            op.failures = shared + fails
        return Round(wall, ops)

    def check_sweep(self, text: str) -> list:
        """Failure lists, one per temperature of the sweep."""
        header, rows, trailer = parse_csv(text)
        sweep = []
        if trailer.get("nernst_trend") != "PASS":
            sweep.append(f"nernst_trend = {trailer.get('nernst_trend')}")
        if len(rows) != len(self.T_list):
            sweep.append(f"{len(rows)} rows, expected {len(self.T_list)}")
        per_point = []
        for i, T in enumerate(self.T_list):
            fails = list(sweep)
            if i < len(rows):
                row = dict(zip(header, map(float, rows[i])))
                S, err = row["S_erg_cm2K"], row["error_est"]
                if row["T_K"] != T:
                    fails.append(f"row T = {row['T_K']}, expected {T}")
                if not (math.isfinite(S) and S > 0.0):
                    fails.append(f"S({T} K) = {S!r} is not finite and positive")
                if not err < abs(S):
                    fails.append(f"error_est {err!r} not below |S| = {abs(S)!r} at {T} K")
            per_point.append(fails)
        return per_point


class PressureMixed(Workload):
    """``pressure`` between Ge/Drift and Si/Nonlocal plates at 300 K and 77 K."""

    def __init__(self, seed: int, small: bool, workdir: str):
        from casdrift import GE, SI, Drift, Geometry, Nonlocal, Plate, lifshitz

        self.lifshitz, self.Geometry = lifshitz, Geometry
        self.plates = (Plate(GE, Drift()), Plate(SI, Nonlocal()))
        rng = random.Random(seed)
        if small:
            grid = {300.0: [1.0, 10.0]}
        else:
            # 5 distances per T; the interior ones move by up to +-0.02 decade
            grid = {T: _log_points(rng, -1.0, 1.0, 5, 0.04) for T in (300.0, 77.0)}
        self.cases = [(T, d, Geometry(d * 1e-4, *self.plates))
                      for T, ds in grid.items() for d in ds]

    def round(self) -> Round:
        ops = []
        for T, d, geom in self.cases:
            op = Op(f"pressure T={T:g}K d={d:.6g}um", 0.0)
            try:
                t0 = perf_counter()
                res = self.lifshitz.pressure(geom, T)
                op.seconds = perf_counter() - t0
                op.output = res.value
                if not (math.isfinite(res.value) and res.value > 0.0):
                    op.failures.append(f"P = {res.value!r} is not finite and positive")
            except Exception as exc:  # a failed operation must not stop the run
                op.failures.append(f"raised {exc!r}")
            ops.append(op)
        for (T0, _, _), (T1, d1, _), prev, op in zip(self.cases, self.cases[1:], ops, ops[1:]):
            if T0 == T1 and prev.output is not None and op.output is not None \
                    and not op.output < prev.output:
                op.failures.append(f"P does not decrease with d at {T1} K, d = {d1} um")
        return Round(sum(op.seconds for op in ops), ops)

    def finish(self, rounds):
        from casdrift import Tolerances

        p1, p2 = self.plates
        # P = dE/dd by a centred difference at the 1 um anchor of each T,
        # with tight tolerances so the difference quotient carries no
        # quadrature noise at the 1e-5 level
        tight = Tolerances(quad_rel=1e-10, sum_rel=1e-12)

        def centred(T, d):
            h = 1e-3 * d
            e_hi, e_lo = (self.lifshitz.free_energy_per_area(
                self.Geometry(d + s * h, p1, p2), T, tolerances=tight).value for s in (1.0, -1.0))
            return (e_hi - e_lo) / (2.0 * h)

        try:
            # the plate swap at the fixed 1 and 10 um anchors: the 0.1 um
            # ones would cost as much as half a round
            swapped = {(T, d): self.lifshitz.pressure(self.Geometry(geom.d, p2, p1), T).value
                       for T, d, geom in self.cases if d in (1.0, 10.0)}
            fd = {T: centred(T, geom.d) for T, d, geom in self.cases if d == 1.0}
        except Exception as exc:  # a failed reference fails the checks, not the run
            for rnd in rounds:
                for op in rnd.ops:
                    op.failures.append(f"swap or derivative reference raised {exc!r}")
            return
        for rnd in rounds:
            for (T, d, _), op in zip(self.cases, rnd.ops):
                if op.output is None:
                    continue
                p_swap = swapped.get((T, d), op.output)
                if ref.rel(op.output, p_swap) > CHECK_TOL["swap"]:
                    op.failures.append(f"swapped plates give P = {p_swap!r}, not {op.output!r}")
                if d == 1.0 and ref.rel(op.output, fd[T]) > CHECK_TOL["fd"]:
                    op.failures.append(f"P = {op.output!r}, centred difference of E {fd[T]!r}")


class Pointwise(Workload):
    """Amplitude pairs of the four models on Matsubara (xi, k) grids."""

    MODELS = ("bare", "cond", "drift", "nonlocal")

    def __init__(self, seed: int, small: bool, workdir: str):
        from casdrift import GE, Bare, Conductivity, Drift, Nonlocal, reflection, spatial

        self.reflection, self.spatial, self.spec = reflection, spatial, GE
        # 1/43 Ohm^-1 cm^-1 in Gaussian units: sigma [1/s] = c^2 1e-9 sigma [S/cm]
        sigma0 = (1.0 / 43.0) * 2.99792458e10**2 * 1e-9
        self.models = dict(zip(self.MODELS, (Bare(), Conductivity(sigma0), Drift(), Nonlocal())))
        rng = random.Random(seed)
        n_xi, n_k = (4, 16) if small else (32, 1024)
        self.blocks = []
        for T in ((300.0,) if small else (300.0, 77.0, 20.0)):
            ks = sorted(10.0 ** rng.uniform(2.0, 7.0) for _ in range(n_k))
            points = [(ref.matsubara_xi(n, T), k) for n in range(n_xi) for k in ks]
            self.blocks.append((T, ks, points))

    def round(self) -> Round:
        ops = []
        for T, ks, points in self.blocks:
            outputs = {}
            for name in self.MODELS:
                op = Op(f"pairs {name} T={T:g}K", 0.0)
                try:
                    t0 = perf_counter()
                    pair = self.reflection.amplitude_fn(self.models[name], self.spec, T)
                    out = [pair(xi, k) for xi, k in points]
                    op.seconds = perf_counter() - t0
                    outputs[name] = out
                    op.failures = self.check_block(name, T, ks, out)
                except Exception as exc:  # a failed operation must not stop the run
                    op.failures = [f"raised {exc!r}"]
                ops.append(op)
            if "drift" in outputs and "nonlocal" in outputs:
                bad = self.check_equivalence(outputs["drift"], outputs["nonlocal"], points)
                for op in ops[-2:]:
                    op.failures.extend(bad)
            op = Op(f"verify_equivalence T={T:g}K", 0.0)
            try:
                t0 = perf_counter()
                rows, max_rel = self.spatial.verify_equivalence(self.spec, T)
                op.seconds = perf_counter() - t0
                op.failures = self.check_verify(rows, max_rel)
            except Exception as exc:  # a failed operation must not stop the run
                op.failures = [f"raised {exc!r}"]
            ops.append(op)
        return Round(sum(op.seconds for op in ops), ops)

    @staticmethod
    def check_block(name: str, T: float, ks, out) -> list:
        fails = []
        n_out = sum(1 for tm, te in out if not (abs(tm) <= 1.0 and abs(te) <= 1.0))
        if n_out:
            fails.append(f"{name}: {n_out} pairs with |r| > 1 or not finite")
        # the first len(ks) points sit at xi = 0
        for k, (tm, te) in zip(ks, out):
            want = ref.static_tm(name, k, T)
            if ref.rel(tm, want) > CHECK_TOL["static"] or te != 0.0:
                fails.append(f"{name}: r(0, k={k:.4e}) = ({tm!r}, {te!r}), closed form ({want!r}, 0)")
                break
        return fails

    @staticmethod
    def check_equivalence(drift, nonloc, points) -> list:
        tol = CHECK_TOL["equivalence"]
        for (xi, k), a, b in zip(points, drift, nonloc):
            if ref.rel(a[0], b[0]) > tol or ref.rel(a[1], b[1]) > tol:
                return [f"Drift {a} and Nonlocal {b} differ at xi={xi:.4e}, k={k:.4e}"]
        return []

    @staticmethod
    def check_verify(rows, max_rel) -> list:
        tol = CHECK_TOL["equivalence"]
        fails = []
        if len(rows) != 800:
            fails.append(f"verify_equivalence gave {len(rows)} rows, expected 800")
        worst = max((ref.rel(r_d, r_n) for _, _, _, r_d, r_n, _ in rows), default=math.inf)
        if not (worst <= tol and max_rel <= tol):
            fails.append(f"verify_equivalence: rel diff {worst!r} (reported {max_rel!r}) > {tol}")
        return fails


WORKLOADS = {
    "fig1": Fig1,
    "nernst": Nernst,
    "pressure_mixed": PressureMixed,
    "pointwise": Pointwise,
}


def build(name: str, seed: int, small: bool, workdir: str):
    """Import casdrift and make the workload's inputs."""
    return WORKLOADS[name](seed, small, workdir)
