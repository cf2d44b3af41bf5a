"""Tests of the benchmark itself: it runs, its checks bite, its trace is whole.

Run with ``python -m pytest bench/tests -q`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, Round  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = list(workloads.WORKLOADS)
COUNTS = ("lifshitz.sums", "lifshitz.terms", "lifshitz.evals_per_term",
          "reflection.pair_calls", "thermo.sums_per_point", "materials.states_built")


def run_bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    out = {}
    for name in WORKLOADS:
        out[name] = result_of(run_bench("--workload", name, "--seed", "5", "--seconds", "0.5",
                                        "--trace", "1", "--small"))
    return out


# --- every workload runs to its end -----------------------------------------

@pytest.mark.parametrize("name", WORKLOADS)
def test_small_run_completes_with_every_end_to_end_metric(name):
    res = result_of(run_bench("--workload", name, "--seed", "7", "--seconds", "0.5", "--small"))
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(traced):
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, res in traced.items():
        assert res["correct"] is True, name
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want, name


def test_trace_counts_repeat_exactly(traced):
    again = result_of(run_bench("--workload", "fig1", "--seed", "5", "--seconds", "0.5",
                                "--trace", "1", "--small"))
    for key in COUNTS:
        assert again["metrics"][key]["value"] == traced["fig1"]["metrics"][key]["value"], key


def test_trace_sees_the_layers_each_workload_uses(traced):
    m = {name: {k: v["value"] for k, v in res["metrics"].items()} for name, res in traced.items()}
    assert m["nernst"]["thermo.sums_per_point"] == 4
    assert m["fig1"]["lifshitz.sums"] == 15 and m["fig1"]["materials.states_built"] == 3
    # identical plates share one wrapped closure: one pair call per integrand
    # evaluation; two distinct plates need two
    assert 100 < m["fig1"]["lifshitz.evals_per_term"] < 400
    assert m["pressure_mixed"]["reflection.pair_calls"] == m["pressure_mixed"]["spatial.pair_calls"]
    assert m["pointwise"]["lifshitz.sums"] == 0 and m["pointwise"]["spatial.nonlocal.pair_us"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "fig1", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# --- each check rejects a perturbed output ----------------------------------

def _replace_field(text, column, scale):
    lines = text.splitlines()
    i = next(j for j, ln in enumerate(lines) if not ln.startswith("#"))
    col = lines[i].split(",").index(column)
    cells = lines[i + 1].split(",")
    cells[col] = repr(float(cells[col]) * scale)
    lines[i + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fig1(tmp_path_factory):
    wl = workloads.build("fig1", 1, True, str(tmp_path_factory.mktemp("fig1")))
    wl.prepare()
    rows = {op.label: op.output for op in wl.round().ops}
    return wl, rows["fig1 d=1um"], rows["fig1 d=10um"]


def test_fig1_checks_pass_on_the_program_output(fig1):
    wl, row_1um, row_10um = fig1
    assert wl.check_row(1.0, 0, row_1um) == []
    assert wl.check_row(10.0, 0, row_10um) == []


def test_fig1_rejects_e_drift_1um_off_by_1e6(fig1):
    wl, row_1um, _ = fig1
    assert wl.check_row(1.0, 0, _replace_field(row_1um, "E_drift", 1 + 1e-6))


@pytest.mark.parametrize("column", ["E_bare", "E_drift", "E_cond"])
def test_fig1_rejects_closed_form_miss_at_10um(fig1, column):
    wl, _, row_10um = fig1
    assert wl.check_row(10.0, 0, _replace_field(row_10um, column, 1 + 1e-4))


def test_fig1_rejects_broken_order_and_exit_code(fig1):
    wl, row_1um, _ = fig1
    assert wl.check_row(1.0, 0, _replace_field(row_1um, "E_cond", 0.5))
    assert wl.check_row(1.0, 3, row_1um)


NERNST_CSV = """# subcommand = nernst
T_K,S_erg_cm2K,error_est
3.00000000000e+02,2.85863443474e-10,6.40108728774e-13
1.50000000000e+02,2.79168972287e-11,1.52515642164e-15
# monotone_abs_S_below_75K = True
# nernst_trend = PASS
"""


@pytest.fixture
def nernst(tmp_path):
    return workloads.build("nernst", 1, True, str(tmp_path))


def test_nernst_checks(nernst):
    assert nernst.check_sweep(NERNST_CSV) == [[], []]
    fail = nernst.check_sweep(NERNST_CSV.replace("nernst_trend = PASS", "nernst_trend = FAIL"))
    assert all(fail)
    neg = nernst.check_sweep(NERNST_CSV.replace("2.79168972287e-11", "-2.79168972287e-11"))
    assert not neg[0] and neg[1]
    big_err = nernst.check_sweep(NERNST_CSV.replace("6.40108728774e-13", "3.0e-10"))
    assert big_err[0] and not big_err[1]


class _Flipped:
    """Stands in for casdrift.lifshitz with the pressure sign flipped."""

    def __init__(self, lifshitz):
        self._lifshitz = lifshitz

    def pressure(self, geom, T):
        res = self._lifshitz.pressure(geom, T)
        return type(res)(**{**res.__dict__, "value": -res.value})

    def __getattr__(self, name):
        return getattr(self._lifshitz, name)


@pytest.fixture(scope="module")
def pressure(tmp_path_factory):
    wl = workloads.build("pressure_mixed", 1, True, str(tmp_path_factory.mktemp("p")))
    return wl, wl.round()


def test_pressure_checks_pass_and_reject_a_flipped_sign(pressure):
    wl, rnd = pressure
    assert all(not op.failures for op in rnd.ops)
    real = wl.lifshitz
    wl.lifshitz = _Flipped(real)
    try:
        flipped = wl.round()
    finally:
        wl.lifshitz = real
    assert all(op.failures for op in flipped.ops)


def test_pressure_rejects_swap_and_derivative_mismatch(pressure):
    wl, rnd = pressure
    good = Round(rnd.wall, [Op(op.label, op.seconds, op.output) for op in rnd.ops])
    swap = Round(rnd.wall, [Op(op.label, op.seconds, op.output * (1 + 1e-9)) for op in rnd.ops])
    fd = Round(rnd.wall, [Op(op.label, op.seconds, op.output * (1 + 1e-4) if "d=1um" in op.label
                             else op.output) for op in rnd.ops])
    wl.finish([good, swap, fd])
    assert not any(op.failures for op in good.ops)
    assert all(op.failures for op in swap.ops)
    assert [bool(op.failures) for op in fd.ops] == ["d=1um" in op.label for op in fd.ops]


@pytest.fixture(scope="module")
def pairs():
    from casdrift import GE, Drift, Nonlocal, amplitude_fn

    T = 77.0
    ks = [1e2, 1e4, 1e6]
    points = [(ref.matsubara_xi(n, T), k) for n in range(3) for k in ks]
    drift = [amplitude_fn(Drift(), GE, T)(xi, k) for xi, k in points]
    nonloc = [amplitude_fn(Nonlocal(), GE, T)(xi, k) for xi, k in points]
    return T, ks, points, drift, nonloc


def test_pointwise_checks_pass_on_the_program_output(pairs):
    T, ks, points, drift, nonloc = pairs
    assert workloads.Pointwise.check_equivalence(drift, nonloc, points) == []
    assert workloads.Pointwise.check_block("drift", T, ks, drift) == []
    assert workloads.Pointwise.check_block("nonlocal", T, ks, nonloc) == []


def test_pointwise_rejects_a_nonlocal_amplitude_nudged_by_1e7(pairs):
    T, ks, points, drift, nonloc = pairs
    nudged = list(nonloc)
    tm, te = nudged[5]
    nudged[5] = (tm * (1 + 1e-7), te)
    assert workloads.Pointwise.check_equivalence(drift, nudged, points)


def test_pointwise_rejects_static_and_bound_violations(pairs):
    T, ks, points, drift, _ = pairs
    static = list(drift)
    static[1] = (static[1][0] * (1 + 1e-7), 0.0)
    assert workloads.Pointwise.check_block("drift", T, ks, static)
    te_static = list(drift)
    te_static[0] = (te_static[0][0], 1e-3)
    assert workloads.Pointwise.check_block("drift", T, ks, te_static)
    unbounded = list(drift)
    unbounded[-1] = (1.0 + 1e-12, unbounded[-1][1])
    assert workloads.Pointwise.check_block("drift", T, ks, unbounded)


def test_pointwise_rejects_a_verify_row_off_by_1e7():
    from casdrift import GE, verify_equivalence

    rows, max_rel = verify_equivalence(GE, 300.0)
    assert workloads.Pointwise.check_verify(rows, max_rel) == []
    pol, k, xi, r_d, r_n, rel = rows[17]
    rows[17] = (pol, k, xi, r_d, r_n * (1 + 1e-7), rel)
    assert workloads.Pointwise.check_verify(rows, max_rel)
