"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``.

All runs use the default integration settings and the shipped reference
configuration (analytic coupling kernel, alpha=0.05) unless a criterion
explicitly disables the interaction paths.
"""

import cmath
import json
import math
import time

import numpy as np
import pytest

from oswec import (
    Design,
    ForcingSpec,
    JPD,
    annual_energy,
    compute_power_matrix,
    freq_domain_solve,
    integrate,
    load_jpd,
    reference_model,
    response_metrics,
)
from oswec.cli import main
from oswec.config import with_coupling_disabled
from oswec.dynamics import (
    IntegrationConfig,
    SystemMatrices,
    dissipated_power,
    input_power,
    phase_distance,
)
from oswec.hydro import wavelength_deep
from oswec.sweep import SweepPlan, run_heading_study
from oswec.verify import run_verification

WORKERS = 2
SEVEN_DISTANCES = (10.0, 15.0, 33.0, 45.0, 55.0, 70.0, 86.0)


def report(number, ok, detail):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.fixture(scope="module")
def model():
    return reference_model()


@pytest.fixture(scope="module")
def sample_jpd(data_dir):
    return load_jpd(data_dir / "sample_jpd.csv")


def test_criterion_01_oracle_equivalence():
    """Time-domain steady state matches the frequency-domain solve on 20
    randomized well-posed systems within 1 % amplitude and 0.02 rad phase,
    in under 60 s."""
    start = time.perf_counter()
    outcome = run_verification(n_cases=20, seed=0, integration=IntegrationConfig())
    elapsed = time.perf_counter() - start
    amp_fail = outcome.property_failures["oracle-amplitude"]
    phase_fail = outcome.property_failures["oracle-phase"]
    ok = amp_fail == 0 and phase_fail == 0 and elapsed < 60.0
    assert report(
        1,
        ok,
        f"20 randomized systems, amplitude within 1% ({amp_fail} failures), "
        f"phase within 0.02 rad ({phase_fail} failures), {elapsed:.1f} s < 60 s",
    )


def test_criterion_02_closed_form_resonance():
    """The reference 1-DOF configuration driven at 9.5 s reaches the
    closed-form resonant amplitude T0/(C*omega) = 0.9071 rad within 0.5 %."""
    system = SystemMatrices(1.0e7, 1.0e6, 4.375e6)
    omega = 2.0 * math.pi / 9.5
    forcing = ForcingSpec(omega, (0.6e6,))
    record = integrate(system, forcing)
    metrics = response_metrics(record)
    expected = 0.6e6 / (1.0e6 * omega)
    rel = abs(metrics.amplitude[0] - expected) / expected
    ok = rel < 5e-3
    assert report(
        2,
        ok,
        f"steady amplitude {metrics.amplitude[0]:.5f} rad vs T0/(C*omega) "
        f"{expected:.5f} rad (rel err {rel:.2e} < 5e-3)",
    )


def test_criterion_03_energy_balance():
    """Mean input power equals mean dissipated power within 1 % on every
    dynamics run of this suite (randomized systems plus reference cases)."""
    cfg = IntegrationConfig()
    worst = 0.0
    runs = 0

    def check(system, forcing):
        nonlocal worst, runs
        record = integrate(system, forcing, cfg)
        p_in = input_power(record, forcing)
        p_out = dissipated_power(record, system)
        rel = abs(p_in - p_out) / max(abs(p_in), abs(p_out), 1e-12)
        worst = max(worst, rel)
        runs += 1

    # the reference resonant case
    check(
        SystemMatrices(1.0e7, 1.0e6, 4.375e6),
        ForcingSpec(2.0 * math.pi / 9.5, (0.6e6,)),
    )
    # coupled pairs across the studied periods
    rng = np.random.default_rng(42)
    for te in (7.5, 8.5, 9.5, 10.5, 11.5):
        ci = rng.uniform(-0.3, 0.3) * 1.0e7
        cd = rng.uniform(-0.6, 0.6) * 1.0e6
        system = SystemMatrices(1.0e7, 1.0e6, 4.375e6, (ci, cd))
        forcing = ForcingSpec(
            2.0 * math.pi / te,
            (
                cmath.rect(rng.uniform(0.6e6, 1.2e6), rng.uniform(-math.pi, math.pi)),
                cmath.rect(rng.uniform(0.6e6, 1.2e6), rng.uniform(-math.pi, math.pi)),
            ),
        )
        check(system, forcing)
    # randomized verification cases enforce the same bound internally
    outcome = run_verification(n_cases=10, seed=3, integration=cfg)
    balance_failures = outcome.property_failures["energy-balance"]
    ok = worst < 0.01 and balance_failures == 0
    assert report(
        3,
        ok,
        f"{runs} direct runs worst imbalance {worst:.2e} < 1e-2; "
        f"{balance_failures} failures in 10 randomized cases",
    )


def test_criterion_04_modal_mapping(model):
    """Symmetric in-phase (out-of-phase) time-domain responses match the
    1-DOF formula with coupling added (subtracted) within 1 %, and with the
    reference kernel at d = 10 m the in-phase response beats the single
    flap while the out-of-phase response stays below it."""
    env = model.environment
    flap = model.flap
    worst = 0.0
    orderings = True
    for te in (7.5, 8.5, 9.5, 10.5):
        added_inertia, damping, (coupling_inertia, coupling_damping) = model.coefficients.pair(
            te, 10.0, env
        )
        assert coupling_damping < 0.0  # reference kernel at short spacing
        system = SystemMatrices(
            flap.inertia_dry + added_inertia,
            damping,
            flap.stiffness,
            (coupling_inertia, coupling_damping),
        )
        omega = 2.0 * math.pi / te
        t0 = 0.6e6
        single = t0 / math.hypot(
            flap.stiffness - (flap.inertia_dry + added_inertia) * omega**2,
            damping * omega,
        )
        for sign, phase_r in ((+1, 0.0), (-1, math.pi)):
            forcing = ForcingSpec(omega, (t0, cmath.rect(t0, phase_r)))
            record = integrate(system, forcing)
            metrics = response_metrics(record)
            modal = t0 / math.hypot(
                flap.stiffness
                - (flap.inertia_dry + added_inertia + sign * coupling_inertia) * omega**2,
                (damping + sign * coupling_damping) * omega,
            )
            for i in range(2):
                worst = max(worst, abs(metrics.amplitude[i] - modal) / modal)
            if sign > 0:
                orderings &= min(metrics.amplitude) > single
            else:
                orderings &= max(metrics.amplitude) < single
    ok = worst < 0.01 and orderings
    assert report(
        4,
        ok,
        f"worst modal-formula mismatch {worst:.2e} < 1e-2 over 4 periods x 2 phasings; "
        f"in-phase > single and out-of-phase < single at d=10 m: {orderings}",
    )


def test_criterion_05_band_reproduction():
    """Deep-water wavelengths put d = 10 m at 0.06-0.11 lambda and
    d = 70 m at 0.41-0.80 lambda over the studied torque periods
    (7.5-10.5 s), matching the published bands to two decimals."""
    periods = np.arange(7.5, 10.5 + 1e-9, 0.5)
    r10 = 10.0 / np.array([wavelength_deep(t) for t in periods])
    r70 = 70.0 / np.array([wavelength_deep(t) for t in periods])
    ok10 = (
        round(float(r10.min()), 3) == 0.058
        and round(float(r10.max()), 3) == 0.114
        and round(float(r10.min()), 2) == 0.06
        and round(float(r10.max()), 2) == 0.11
    )
    ok70 = round(float(r70.min()), 2) == 0.41 and round(float(r70.max()), 2) == 0.80
    # over the full wave-study range the 70 m band opens to 0.34
    r70_full = 70.0 / wavelength_deep(11.5)
    ok = ok10 and ok70
    assert report(
        5,
        ok,
        f"d=10 m: [{r10.min():.3f}, {r10.max():.3f}] -> [0.06, 0.11]; "
        f"d=70 m: [{r70.min():.3f}, {r70.max():.3f}] -> [0.41, 0.80] "
        f"(at 11.5 s the ratio drops to {r70_full:.2f})",
    )


def test_criterion_06_decoupling_identity(model, sample_jpd):
    """With coupling and back-flap shading disabled, dual-flap AEP equals
    exactly twice the single-flap AEP (1e-5 relative tolerance)."""
    decoupled = with_coupling_disabled(model)
    single = compute_power_matrix(
        Design(decoupled, 0.0, dual=False),
        sample_jpd.hs_bins,
        sample_jpd.te_bins,
        sample_jpd.occurrence,
    )
    dual = compute_power_matrix(
        Design(decoupled, 45.0, dual=True),
        sample_jpd.hs_bins,
        sample_jpd.te_bins,
        sample_jpd.occurrence,
    )
    aep_single = annual_energy(single, sample_jpd)
    aep_dual = annual_energy(dual, sample_jpd)
    rel = abs(aep_dual - 2.0 * aep_single) / (2.0 * aep_single)
    ok = rel < 1e-5
    assert report(
        6,
        ok,
        f"dual {aep_dual:.4f} GWh vs 2x single {2 * aep_single:.4f} GWh "
        f"(rel err {rel:.2e} < 1e-5)",
    )


def test_criterion_07_distance_insensitivity(model, sample_jpd):
    """Reference configuration, sample JPD: AEP over the seven studied
    distances spreads by less than 10 % of the mean, in under 10 minutes
    at default integration settings."""
    start = time.perf_counter()
    totals = []
    for d in SEVEN_DISTANCES:
        pm = compute_power_matrix(
            Design(model, d, dual=True),
            sample_jpd.hs_bins,
            sample_jpd.te_bins,
            sample_jpd.occurrence,
        )
        assert not pm.errors
        totals.append(annual_energy(pm, sample_jpd))
    elapsed = time.perf_counter() - start
    totals = np.array(totals)
    spread = (totals.max() - totals.min()) / totals.mean()
    ok = spread < 0.10 and elapsed < 600.0
    assert report(
        7,
        ok,
        "AEP GWh by distance "
        + ", ".join(f"{d:g}m={v:.3f}" for d, v in zip(SEVEN_DISTANCES, totals))
        + f"; spread {spread * 100:.2f}% < 10%, runtime {elapsed:.0f} s < 600 s",
    )


def test_criterion_08_heading_loss(model):
    """Power loss versus zero heading is monotone non-decreasing and the
    cos^2 heading model puts it at 25 % +/- 1 % for 30 degrees and
    50 % +/- 1 % for 45 degrees."""
    plan = SweepPlan(headings=tuple(float(b) for b in range(0, 50, 5)))
    rows = run_heading_study(plan, model).rows
    losses = {row["heading_deg"]: row["power_loss_fraction"] for row in rows}
    ordered = [losses[float(b)] for b in range(0, 50, 5)]
    monotone = all(b >= a - 1e-9 for a, b in zip(ordered, ordered[1:]))
    ok30 = abs(losses[30.0] - 0.25) < 0.01
    ok45 = abs(losses[45.0] - 0.50) < 0.01
    ok = monotone and ok30 and ok45
    assert report(
        8,
        ok,
        f"loss(30)={losses[30.0]:.4f} (|err|<0.01), loss(45)={losses[45.0]:.4f} "
        f"(|err|<0.01), monotone={monotone}",
    )


def test_criterion_09_linearity(model):
    """Doubling the wave height multiplies every power-matrix cell by
    4.0 +/- 1 %."""
    hs = np.array([1.25, 2.5])
    te = np.array([8.0, 9.5, 11.0])
    pm = compute_power_matrix(Design(model, 45.0, dual=True), hs, te)
    ratios = pm.power_total[1] / pm.power_total[0]
    worst = float(np.max(np.abs(ratios - 4.0)))
    ok = worst < 0.04  # 1 % of 4.0
    assert report(
        9,
        ok,
        f"cell ratios {np.array2string(ratios, precision=5)} vs 4.0 "
        f"(worst |err| {worst:.2e} < 0.04)",
    )


def test_criterion_10_determinism(tmp_path, configs_dir):
    """cmd_sweep and cmd_aep produce byte-identical outputs across reruns
    and across --workers 1 vs --workers N."""
    config_src = json.loads((configs_dir / "reference.json").read_text())
    jpd_path = tmp_path / "jpd.csv"
    jpd_path.write_text("hs_m\\te_s,8.5,9.5\n1.75,0.4,0.2\n3.25,0.1,0.05\n")
    out = tmp_path / "out"
    config_src["output_dir"] = str(out)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_src))

    def run(workers):
        assert main(
            [str(cfg_path), "--workers", str(workers), "sweep", "--study", "heading",
             "--headings", "0,20,40"]
        ) == 0
        assert main(
            [str(cfg_path), "--workers", str(workers), "aep", "--jpd", str(jpd_path),
             "--distances", "10,45"]
        ) == 0
        blob = b""
        for name in sorted(p.name for p in out.iterdir()):
            blob += name.encode() + (out / name).read_bytes()
        return blob

    first = run(1)
    second = run(1)
    third = run(WORKERS)
    ok = first == second == third
    assert report(
        10,
        ok,
        "sweep + aep outputs byte-identical across two serial runs and a "
        f"{WORKERS}-worker run",
    )
