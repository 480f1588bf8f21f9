import oswec.verify as verify_mod
from oswec.dynamics import IntegrationConfig
from oswec.verify import format_report, run_verification

FAST = IntegrationConfig(steps_per_period=120, ramp_periods=6, measure_periods=6, max_periods=200)


def test_randomized_cases_pass():
    outcome = run_verification(n_cases=8, seed=0, integration=FAST)
    assert outcome.passed
    assert len(outcome.cases) == 8
    assert all(v == 0 for v in outcome.property_failures.values())


def test_damping_sign_flip_breaks_energy_balance(monkeypatch):
    # fault injection: negate the damping inside the energy-balance accounting
    dissipated = verify_mod.dissipated_power
    monkeypatch.setattr(
        verify_mod, "dissipated_power", lambda record, system: -dissipated(record, system)
    )
    outcome = run_verification(n_cases=3, seed=0, integration=FAST)
    assert not outcome.passed
    assert outcome.property_failures["energy-balance"] == 3
    # the oracle checks themselves still hold; only the balance is faulted
    assert outcome.property_failures["oracle-amplitude"] == 0
    report = format_report(outcome)
    assert "FAIL energy-balance" in report
    assert "parameters" in report


def test_oracle_fault_counts_per_flap_and_per_case(monkeypatch):
    # fault injection: the oracle reports twice the true response, which
    # breaks every flap's amplitude check and no phase
    solve = verify_mod.freq_domain_solve
    monkeypatch.setattr(
        verify_mod, "freq_domain_solve", lambda system, forcing: 2.0 * solve(system, forcing)
    )
    outcome = run_verification(n_cases=3, seed=0, integration=FAST)
    assert [params["dof"] for params, _ in outcome.cases] == [2, 1, 1]
    # one failure per flap ...
    assert outcome.property_failures["oracle-amplitude"] == 4
    # ... but the report counts cases
    assert format_report(outcome).splitlines()[:4] == [
        "FAIL oracle-amplitude: 0/3 cases ok",
        "PASS oracle-phase: 3/3 cases ok",
        "PASS energy-balance: 3/3 cases ok",
        "PASS linearity: 3/3 cases ok",
    ]


def test_report_lists_properties():
    outcome = run_verification(n_cases=2, seed=1, integration=FAST)
    report = format_report(outcome)
    for prop in ("oracle-amplitude", "oracle-phase", "energy-balance", "linearity"):
        assert prop in report


def test_zero_amplitude_case_trivially_passes():
    import math

    import numpy as np

    from oswec.dynamics import (
        FlapForcing,
        ForcingSpec,
        SystemMatrices,
        freq_domain_solve,
        integrate,
        response_metrics,
    )

    system = SystemMatrices(np.array([[1.0e7]]), np.array([[1.0e6]]), np.array([4.375e6]))
    forcing = ForcingSpec(2 * math.pi / 9.5, (FlapForcing(0.0),))
    record = integrate(system, forcing, FAST)
    metrics = response_metrics(record)
    theta = freq_domain_solve(system, forcing)
    assert metrics.amplitude[0] == 0.0 == abs(theta[0])
