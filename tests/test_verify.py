import math
import random

import numpy as np
import pytest

import oswec.verify as verify_mod
from oswec.dynamics import IntegrationConfig
from oswec.verify import format_report, run_verification

FAST = IntegrationConfig(steps_per_period=120, measure_periods=6, max_periods=200)


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
    from oswec.dynamics import (
        ForcingSpec,
        SystemMatrices,
        freq_domain_solve,
        integrate,
        response_metrics,
    )

    system = SystemMatrices(1.0e7, 1.0e6, 4.375e6)
    forcing = ForcingSpec(2 * math.pi / 9.5, (0.0,))
    record = integrate(system, forcing, FAST)
    metrics = response_metrics(record)
    theta = freq_domain_solve(system, forcing)
    assert metrics.amplitude[0] == 0.0 == abs(theta[0])


# the first six seed-0 systems, as drawn in the order dof, inertia, natural
# frequency, damping ratio, forcing frequency, couplings (two flaps only),
# torque amplitudes, torque phases
SEED0_PARAMS = [
    {"dof": 2, "inertia_kg_m2": 2242449.79114381, "stiffness_Nm_per_rad": 420005.2538930818,
     "damping_Nm_s_per_rad": 70257.43537561133, "damping_ratio": 0.03619708281795851,
     "omega_rad_s": 0.744338610229602, "coupling_inertia_kg_m2": 740466.9264478959,
     "coupling_damping_Nm_s_per_rad": 10488.738574567147,
     "torque_Nm": [1486043.465869597, 1132887.4837843035],
     "phase_rad": [2.7336406607023154, 1.9845664104768632]},
    {"dof": 1, "inertia_kg_m2": 13020436.97078984, "stiffness_Nm_per_rad": 2372540.827582845,
     "damping_Nm_s_per_rad": 8170973.351097644, "damping_ratio": 0.7350623375013452,
     "omega_rad_s": 0.32590699657201155, "torque_Nm": [1740039.9524647845],
     "phase_rad": [0.2605085298868297]},
    {"dof": 1, "inertia_kg_m2": 3543997.3425134975, "stiffness_Nm_per_rad": 633092.1434571128,
     "damping_Nm_s_per_rad": 424794.67625722673, "damping_ratio": 0.14179761096957266,
     "omega_rad_s": 0.636492752737854, "torque_Nm": [1329660.071991075],
     "phase_rad": [0.7249860371262926]},
    {"dof": 1, "inertia_kg_m2": 19786679.376891468, "stiffness_Nm_per_rad": 27769395.783996742,
     "damping_Nm_s_per_rad": 32433945.1732624, "damping_ratio": 0.6918311447910808,
     "omega_rad_s": 1.748201834789124, "torque_Nm": [1408048.7880847862],
     "phase_rad": [-0.6979272767969258]},
    {"dof": 1, "inertia_kg_m2": 8668318.141337955, "stiffness_Nm_per_rad": 5832607.465208181,
     "damping_Nm_s_per_rad": 4608116.447390682, "damping_ratio": 0.32403703804777656,
     "omega_rad_s": 1.0079257912179547, "torque_Nm": [1790026.8852631005],
     "phase_rad": [2.7271758421328762]},
    {"dof": 1, "inertia_kg_m2": 5533358.135323295, "stiffness_Nm_per_rad": 2392072.655432802,
     "damping_Nm_s_per_rad": 4383355.01690382, "damping_ratio": 0.6024140295957029,
     "omega_rad_s": 0.6620104282047045, "torque_Nm": [844076.1010035063],
     "phase_rad": [2.452166074285545]},
]


def test_random_systems_keep_their_draws():
    rng = verify_mod._SeededStream(0)
    for expected in SEED0_PARAMS:
        system, forcing, params = verify_mod._random_case(rng)
        assert list(params) == list(expected)
        assert system.dof == forcing.dof == params["dof"]
        for key, value in expected.items():
            assert params[key] == value, key


@pytest.mark.parametrize(
    "seed",
    [*range(51), 2**32, 2**64, 10**100, random.Random(30).getrandbits(3000)],
    ids=lambda seed: str(seed) if seed < 2**64 else f"{seed.bit_length()}-bit",
)
def test_seeded_stream_is_numpys_default_rng(seed):
    ours, numpys = verify_mod._SeededStream(seed), np.random.default_rng(seed)
    for _ in range(8):
        assert ours.random() == numpys.random()
        assert ours.uniform(6.0, 7.3) == numpys.uniform(6.0, 7.3)
        assert ours.uniform(-0.4, 0.4) == numpys.uniform(-0.4, 0.4)
        for size in (1, 2):
            assert ours.uniform(1e5, 2e6, size=size) == numpys.uniform(1e5, 2e6, size=size).tolist()
            assert ours.uniform(-math.pi, math.pi, size=size) == (
                numpys.uniform(-math.pi, math.pi, size=size).tolist()
            )


def test_seeded_stream_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        verify_mod._SeededStream(-1)


def test_case_parameters_are_plain_python_numbers(monkeypatch):
    rng = verify_mod._SeededStream(0)
    for _ in range(20):
        _, _, params = verify_mod._random_case(rng)
        for key, value in params.items():
            if key == "dof":
                assert type(value) is int
            elif isinstance(value, list):
                assert [type(v) for v in value] == [float] * params["dof"], key
            else:
                assert type(value) is float, key

    # a failing two-flap case prints its torques and phases as plain floats
    solve = verify_mod.freq_domain_solve
    monkeypatch.setattr(
        verify_mod, "freq_domain_solve", lambda system, forcing: 2.0 * solve(system, forcing)
    )
    report = format_report(run_verification(n_cases=1, seed=0, integration=FAST))
    assert "case 0 FAILED with parameters {'dof': 2," in report
    assert "np.float64" not in report
