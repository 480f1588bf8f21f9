import math
import random

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
    assert [params["dof"] for params, _ in outcome.cases] == [2, 2, 2]
    # one failure per flap ...
    assert outcome.property_failures["oracle-amplitude"] == 6
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


# the first six systems that random.Random(0) draws, in the order dof, inertia, natural
# frequency, damping ratio, forcing frequency, couplings (two flaps only),
# torque amplitudes, torque phases
SEED0_PARAMS = [
    {"dof": 2, "inertia_kg_m2": 9668090.87336384, "stiffness_Nm_per_rad": 5243675.7052078545,
     "damping_Nm_s_per_rad": 3898109.3586649615, "damping_ratio": 0.2737384152871041,
     "omega_rad_s": 0.9330266065193177, "coupling_inertia_kg_m2": -735284.3184672887,
     "coupling_damping_Nm_s_per_rad": 1548789.1102493017,
     "torque_Nm": [676294.1795499622, 1005534.2128894761],
     "phase_rad": [0.5239048051865205, 2.5642488839299995]},
    {"dof": 2, "inertia_kg_m2": 2324819.275157934, "stiffness_Nm_per_rad": 2346459.36129744,
     "damping_Nm_s_per_rad": 2924196.6003310303, "damping_ratio": 0.626001616741825,
     "omega_rad_s": 0.8798259816440864, "coupling_inertia_kg_m2": 762068.795039009,
     "coupling_damping_Nm_s_per_rad": 1976463.5068059047,
     "torque_Nm": [1639412.7483935202, 1814115.3058352072],
     "phase_rad": [-1.1928780029851, 1.444075463791438]},
    {"dof": 2, "inertia_kg_m2": 7747812.66781994, "stiffness_Nm_per_rad": 4686181.853131774,
     "damping_Nm_s_per_rad": 1430319.1254312906, "damping_ratio": 0.11868718390699849,
     "omega_rad_s": 0.8953494706904412, "coupling_inertia_kg_m2": 687305.1980352793,
     "coupling_damping_Nm_s_per_rad": 827032.6518449615,
     "torque_Nm": [1936552.0987644417, 1006318.5754501624],
     "phase_rad": [2.295309970741605, -1.5048711963017696]},
    {"dof": 2, "inertia_kg_m2": 5167840.426676182, "stiffness_Nm_per_rad": 873948.3597696957,
     "damping_Nm_s_per_rad": 3082843.2916551754, "damping_ratio": 0.725310592675875,
     "omega_rad_s": 0.45163099811808705, "coupling_inertia_kg_m2": 1342997.604247471,
     "coupling_damping_Nm_s_per_rad": 725745.9557431357,
     "torque_Nm": [102171.35669741374, 1037797.9462841168],
     "phase_rad": [2.3097163578546764, -1.6090554156712766]},
    {"dof": 1, "inertia_kg_m2": 13539810.98738049, "stiffness_Nm_per_rad": 4138405.09981746,
     "damping_Nm_s_per_rad": 8625738.686003389, "damping_ratio": 0.5761605258082584,
     "omega_rad_s": 0.474306375530071, "torque_Nm": [1938326.4755512723],
     "phase_rad": [1.9049327868177839]},
    {"dof": 1, "inertia_kg_m2": 1272270.8127601496, "stiffness_Nm_per_rad": 547576.8526466904,
     "damping_Nm_s_per_rad": 864348.9806439359, "damping_ratio": 0.5177818296701624,
     "omega_rad_s": 1.2459914494109083, "torque_Nm": [307209.907269097],
     "phase_rad": [0.3221216073757116]},
]


def test_random_systems_keep_their_draws():
    rng = random.Random(0)
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
def test_seeded_cases_are_reproducible_and_in_range(seed):
    # the config allows any seed >= 0, however large; each one draws the
    # same cases every run, and every case lies in the ranges it is drawn from
    first = run_verification(n_cases=1, seed=seed, integration=FAST).cases[0][0]
    rng = random.Random(seed)
    for index in range(20):
        _, _, params = verify_mod._random_case(rng)
        if index == 0:
            assert params == first
        inertia, damping = params["inertia_kg_m2"], params["damping_Nm_s_per_rad"]
        omega_n = math.sqrt(params["stiffness_Nm_per_rad"] / inertia)
        assert 1e6 <= inertia <= 10.0**7.3
        assert 0.4 - 1e-12 <= omega_n <= 1.2 + 1e-12
        assert 0.02 <= params["damping_ratio"] <= 1.0
        assert math.isclose(damping, 2.0 * params["damping_ratio"] * inertia * omega_n)
        assert 0.5 - 1e-12 <= params["omega_rad_s"] / omega_n <= 2.0 + 1e-12
        if params["dof"] == 2:
            assert abs(params["coupling_inertia_kg_m2"]) <= 0.4 * inertia
            assert abs(params["coupling_damping_Nm_s_per_rad"]) <= 0.7 * damping
        else:
            assert params["dof"] == 1 and "coupling_inertia_kg_m2" not in params
        assert len(params["torque_Nm"]) == len(params["phase_rad"]) == params["dof"]
        assert all(1e5 <= amp <= 2e6 for amp in params["torque_Nm"])
        assert all(-math.pi <= phase <= math.pi for phase in params["phase_rad"])


def test_case_parameters_are_plain_python_numbers(monkeypatch):
    rng = random.Random(0)
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
