import cmath
import itertools
import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oswec.dynamics import (
    ForcingSpec,
    IntegrationConfig,
    ResponseRecord,
    SystemMatrices,
    _rk4_mode,
    dissipated_power,
    freq_domain_solve,
    harmonic_fit,
    input_power,
    integrate,
    phase_distance,
    response_metrics,
    settle_cycle,
)
from oswec.config import reference_model
from oswec.energy import PTOModel
from oswec.errors import InvalidInputError, NumericalError
from oswec.forcing import (
    Scenario,
    TorqueScenario,
    WaveCondition,
    build_torque_scenario,
    build_wave_forcing,
)
from oswec.hydro import FlapProperties, TableCoefficientSource

PROPS = FlapProperties(inertia_dry=1.0e7, stiffness=4.375e6)


def scalar_amplitude(t0, inertia, damping, stiffness, omega):
    """Independent closed form for the 1-DOF steady amplitude."""
    return t0 / math.hypot(stiffness - inertia * omega**2, damping * omega)


def one_cell_model(added_inertia, damping, coupling=(0.0, 0.0)):
    """A model of PROPS whose one-cell table gives these coefficients at
    every period and distance, with a PTO of 0 counted in the damping."""
    cells = [np.array([[x]]) for x in (added_inertia, damping, *coupling)]
    source = TableCoefficientSource(np.array([9.5]), np.array([10.0]), *cells)
    return replace(reference_model(), flap=PROPS, coefficients=source, pto=PTOModel(0.0))


class TestAssemble:
    def test_single_dof_placement(self):
        system = one_cell_model(0.0, 1.0e6).system_for(9.5, 10.0, dual=False)
        assert system == SystemMatrices(1.0e7, 1.0e6, 4.375e6)
        assert system.coupling is None and system.dof == 1

    def test_zero_coupling_is_block_diagonal(self):
        system = one_cell_model(2.0e6, 1.0e6).system_for(9.5, 10.0, dual=True)
        assert system.coupling == (0.0, 0.0)
        inertia, damping, _ = system.matrices()
        assert inertia[0, 1] == damping[0, 1] == 0.0

    def test_symmetric_offdiagonals(self):
        system = one_cell_model(2.0e6, 1.0e6, (-2.0e6, -1.5e5)).system_for(9.5, 10.0, dual=True)
        assert system.coupling == (-2.0e6, -1.5e5)
        inertia, damping, _ = system.matrices()
        assert inertia[0, 1] == inertia[1, 0] == -2.0e6
        assert damping[0, 1] == damping[1, 0] == -1.5e5

    def test_non_positive_definite_inertia_rejected(self):
        model = one_cell_model(2.0e6, 1.0e6, (-1.3e7, 0.0))
        with pytest.raises(InvalidInputError, match="positive-definite"):
            model.system_for(9.5, 10.0, dual=True)


def reference_1dof():
    return SystemMatrices(1.0e7, 1.0e6, 4.375e6)


UNSTABLE_CFG = IntegrationConfig(steps_per_period=120, measure_periods=6, max_periods=200)


def unstable_in_phase_case():
    """alpha=1, d=10 m, Te=38 s in-phase: C + C_lr = 1e6 - 3.16e6 < 0."""
    model = reference_model(alpha=1.0)
    scenario = TorqueScenario(Scenario.IN_PHASE, 1.0e6, 38.0, 10.0)
    system = model.system_for(scenario.period, scenario.distance, dual=True)
    assert system.modes()[0][1] < 0.0
    return system, build_torque_scenario(scenario, model.environment)


class TestIntegrate:
    def test_zero_forcing_is_identically_zero(self):
        forcing = ForcingSpec(0.7, (0.0,))
        record = integrate(reference_1dof(), forcing)
        assert record.steady
        assert np.all(record.rotation == 0.0)
        assert np.all(record.velocity == 0.0)

    def test_resonant_closed_form(self):
        omega = 2.0 * math.pi / 9.5
        forcing = ForcingSpec(omega, (0.6e6,))
        record = integrate(reference_1dof(), forcing)
        metrics = response_metrics(record)
        expected = scalar_amplitude(0.6e6, 1.0e7, 1.0e6, 4.375e6, omega)
        assert expected == pytest.approx(0.9071, abs=2e-4)
        assert metrics.amplitude[0] == pytest.approx(expected, rel=5e-3)
        assert record.steady

    def test_symmetric_in_phase_flaps_identical(self):
        system = SystemMatrices(1.0e7, 1.0e6, 4.375e6, (-5e5, -2e5))
        omega = 2.0 * math.pi / 8.5
        forcing = ForcingSpec(omega, (1.0e6, 1.0e6))
        record = integrate(system, forcing)
        np.testing.assert_allclose(
            record.rotation[:, 0], record.rotation[:, 1], rtol=1e-12, atol=1e-15
        )

    def test_fixed_flap_stays_zero(self):
        system = SystemMatrices(1.0e7, 1.0e6, 4.375e6, (-5e5, -2e5))
        omega = 2.0 * math.pi / 8.5
        forcing = ForcingSpec(omega, (None, 1.0e6))
        record = integrate(system, forcing)
        assert np.all(record.rotation[:, 0] == 0.0)
        assert np.all(record.velocity[:, 0] == 0.0)
        assert np.any(record.rotation[:, 1] != 0.0)
        # with the left flap fixed the right flap is the lone flap, in every bit
        single = integrate(reference_1dof(), ForcingSpec(omega, (1.0e6,)))
        np.testing.assert_array_equal(record.rotation[:, 1], single.rotation[:, 0])
        np.testing.assert_array_equal(record.velocity[:, 1], single.velocity[:, 0])
        assert (record.cycles, record.steady) == (single.cycles, single.steady)

    def test_unstable_system_raises_named_step(self):
        # valid diagonals but hugely negative coupling damping make the
        # in-phase mode blow up
        system = SystemMatrices(1.0e7, 1.0e6, 4.375e6, (0.0, -3.0e7))
        omega = 2.0 * math.pi / 9.5
        forcing = ForcingSpec(omega, (1.0e6, 1.0e6))
        with pytest.raises(NumericalError, match="step"):
            integrate(system, forcing)

    def test_overflowing_cycle_raises_named_step(self):
        # the CLI's unstable case: its states stay finite (~1e154) but their
        # squares overflow, which once made the cycle RMS inf and inf <= inf
        # passed the convergence test as steady
        system, forcing = unstable_in_phase_case()
        with pytest.raises(NumericalError, match=r"non-finite at step \d+"):
            integrate(system, forcing, UNSTABLE_CFG)

    def test_unstable_run_ends_where_it_overflows(self):
        # room for 1e9 cycles would not fit in memory: the run ends at its
        # first start state past the float range, naming the step of a 200-cycle run
        system, forcing = unstable_in_phase_case()
        with pytest.raises(NumericalError) as short:
            integrate(system, forcing, UNSTABLE_CFG)
        with pytest.raises(NumericalError) as long:
            integrate(system, forcing, replace(UNSTABLE_CFG, max_periods=10**9))
        assert _step_named(long) == _step_named(short)

    def test_growing_response_is_never_steady(self):
        # stopped one cycle before the overflow, the growing record is
        # finite and flagged not steady
        system, forcing = unstable_in_phase_case()
        cfg = replace(UNSTABLE_CFG, max_periods=85)
        record = integrate(system, forcing, cfg)
        assert not record.steady
        assert record.cycles == 85
        assert np.isfinite(record.rotation**2).all()

    def test_max_periods_flags_not_steady(self):
        cfg = IntegrationConfig(measure_periods=3, max_periods=4, convergence_tol=1e-12)
        omega = 2.0 * math.pi / 9.5
        record = integrate(reference_1dof(), ForcingSpec(omega, (0.6e6,)), cfg)
        assert not record.steady
        assert record.cycles == 4

    def test_never_steady_run_stops_at_max_periods(self):
        # the pair settles only after cycle 15, the last whose measure
        # window fits in 18 cycles: the record is the stepper's 18 cycles
        forcing = ForcingSpec(2.0 * math.pi / 10.5, (cmath.rect(1.0, 0.3), 0.8))
        cfg = IntegrationConfig(steps_per_period=40, measure_periods=3, max_periods=18)
        rotation, velocity, cycles, steady, window = stepped_rk4(_coupled_pair(), forcing, cfg)
        record = integrate(_coupled_pair(), forcing, cfg)
        for got, want in ((record.rotation, rotation), (record.velocity, velocity)):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))
        assert (record.cycles, record.steady, record.window) == (cycles, steady, window)
        assert (record.cycles, record.steady) == (18, False)
        assert record.time.size == 18 * cfg.steps_per_period + 1

    def test_record_is_sized_by_the_run_not_max_periods(self):
        # room for 1e12 cycles would not fit in memory; the pair settles at
        # cycle 21, and the record holds that and the measure window
        forcing = ForcingSpec(2.0 * math.pi / 10.5, (cmath.rect(1.0, 0.3), 0.8))
        cfg = IntegrationConfig(steps_per_period=40, measure_periods=10, max_periods=10**12)
        record = integrate(_coupled_pair(), forcing, cfg)
        assert (record.cycles, record.steady) == (31, True)
        assert record.time.size == 31 * cfg.steps_per_period + 1

    def test_forcing_with_no_free_flap_is_rejected(self):
        for torques in ((None,), (None, None)):
            with pytest.raises(InvalidInputError, match="^a forcing needs at least one free flap"):
                ForcingSpec(0.7, torques)

    def test_rk4_step_halving(self):
        # well-damped case so the residual transient cannot mask the dt error
        system = SystemMatrices(1.0e7, 4.0e6, 4.375e6)
        omega = 0.55
        forcing = ForcingSpec(omega, (1.0e6,))
        amps = []
        for steps in (200, 400):
            cfg = IntegrationConfig(steps_per_period=steps)
            record = integrate(system, forcing, cfg)
            metrics = response_metrics(record)
            amps.append(metrics.amplitude[0])
        assert abs(amps[1] - amps[0]) / amps[0] < 1e-4

    def test_dimension_mismatch(self):
        forcing = ForcingSpec(0.7, (1.0e6, 1.0e6))
        with pytest.raises(InvalidInputError):
            integrate(reference_1dof(), forcing)


def literal_rk4(system, forcing, cfg):
    """The free flaps' classical RK4 one step at a time, as plain Python, in
    their own coordinates (rotations, then velocities).

    Returns its homogeneous one-step matrix, the step applied to the
    identity with the forcing off, and a generator of the run from rest
    that yields one cycle's (steps_per_period, 2 nf) samples at a time.
    """
    free = forcing.free_indices()
    omega = forcing.omega
    steps = cfg.steps_per_period
    dt = (2.0 * math.pi / omega) / steps
    m, c, k = system.matrices()
    m, c, k = m[np.ix_(free, free)], c[np.ix_(free, free)], k[free]
    torque = np.array([forcing.torques[i] for i in free])
    nf = len(free)
    minv = np.linalg.inv(m)
    a_mat = np.zeros((2 * nf, 2 * nf))
    a_mat[:nf, nf:] = np.eye(nf)
    a_mat[nf:, :nf] = -minv * k[np.newaxis, :]
    a_mat[nf:, nf:] = -minv @ c
    half = 0.5 * dt
    sixth = dt / 6.0

    def rk4(t, y, forced):
        def rhs(t, y):
            dy = a_mat @ y
            if forced:
                dy[nf:] += minv @ (torque.real * np.sin(omega * t) + torque.imag * np.cos(omega * t))
            return dy

        k1 = rhs(t, y)
        k2 = rhs(t + half, y + half * k1)
        k3 = rhs(t + half, y + half * k2)
        k4 = rhs(t + dt, y + dt * k3)
        return y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def run():
        y = np.zeros(2 * nf)
        for cycle in itertools.count():
            block = np.empty((steps, 2 * nf))
            for j in range(steps):
                y = rk4((cycle * steps + j) * dt, y, True)
                block[j] = y
            yield block

    return rk4(0.0, np.eye(2 * nf), False), run()


def to_modes(nf):
    """The map from the free flaps' states to their modes' (l +- r)/2, in
    the order ``integrate`` keeps them: mode i in rows i and nf + i."""
    return np.kron(np.eye(2), [[0.5, 0.5], [0.5, -0.5]]) if nf == 2 else np.eye(2)


def modal_cycle_map(system, forcing, cfg):
    """[P^N | S_N] of the free flaps' modes, mode i in rows i and nf + i:
    each mode's RK4 step (``_rk4_mode``) taken one at a time over one cycle
    from rest, forced by (T_l +- T_r)/2, and its N-th matrix power."""
    free = forcing.free_indices()
    nf = len(free)
    omega = forcing.omega
    steps = cfg.steps_per_period
    h = (2.0 * math.pi / omega) / steps
    torques = [forcing.torques[i] for i in free]
    modes = system.modes() if nf == system.dof else [(system.inertia, system.damping)]
    if nf == 2:
        torques = [(torques[0] + torques[1]) / 2.0, (torques[0] - torques[1]) / 2.0]
    z = complex(math.cos(0.5 * omega * h), math.sin(0.5 * omega * h))
    cycle = np.zeros((2 * nf, 2 * nf + 1))
    for i, ((inertia, damping), torque) in enumerate(zip(modes, torques)):
        step, q = _rk4_mode(h, system.stiffness / inertia, damping / inertia, torque / inertia, z)
        step, q = np.array(step), np.array(q)
        y = np.zeros(2)
        for j in range(steps):
            y = step @ y + (q * cmath.exp(1j * omega * j * h)).imag
        rows = [i, nf + i]
        cycle[np.ix_(rows, rows)] = np.linalg.matrix_power(step, steps)
        cycle[rows, -1] = y
    return cycle


def stepped_rk4(system, forcing, cfg=IntegrationConfig()):
    """Reference: the same RK4 run one step at a time, as plain Python.

    Its length and verdict come from ``settle_cycle`` on the modes'
    one-cycle map, stepped apart (``modal_cycle_map``). Returns (rotation, velocity, cycles, steady, window) shaped
    like the fields of ``integrate``'s record, or raises NumericalError
    naming the first non-finite step as ``integrate`` does.
    """
    n = system.dof
    free = forcing.free_indices()
    nf = len(free)
    steps = cfg.steps_per_period
    _, run = literal_rk4(system, forcing, cfg)
    settled = settle_cycle(modal_cycle_map(system, forcing, cfg), forcing.omega, cfg)
    steady = settled is not None
    cycles = settled + cfg.measure_periods if steady else cfg.max_periods
    samples = [np.zeros((1, 2 * nf))]
    with np.errstate(over="ignore", invalid="ignore"):
        for cycle, block in enumerate(run):
            finite = np.isfinite(block * block).all(axis=1)
            rms = np.sqrt(np.mean(block[:, :nf] ** 2, axis=0))
            if not (finite.all() and np.isfinite(rms).all()):
                bad = cycle * steps + (int(np.argmin(finite)) + 1 if not finite.all() else steps)
                raise NumericalError(f"state became non-finite at step {bad}")
            samples.append(block)
            if cycle + 1 == cycles:
                break

    arr = np.concatenate(samples)
    total = arr.shape[0]
    rotation = np.zeros((total, n))
    velocity = np.zeros((total, n))
    for col, idx in enumerate(free):
        rotation[:, idx] = arr[:, col]
        velocity[:, idx] = arr[:, nf + col]
    window = slice(total - cfg.measure_periods * steps, total)
    return rotation, velocity, cycles, steady, window


def _coupled_pair():
    return SystemMatrices(1.0e7, 1.0e6, 4.375e6, (-5e5, -2e5))


def _reference_flap_case():
    omega = 2.0 * math.pi / 9.5
    return reference_1dof(), ForcingSpec(omega, (0.6e6,)), IntegrationConfig()


def _wave_case(period):
    model = reference_model()
    system = model.system_for(period, 10.0, dual=True)
    forcing = build_wave_forcing(
        WaveCondition(1.75, period), 10.0, model.transfer, model.environment
    )
    return system, forcing, model.integration


def _right_only_left_fixed_case():
    model = reference_model()
    scenario = TorqueScenario(Scenario.RIGHT_ONLY_LEFT_FIXED, 1.0e6, 8.5, 10.0)
    system = model.system_for(scenario.period, scenario.distance, dual=True)
    forcing = build_torque_scenario(scenario, model.environment)
    assert forcing.free_indices() == [1]
    return system, forcing, model.integration


def _torque_case(variant, distance, period):
    # with only the right flap forced, the free left flap moves through the
    # coupling alone: a difference of two modes, where cancellation shows
    model = reference_model()
    scenario = TorqueScenario(variant, 1.0e6, period, distance)
    system = model.system_for(period, distance, dual=True)
    return system, build_torque_scenario(scenario, model.environment), model.integration


def _arbitrary_phase_case():
    omega = 2.0 * math.pi / 8.5
    forcing = ForcingSpec(omega, (cmath.rect(1.0e6, 0.7), cmath.rect(0.6e6, -2.1)))
    return _coupled_pair(), forcing, IntegrationConfig()


def _coarse_step_case():
    omega = 2.0 * math.pi / 10.5
    forcing = ForcingSpec(omega, (cmath.rect(1.0e6, 0.3), 0.8e6))
    return _coupled_pair(), forcing, IntegrationConfig(steps_per_period=37)


def _growing_case():
    system, forcing = unstable_in_phase_case()
    return system, forcing, replace(UNSTABLE_CFG, max_periods=85)


def _beating_flap_case():
    # a lightly damped flap forced below resonance beats, its states
    # swelling and shrinking between 4e139 and 7e139 over 25 cycles
    system = SystemMatrices(1.0e6, 4.0e4, 1.0e6)
    forcing = ForcingSpec(0.8, (0.36e6 * 10.0**139.63,))
    cfg = IntegrationConfig(steps_per_period=40, measure_periods=3, max_periods=120)
    return system, forcing, cfg


def _step_named(excinfo) -> int:
    return int(re.search(r"non-finite at step (\d+)", str(excinfo.value)).group(1))


class TestCycleMapMatchesStepper:
    """``integrate`` advances one forcing period per array product; the
    literal RK4 stepper above must give the same record up to rounding."""

    @pytest.mark.parametrize(
        "case",
        [
            _reference_flap_case,
            lambda: _wave_case(9.5),
            lambda: _wave_case(7.5),
            _right_only_left_fixed_case,
            _arbitrary_phase_case,
            _coarse_step_case,
            _growing_case,
            lambda: _torque_case(Scenario.RIGHT_ONLY_LEFT_FREE, 86.0, 7.5),
            lambda: _torque_case(Scenario.RIGHT_ONLY_LEFT_FREE, 55.0, 7.5),
            lambda: _torque_case(Scenario.OUT_OF_PHASE, 10.0, 8.5),
            _beating_flap_case,
        ],
        ids=[
            "reference-flap",
            "wave-d10-Te9.5",
            "wave-d10-Te7.5",
            "right-only-left-fixed",
            "arbitrary-phase",
            "37-steps",
            "growing-85-periods",
            "right-only-left-free-d86-Te7.5",
            "right-only-left-free-d55-Te7.5",
            "out-of-phase-d10-Te8.5",
            "beating-1e139.63",
        ],
    )
    def test_same_record(self, case):
        system, forcing, cfg = case()
        rotation, velocity, cycles, steady, window = stepped_rk4(system, forcing, cfg)
        record = integrate(system, forcing, cfg)
        for got, want in ((record.rotation, rotation), (record.velocity, velocity)):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))
        assert record.cycles == cycles
        assert record.steady == steady
        assert record.window == window

    @pytest.mark.parametrize(
        "case",
        [
            lambda: (*unstable_in_phase_case(), UNSTABLE_CFG),
            lambda: (
                SystemMatrices(1.0e7, 1.0e6, 4.375e6, (0.0, -3.0e7)),
                ForcingSpec(2.0 * math.pi / 9.5, (1.0e6, 1.0e6)),
                IntegrationConfig(),
            ),
        ],
        ids=["unstable-in-phase", "negative-coupling-damping"],
    )
    def test_same_first_bad_step(self, case):
        system, forcing, cfg = case()
        with pytest.raises(NumericalError) as stepped:
            stepped_rk4(system, forcing, cfg)
        with pytest.raises(NumericalError) as mapped:
            integrate(system, forcing, cfg)
        assert _step_named(mapped) == _step_named(stepped)


@st.composite
def linear_systems(draw):
    """Random 1- and 2-DOF systems and forcing, stable or not."""
    dof = draw(st.sampled_from([1, 2]))
    inertia = 10.0 ** draw(st.floats(6.0, 7.3))
    omega_n = draw(st.floats(0.4, 1.2))
    damping = 2.0 * draw(st.floats(0.02, 1.0)) * inertia * omega_n
    ci = draw(st.floats(-0.899, 0.899)) * inertia
    cd = draw(st.floats(-3.0, 3.0)) * damping
    omega = draw(st.floats(0.5, 2.0)) * omega_n
    fixed = draw(st.sampled_from([None, 0, 1])) if dof == 2 else None
    torques = tuple(
        None
        if i == fixed
        else cmath.rect(draw(st.floats(0.0, 2.0e6)), draw(st.floats(-math.pi, math.pi)))
        for i in range(dof)
    )
    coupling = (ci, cd) if dof == 2 else None
    system = SystemMatrices(inertia, damping, inertia * omega_n**2, coupling)
    measure = draw(st.integers(3, 10))
    cfg = IntegrationConfig(
        steps_per_period=draw(st.sampled_from([37, 120, 200])),
        measure_periods=measure,
        max_periods=draw(st.integers(measure + 1, 120)),
    )
    return system, ForcingSpec(omega, torques), cfg


@given(linear_systems())
@settings(max_examples=150, deadline=None)
def test_integrate_is_finite_or_names_the_step(case):
    """Every run returns a finite record or raises the named-step error."""
    system, forcing, cfg = case
    try:
        record = integrate(system, forcing, cfg)
    except NumericalError as exc:
        assert re.search(r"non-finite at step \d+", str(exc))
        return
    assert np.isfinite(record.rotation**2).all()
    assert np.isfinite(record.velocity**2).all()
    assert record.cycles <= cfg.max_periods
    if record.steady:
        assert record.cycles >= 1 + cfg.measure_periods


@given(linear_systems())
@settings(max_examples=150, deadline=None)
def test_settle_cycle_is_the_first_settled_cycle(case):
    """``settle_cycle`` returns the first cycle c >= 1 at which every mode's
    transient is within convergence_tol of its orbit, checked at c and, when
    c > 1, at c - 1 on the literal stepper's start states against a y*
    solved apart in the flaps' coordinates; a steady record runs exactly
    c + measure_periods cycles, any other max_periods."""
    system, forcing, cfg = case
    cfg = replace(cfg, steps_per_period=37)
    settled = settle_cycle(modal_cycle_map(system, forcing, cfg), forcing.omega, cfg)
    try:
        record = integrate(system, forcing, cfg)
    except NumericalError:
        return
    if settled is None:
        assert (record.cycles, record.steady) == (cfg.max_periods, False)
        return
    assert (record.cycles, record.steady) == (settled + cfg.measure_periods, True)
    assert 1 <= settled <= cfg.max_periods - cfg.measure_periods

    step_matrix, run = literal_rk4(system, forcing, cfg)
    starts = [np.zeros(step_matrix.shape[0])]
    starts += [block[-1] for block in itertools.islice(run, settled)]
    power = np.linalg.matrix_power(step_matrix, cfg.steps_per_period)
    orbit = np.linalg.solve(np.eye(power.shape[0]) - power, starts[1])
    modes = to_modes(power.shape[0] // 2)

    def norms(state):
        x, v = np.split(modes @ state, 2)
        return np.hypot(forcing.omega * x, v)

    # rounding in the stepper's flap coordinates, far below any tolerance;
    # a subnormal orbit holds fewer digits: there, 1e-9 of the least normal float
    bound = cfg.convergence_tol * norms(orbit)
    slack = 1e-9 * max(norms(orbit).max(), sys.float_info.min)
    assert (norms(starts[settled] - orbit) <= bound + slack).all()
    if settled > 1:
        assert (norms(starts[settled - 1] - orbit) > bound - slack).any()


@given(linear_systems())
@settings(max_examples=100, deadline=None)
def test_integrate_matches_the_stepper(case):
    """The record built from powers of the phase-carrying step map is the
    literal stepper's, or both name the same first non-finite step. Every
    run ends at max_periods, so no verdict on the edge of the settle rule
    can set the two apart."""
    system, forcing, cfg = case
    cfg = replace(cfg, steps_per_period=37, max_periods=1 + cfg.measure_periods)
    try:
        rotation, velocity, cycles, _, window = stepped_rk4(system, forcing, cfg)
    except NumericalError as stepped:
        with pytest.raises(NumericalError) as mapped:
            integrate(system, forcing, cfg)
        assert _step_named(mapped) == int(re.search(r"step (\d+)", str(stepped)).group(1))
        return
    record = integrate(system, forcing, cfg)
    assert (record.cycles, record.window) == (cycles, window)
    for got, want in ((record.rotation, rotation), (record.velocity, velocity)):
        assert got.shape == want.shape
        # a subnormal peak holds fewer digits: there, 1e-12 of the least normal float
        scale = max(np.max(np.abs(want)), sys.float_info.min)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * scale)


@pytest.mark.xfail(
    strict=True,
    reason="torque / inertia in the subnormal range: integrate and the stepper each lose "
    "precision (9.6e-10 and 1.8e-10 of the peak off exact RK4) and differ by 1.1e-9",
)
def test_subnormal_torque_matches_the_stepper():
    # a falsifying example of test_integrate_matches_the_stepper
    system = SystemMatrices(1e6, 2e6, 1e6, (0.0, 4e6))
    forcing = ForcingSpec(1.0, (1.1125369292536007e-308, 0j))
    cfg = IntegrationConfig(steps_per_period=37, measure_periods=3, max_periods=4)
    rotation, velocity, cycles, _, window = stepped_rk4(system, forcing, cfg)
    record = integrate(system, forcing, cfg)
    assert (record.cycles, record.window) == (cycles, window)
    for got, want in ((record.rotation, rotation), (record.velocity, velocity)):
        scale = max(np.max(np.abs(want)), sys.float_info.min)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * scale)


@st.composite
def stable_systems(draw):
    """Random 1- and 2-DOF systems with both modes damped, every flap forced,
    in the ranges ``oswec verify`` draws from."""
    dof = draw(st.sampled_from([1, 2]))
    inertia = 10.0 ** draw(st.floats(6.0, 7.3))
    omega_n = draw(st.floats(0.4, 1.2))
    damping = 2.0 * draw(st.floats(0.02, 1.0)) * inertia * omega_n
    coupling = None
    if dof == 2:
        coupling = draw(st.floats(-0.4, 0.4)) * inertia, draw(st.floats(-0.7, 0.7)) * damping
    torques = tuple(
        cmath.rect(draw(st.floats(1e5, 2e6)), draw(st.floats(-math.pi, math.pi)))
        for _ in range(dof)
    )
    system = SystemMatrices(inertia, damping, inertia * omega_n**2, coupling)
    return system, ForcingSpec(draw(st.floats(0.5, 2.0)) * omega_n, torques)


@given(stable_systems())
@settings(max_examples=200, deadline=None)
def test_modes_and_matrices_describe_the_same_pair(case):
    """Each mode solved as a scalar oscillator from ``modes()``, forced by
    (T_l +- T_r)/2 and mapped back as Theta_l,r = Theta+ +- Theta-, is the
    physical solve of ``freq_domain_solve`` on ``matrices()``."""
    system, forcing = case
    omega, torques = forcing.omega, forcing.torques
    if system.dof == 2:
        torques = ((torques[0] + torques[1]) / 2.0, (torques[0] - torques[1]) / 2.0)
    modal = [
        force / (system.stiffness - omega**2 * inertia + 1j * omega * damping)
        for force, (inertia, damping) in zip(torques, system.modes())
    ]
    if system.dof == 2:
        modal = [modal[0] + modal[1], modal[0] - modal[1]]
    theta = freq_domain_solve(system, forcing)
    assert np.abs(theta - modal).max() <= 1e-12 * np.abs(theta).max()


class TestQuadraticFormFallback:
    """Cycles at the edges of the float range, and flaps that cancel to
    rounding level next to their modes: the record is the stepper's, and
    the verdict is the modes', whatever the flaps' squares round to."""

    OMEGA = 2.0 * math.pi / 10.5

    def _forcing(self, factor):
        return ForcingSpec(
            self.OMEGA, (cmath.rect(1.0 * factor, 0.3), 0.8 * factor)
        )

    def test_states_beyond_the_bound_scale_exactly(self):
        # at 1e150 N m every state exceeds 1e140; the squares stay finite
        # and the run is the unit run times 1e150
        cfg = IntegrationConfig()
        unit = integrate(_coupled_pair(), self._forcing(1.0), cfg)
        big = integrate(_coupled_pair(), self._forcing(1e150), cfg)
        assert np.abs(big.rotation).max() > 1e140
        assert (big.cycles, big.steady) == (unit.cycles, unit.steady)
        for got, want in ((big.rotation, unit.rotation), (big.velocity, unit.velocity)):
            want = 1e150 * want
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize(
        "factor, step", [(1e160, 200), (1e161, 43)], ids=["sum-overflows", "square-overflows"]
    )
    def test_overflow_names_the_steppers_step(self, factor, step):
        # a stable pair whose first cycle overflows: at 1e160 only the sum of
        # squares does (the cycle's last step is named), at 1e161 a square
        forcing = self._forcing(factor)
        with pytest.raises(NumericalError) as stepped:
            stepped_rk4(_coupled_pair(), forcing)
        with pytest.raises(NumericalError) as mapped:
            integrate(_coupled_pair(), forcing)
        assert _step_named(mapped) == _step_named(stepped) == step

    def test_decoupled_flap_is_exactly_zero(self):
        # no coupling: the left flap is the in-phase mode plus the exactly
        # opposite out-of-phase mode, so its samples cancel completely; the
        # modes settle as the lone flap does
        system = SystemMatrices(1.0e7, 1.0e6, 4.375e6, (0.0, 0.0))
        forcing = ForcingSpec(self.OMEGA, (0.0, 1.0e6))
        _, _, cycles, steady, _ = stepped_rk4(system, forcing)
        record = integrate(system, forcing)
        lone = integrate(SystemMatrices(1.0e7, 1.0e6, 4.375e6), ForcingSpec(self.OMEGA, (1.0e6,)))
        assert (record.cycles, record.steady) == (cycles, steady) == (lone.cycles, True)
        assert np.all(record.rotation[:, 0] == 0.0)
        assert np.all(record.velocity[:, 0] == 0.0)
        assert np.any(record.rotation[:, 1] != 0.0)

    def test_subnormal_mean_square_settles_as_stepped(self):
        # states near 1e-161 rad have squares in the subnormal range; the
        # settle rule compares each mode's transient with its own orbit, so
        # the run settles where the same flap forced 1e156 times harder does
        system = SystemMatrices(1333521.43216332, 31254.40856633, 333380.35804083)
        cfg = IntegrationConfig(steps_per_period=37, measure_periods=3, max_periods=40)
        forcing = ForcingSpec(0.25, (2.5867325459706784e-156,))
        _, _, cycles, steady, _ = stepped_rk4(system, forcing, cfg)
        record = integrate(system, forcing, cfg)
        unit = integrate(system, forcing.scaled(1e156), cfg)
        assert (record.cycles, record.steady) == (cycles, steady) == (unit.cycles, True)

    def test_cancelling_flap_settles_with_its_modes(self):
        # uncoupled flaps forced 5e12-fold apart: the left flap is the
        # rounding-level difference of two equal modes, but the verdict is
        # the modes', which settle as the lone right flap does
        system = SystemMatrices(1.0e6, 1.5e6, 1.0e6, (0.0, 0.0))
        forcing = ForcingSpec(2.0, (1.192092896e-07, 571831.0))
        cfg = IntegrationConfig(steps_per_period=37, measure_periods=3, max_periods=20)
        _, _, cycles, steady, _ = stepped_rk4(system, forcing, cfg)
        record = integrate(system, forcing, cfg)
        lone = integrate(SystemMatrices(1.0e6, 1.5e6, 1.0e6), ForcingSpec(2.0, (571831.0,)), cfg)
        assert (record.cycles, record.steady) == (cycles, steady) == (lone.cycles, True)

    def test_weakly_coupled_flap_settles_as_stepped(self):
        # the left flap moves through a coupling 1e-9 of the damping: it is
        # a difference of two modes ~1e9 times its own size
        damping = 1.0e6
        system = SystemMatrices(1.0e7, damping, 4.375e6, (0.0, 1e-9 * damping))
        forcing = ForcingSpec(self.OMEGA, (0.0, 1.0e6))
        cfg = IntegrationConfig()
        rotation, _, cycles, steady, _ = stepped_rk4(system, forcing, cfg)
        record = integrate(system, forcing, cfg)
        assert (record.cycles, record.steady) == (cycles, True)
        left = np.abs(rotation[:, 0]).max()
        assert 0.0 < left < 1e-8 * np.abs(rotation[:, 1]).max()
        # rounding of the modes is the error either way
        np.testing.assert_allclose(
            record.rotation, rotation, rtol=0.0, atol=1e-12 * np.abs(rotation).max()
        )


class TestAliasedSampling:
    """Below three samples per period a harmonic fit cannot tell the forcing
    frequency from its alias, so neither the fit nor the integrator accepts it."""

    OMEGA = 0.8

    @pytest.mark.parametrize("per_period", [1, 2])
    def test_fit_rejects_an_aliased_window(self, per_period):
        t = np.arange(8 * per_period) * (2.0 * math.pi / self.OMEGA / per_period)
        with pytest.raises(InvalidInputError, match="samples per period"):
            harmonic_fit(t, 0.5 * np.sin(self.OMEGA * t + 0.3), self.OMEGA)

    def test_three_samples_per_period_fit_exactly(self):
        t = np.arange(12) * (2.0 * math.pi / self.OMEGA / 3)
        amplitude, phase = harmonic_fit(t, 0.5 * np.sin(self.OMEGA * t + 0.3), self.OMEGA)
        assert amplitude == pytest.approx(0.5, rel=1e-12)
        assert phase == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("steps", [1, 2])
    def test_integration_config_rejects_aliased_steps(self, steps):
        with pytest.raises(InvalidInputError, match="steps_per_period must be >= 3"):
            IntegrationConfig(steps_per_period=steps)


class TestFreqDomain:
    def test_1dof_formula(self):
        omega = 0.5
        forcing = ForcingSpec(omega, (0.6e6,))
        theta = freq_domain_solve(reference_1dof(), forcing)
        assert abs(theta[0]) == pytest.approx(
            scalar_amplitude(0.6e6, 1.0e7, 1.0e6, 4.375e6, omega), rel=1e-12
        )

    @pytest.mark.parametrize("sign,phase_r", [(+1, 0.0), (-1, math.pi)])
    def test_modal_mapping(self, sign, phase_r):
        # symmetric pair forced in-phase (out-of-phase) responds like the
        # 1-DOF system with the coupling terms added (subtracted)
        inertia, added, damping, stiffness = 8.0e6, 2.0e6, 1.0e6, 4.375e6
        ci, cd = -4.0e5, -3.0e5
        system = SystemMatrices(inertia + added, damping, stiffness, (ci, cd))
        omega = 2.0 * math.pi / 8.5
        forcing = ForcingSpec(omega, (1.0e6, cmath.rect(1.0e6, phase_r)))
        theta = freq_domain_solve(system, forcing)
        expected = scalar_amplitude(
            1.0e6, inertia + added + sign * ci, damping + sign * cd, stiffness, omega
        )
        assert abs(theta[0]) == pytest.approx(expected, rel=1e-12)
        assert abs(theta[1]) == pytest.approx(expected, rel=1e-12)

    def test_fixed_flap_removed(self):
        system = SystemMatrices(1.0e7, 1.0e6, 4.375e6, (-4e5, -3e5))
        omega = 0.7
        forcing = ForcingSpec(omega, (None, 1.0e6))
        theta = freq_domain_solve(system, forcing)
        assert theta[0] == 0.0
        # the reduced problem is the plain 1-DOF system
        assert abs(theta[1]) == pytest.approx(
            scalar_amplitude(1.0e6, 1.0e7, 1.0e6, 4.375e6, omega), rel=1e-12
        )

    def test_singular_at_undamped_modal_resonance(self):
        # diagonal damping positive, but the in-phase mode has zero damping
        # and is forced exactly at its resonance
        system = SystemMatrices(1.0, 1.0, 1.0, (0.0, -1.0))
        forcing = ForcingSpec(1.0, (1.0, 1.0))
        with pytest.raises(NumericalError):
            freq_domain_solve(system, forcing)

    def test_dimension_mismatch_matches_integrate(self):
        forcing = ForcingSpec(0.7, (1.0e6, 1.0e6))
        messages = []
        for solver in (integrate, freq_domain_solve):
            with pytest.raises(InvalidInputError) as excinfo:
                solver(reference_1dof(), forcing)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert messages[0] == "forcing has 2 flaps but the system has 1 degrees of freedom"


class TestHarmonicFit:
    def test_exact_harmonic(self):
        omega = 0.8
        t = np.arange(0, 2000) * (2 * math.pi / omega / 200)
        amp, phase = harmonic_fit(t, 0.5 * np.sin(omega * t), omega)
        assert amp == pytest.approx(0.5, abs=1e-9)
        assert phase == pytest.approx(0.0, abs=1e-9)

    def test_phase_recovery(self):
        omega = 0.8
        t = np.arange(0, 2000) * (2 * math.pi / omega / 200)
        amp, phase = harmonic_fit(t, 0.5 * np.sin(omega * t + math.pi / 3), omega)
        assert phase == pytest.approx(math.pi / 3, abs=1e-9)

    def test_noisy_harmonic(self):
        omega = 0.8
        rng = np.random.default_rng(12345)
        t = np.arange(0, 4000) * (2 * math.pi / omega / 200)
        y = np.sin(omega * t) + rng.uniform(-0.01, 0.01, size=t.size)
        amp, _ = harmonic_fit(t, y, omega)
        assert abs(amp - 1.0) < 5e-3

    def test_window_too_short(self):
        omega = 0.8
        t = np.arange(0, 300) * (2 * math.pi / omega / 200)  # 1.5 periods
        with pytest.raises(InvalidInputError, match="3 periods"):
            harmonic_fit(t, np.sin(omega * t), omega)

    def test_zero_signal(self):
        omega = 0.8
        t = np.arange(0, 1000) * (2 * math.pi / omega / 200)
        amp, phase = harmonic_fit(t, np.zeros_like(t), omega)
        assert amp == 0.0
        assert phase == 0.0

    @given(
        amp=st.floats(min_value=1e-3, max_value=10.0),
        phase=st.floats(min_value=-3.1, max_value=3.1),
        omega=st.floats(min_value=0.3, max_value=2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, amp, phase, omega):
        t = np.arange(0, 1200) * (2 * math.pi / omega / 200)
        got_amp, got_phase = harmonic_fit(t, amp * np.sin(omega * t + phase), omega)
        assert got_amp == pytest.approx(amp, rel=1e-9)
        assert phase_distance(got_phase, phase) < 1e-9

    def test_columns_fit_as_one_dimensional_series(self):
        omega = 0.8
        t = np.arange(0, 2400) * (2 * math.pi / omega / 200) + 3.0
        noise = np.random.default_rng(5).uniform(-1e-4, 1e-4, t.size)
        series = np.column_stack([
            0.5 * np.sin(omega * t + 1.0),
            2e-3 * np.cos(omega * t) + noise,
            np.zeros_like(t),
            -3.0 * np.sin(omega * t - 2.9),
            1e-7 * np.sin(omega * t + 0.3) + 0.2,
        ])
        amplitude, phase = harmonic_fit(t, series, omega)
        assert amplitude.shape == phase.shape == (series.shape[1],)
        for i in range(series.shape[1]):
            amp, ph = harmonic_fit(t, series[:, i], omega)
            assert amplitude[i] == pytest.approx(amp, rel=1e-15, abs=0.0)
            assert phase[i] == pytest.approx(ph, rel=0.0, abs=1e-15)


class TestResponseMetrics:
    def _synthetic_record(self, series_fn, omega, periods=20, steps=200):
        t = np.arange(periods * steps + 1) * (2 * math.pi / omega / steps)
        theta = series_fn(t)
        vel = np.gradient(theta, t)
        return ResponseRecord(
            t, theta[:, None], vel[:, None], omega, steady=True, cycles=periods,
            window=slice(t.size - 10 * steps, t.size),
        )

    def test_rms_of_pure_harmonic(self):
        omega = 0.7
        record = self._synthetic_record(lambda t: 0.2 * np.sin(omega * t), omega)
        metrics = response_metrics(record)
        assert metrics.rms_rotation[0] == pytest.approx(0.2 / math.sqrt(2), rel=1e-9)
        assert metrics.amplitude[0] == pytest.approx(0.2, rel=1e-9)

    def test_zero_record(self):
        omega = 0.7
        record = self._synthetic_record(lambda t: np.zeros_like(t), omega)
        metrics = response_metrics(record)
        assert metrics.rms_rotation[0] == 0.0
        assert metrics.amplitude[0] == 0.0
        assert metrics.phase[0] == 0.0

    def test_resonant_rms(self):
        omega = 2.0 * math.pi / 9.5
        record = integrate(reference_1dof(), ForcingSpec(omega, (0.6e6,)))
        metrics = response_metrics(record)
        assert metrics.rms_rotation[0] == pytest.approx(0.9071 / math.sqrt(2), rel=5e-3)


class TestOracleEquivalence:
    def test_randomized_systems(self):
        rng = np.random.default_rng(7)
        for _ in range(6):
            inertia = 10 ** rng.uniform(6.0, 7.3)
            omega_n = rng.uniform(0.4, 1.2)
            stiffness = inertia * omega_n**2
            zeta = rng.uniform(0.05, 1.0)
            damping = 2.0 * zeta * inertia * omega_n
            ci = rng.uniform(-0.4, 0.4) * inertia
            cd = rng.uniform(-0.7, 0.7) * damping
            system = SystemMatrices(inertia, damping, stiffness, (ci, cd))
            omega = rng.uniform(0.5, 2.0) * omega_n
            forcing = ForcingSpec(
                omega,
                (
                    cmath.rect(rng.uniform(1e5, 2e6), rng.uniform(-math.pi, math.pi)),
                    cmath.rect(rng.uniform(1e5, 2e6), rng.uniform(-math.pi, math.pi)),
                ),
            )
            record = integrate(system, forcing)
            metrics = response_metrics(record)
            theta = freq_domain_solve(system, forcing)
            for i in range(2):
                assert metrics.amplitude[i] == pytest.approx(abs(theta[i]), rel=0.01)
                if abs(theta[i]) > 1e-12:
                    assert phase_distance(metrics.phase[i], float(np.angle(theta[i]))) < 0.02

    def test_energy_balance(self):
        cfg = IntegrationConfig()
        system = SystemMatrices(1.0e7, 1.0e6, 4.375e6, (-4e5, -3e5))
        omega = 2.0 * math.pi / 8.5
        forcing = ForcingSpec(omega, (cmath.rect(1.0e6, 0.2), cmath.rect(0.7e6, -1.1)))
        record = integrate(system, forcing, cfg)
        p_in = input_power(record, forcing)
        p_out = dissipated_power(record, system)
        assert p_in == pytest.approx(p_out, rel=0.01)
        assert p_in > 0.0

    def test_linearity_is_exact(self):
        omega = 2.0 * math.pi / 8.5
        forcing = ForcingSpec(omega, (0.6e6,))
        base = response_metrics(integrate(reference_1dof(), forcing))
        scaled = response_metrics(integrate(reference_1dof(), forcing.scaled(2.0)))
        assert scaled.amplitude[0] / base.amplitude[0] == pytest.approx(2.0, rel=1e-9)

    @given(scale=st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=40, deadline=None)
    def test_linearity_property_in_frequency_domain(self, scale):
        omega = 0.7
        system = SystemMatrices(1.0e7, 1.0e6, 4.375e6, (-4e5, -2e5))
        forcing = ForcingSpec(omega, (cmath.rect(0.6e6, 0.3), cmath.rect(0.9e6, -1.2)))
        base = freq_domain_solve(system, forcing)
        scaled = freq_domain_solve(system, forcing.scaled(scale))
        np.testing.assert_allclose(np.abs(scaled), scale * np.abs(base), rtol=1e-12)


class TestValidation:
    def test_forcing_spec_invariants(self):
        with pytest.raises(InvalidInputError):
            ForcingSpec(0.0, (1.0,))
        with pytest.raises(InvalidInputError, match="torque phasor of flap 0 is not finite: inf"):
            ForcingSpec(1.0, (math.inf,))
        with pytest.raises(InvalidInputError, match="torque phasor of flap 0 is not finite"):
            ForcingSpec(1.0, (complex(0, math.nan),))

    def test_integration_config_invariants(self):
        with pytest.raises(InvalidInputError):
            IntegrationConfig(steps_per_period=0)
        with pytest.raises(InvalidInputError):
            IntegrationConfig(convergence_tol=0.0)
        # a run that settles at cycle 1 still needs room for its measure window
        with pytest.raises(InvalidInputError, match="^max_periods must exceed measure_periods$"):
            IntegrationConfig(measure_periods=200, max_periods=200)
        IntegrationConfig(measure_periods=199, max_periods=200)
        # a harmonic fit needs at least three periods in its window
        for periods in (1, 2):
            message = f"^measure_periods must be >= 3, got {periods}$"
            with pytest.raises(InvalidInputError, match=message):
                IntegrationConfig(measure_periods=periods)

    @pytest.mark.parametrize("field", ["inertia", "damping", "stiffness"])
    @pytest.mark.parametrize("dof, index", [(1, 0), (2, 0), (2, 1), (2, 2), (2, 3)])
    def test_nan_in_any_field_is_rejected(self, field, dof, index):
        # entry `index` of the field's physical matrix: an off-diagonal inertia
        # or damping entry of a pair is its coupling value, any stiffness
        # entry the one stiffness
        values = {"inertia": 2.0, "damping": 1.0, "stiffness": 1.0}
        coupling = [0.0, 0.0] if dof == 2 else None
        if index in (1, 2) and field != "stiffness":
            coupling[0 if field == "inertia" else 1] = math.nan
        else:
            values[field] = math.nan
        with pytest.raises(InvalidInputError, match="^system values must be finite, got .*nan"):
            SystemMatrices(**values, coupling=coupling)

    def test_system_matrix_invariants(self):
        with pytest.raises(InvalidInputError, match="^diagonal damping must be positive$"):
            SystemMatrices(1.0, -1.0, 1.0, (0.0, 0.0))


def matrix_rk4_step(m_row, c_row, stiffness, phasor, omega, h):
    """Reference: one RK4 step of the modal first-order system as 2nf x 2nf
    matrices, y <- step @ y + Im(q exp(i w t)): the Horner product of the
    full matrix and the complex stage vectors, mode i in rows i and nf + i."""
    nf = len(m_row)
    modes = np.array([[1.0, 1.0], [1.0, -1.0]])[:nf, :nf]
    minv = 1.0 / (np.asarray(m_row) @ modes)
    a_mat = np.zeros((2 * nf, 2 * nf))
    a_mat[:nf, nf:] = np.eye(nf)
    a_mat[nf:, :nf] = np.diag(-minv * stiffness)
    a_mat[nf:, nf:] = np.diag(-minv * (np.asarray(c_row) @ modes))
    g = np.zeros(2 * nf, dtype=complex)
    g[nf:] = minv * (np.asarray(phasor) @ modes) / nf
    eye = np.eye(2 * nf)
    h_a = h * a_mat
    step = eye + h_a @ (eye + (h_a / 2) @ (eye + (h_a / 3) @ (eye + h_a / 4)))
    z = np.exp(0.5j * omega * h)
    k1 = g
    k2 = (0.5 * h) * (a_mat @ k1) + g * z
    k3 = (0.5 * h) * (a_mat @ k2) + g * z
    k4 = h * (a_mat @ k3) + g * (z * z)
    return step, (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class TestModalStepMap:
    """Each mode's step map and forcing stage, built in closed form, against
    the full-matrix Horner product and complex stage vectors."""

    @pytest.mark.parametrize("nf", [1, 2])
    # h * omega_n from fine steps to beyond RK4's stability limit (about 2.8)
    @pytest.mark.parametrize("h_omega_n", [1e-3, 0.03, 0.5, 2.0, 2.9, 5.0, 40.0])
    @pytest.mark.parametrize("zeta", [0.02, 0.3, 3.0])
    def test_matches_the_matrix_step(self, nf, h_omega_n, zeta):
        rng = np.random.default_rng([nf, int(h_omega_n * 1000), int(zeta * 100)])
        inertia = 10.0 ** rng.uniform(6.0, 7.3)
        omega_n = rng.uniform(0.4, 1.2)
        stiffness = inertia * omega_n**2
        damping = 2.0 * zeta * inertia * omega_n
        m_row, c_row = [inertia], [damping]
        if nf == 2:
            m_row.append(rng.uniform(-0.4, 0.4) * inertia)
            c_row.append(rng.uniform(-0.7, 0.7) * damping)
        phasor = rng.uniform(1e5, 2e6, nf) * np.exp(1j * rng.uniform(-math.pi, math.pi, nf))
        h = h_omega_n / omega_n
        omega = rng.uniform(0.5, 2.0) * omega_n
        step, q = matrix_rk4_step(m_row, c_row, np.full(nf, stiffness), phasor, omega, h)

        modes = np.array([[1.0, 1.0], [1.0, -1.0]])[:nf, :nf]
        z = np.exp(0.5j * omega * h)
        for i, (m_i, c_i, f_i) in enumerate(
            zip(np.asarray(m_row) @ modes, np.asarray(c_row) @ modes, phasor @ modes)
        ):
            rows = [i, nf + i]
            rows_got, q_got = _rk4_mode(h, stiffness / m_i, c_i / m_i, f_i / m_i / nf, z)
            want = step[np.ix_(rows, rows)]
            assert np.abs(np.array(rows_got) - want).max() <= 1e-14 * np.abs(want).max()
            assert np.abs(np.array(q_got) - q[rows]).max() <= 1e-14 * np.abs(q[rows]).max()
        # the modes are independent: nothing couples one to the other
        if nf == 2:
            assert not step[np.ix_([0, 2], [1, 3])].any() and not step[np.ix_([1, 3], [0, 2])].any()


class TestWholePeriodFit:
    """The fit and the input power fold a window of whole periods into one."""

    def test_matches_least_squares_on_random_windows(self):
        rng = np.random.default_rng(2024)
        for _ in range(150):
            periods = int(rng.integers(3, 41))
            per_period = int(rng.integers(3, 401))
            omega = rng.uniform(0.2, 3.0)
            t = rng.uniform(0.0, 500.0) + np.arange(periods * per_period) * (
                2.0 * math.pi / omega / per_period
            )
            amps = 10.0 ** rng.uniform(-4.0, 1.0, 3)
            phases = rng.uniform(-math.pi, math.pi, 3)
            series = amps * np.sin(omega * t[:, None] + phases)
            series += 1e-3 * amps * rng.standard_normal(series.shape)
            design = np.column_stack([np.sin(omega * t), np.cos(omega * t)])
            (a, b), *_ = np.linalg.lstsq(design, series, rcond=None)
            amplitude, phase = harmonic_fit(t, series, omega)
            want_amp = np.hypot(a, b)
            np.testing.assert_allclose(amplitude, want_amp, rtol=1e-12, atol=0.0)
            for got, want in zip(phase, np.arctan2(b, a)):
                assert phase_distance(got, want) < 1e-12

    @pytest.mark.parametrize(
        "periods, per_period", [(3.5, 200), (10, 200.5)], ids=["3.5-periods", "200.5-per-period"]
    )
    def test_window_of_partial_periods_is_rejected(self, periods, per_period):
        omega = 0.8
        t = np.arange(round(periods * per_period)) * (2.0 * math.pi / omega / per_period)
        with pytest.raises(InvalidInputError, match="not a whole number of periods"):
            harmonic_fit(t, np.sin(omega * t), omega)

    def test_input_power_is_the_window_mean_of_torque_times_velocity(self):
        omega, steps = 0.7, 50
        rng = np.random.default_rng(11)
        t = 4.0 + np.arange(12 * steps + 1) * (2.0 * math.pi / omega / steps)
        velocity = np.column_stack([
            0.3 * np.sin(omega * t + 0.4), 0.1 * np.cos(omega * t - 1.0)
        ]) + 1e-3 * rng.standard_normal((t.size, 2))
        record = ResponseRecord(
            t, np.zeros_like(velocity), velocity, omega, steady=True, cycles=12,
            window=slice(t.size - 8 * steps, t.size),
        )
        forcing = ForcingSpec(omega, (cmath.rect(1.0e6, 0.2), cmath.rect(0.7e6, -1.1)))
        tw, vw = t[record.window], velocity[record.window]
        tau = (np.array(forcing.torques) * np.exp(1j * omega * tw[:, None])).imag
        assert input_power(record, forcing) == pytest.approx(
            np.mean(np.sum(tau * vw, axis=1)), rel=1e-12
        )
