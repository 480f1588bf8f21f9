import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oswec.dynamics import freq_domain_solve
from oswec.errors import InvalidInputError
from oswec.forcing import (
    ExcitationTransfer,
    Scenario,
    TorqueScenario,
    WaveCondition,
    build_single_wave_forcing,
    build_torque_scenario,
    build_wave_forcing,
    load_transfer_table,
    transfer_at,
)
from oswec.hydro import Environment, solve_dispersion, wavelength_deep

ENV = Environment()
XFER = ExcitationTransfer.constant(1.0e6 / 0.875, eta=0.1)


class TestTorqueScenarios:
    def test_single_baseline(self):
        f = build_torque_scenario(TorqueScenario(Scenario.SINGLE, 0.6e6, 9.5), ENV)
        assert f.dof == 1
        assert f.torques == (0.6e6,)
        assert f.omega == pytest.approx(2 * math.pi / 9.5, rel=1e-15)

    def test_right_only_left_fixed(self):
        f = build_torque_scenario(
            TorqueScenario(Scenario.RIGHT_ONLY_LEFT_FIXED, 1.0e6, 8.5, 10.0), ENV
        )
        assert f.torques == (None, 1.0e6)

    def test_right_only_left_free(self):
        f = build_torque_scenario(
            TorqueScenario(Scenario.RIGHT_ONLY_LEFT_FREE, 1.0e6, 8.5, 10.0), ENV
        )
        assert f.torques == (0.0, 1.0e6)

    def test_in_phase(self):
        f = build_torque_scenario(TorqueScenario(Scenario.IN_PHASE, 1.0e6, 8.5, 10.0), ENV)
        assert f.torques == (1.0e6, 1.0e6)

    def test_out_of_phase_exact_pi(self):
        f = build_torque_scenario(TorqueScenario(Scenario.OUT_OF_PHASE, 1.0e6, 8.5, 10.0), ENV)
        # the right phasor is exactly -T0, with no rounding-level imaginary part
        assert f.torques == (1.0e6, -1.0e6)
        assert f.torques[1].imag == 0.0

    def test_arbitrary_phase_law(self):
        # phi_r = 2*pi*d/lambda with the deep-water wavelength
        f = build_torque_scenario(
            TorqueScenario(Scenario.ARBITRARY_PHASE, 1.0e6, 9.5, 45.0), ENV
        )
        expected = 2 * math.pi * 45.0 / wavelength_deep(9.5)
        assert expected == pytest.approx(2.007, abs=5e-4)
        assert f.torques[0] == 1.0e6
        assert f.torques[1] == pytest.approx(cmath.rect(1.0e6, expected), rel=1e-12)

    def test_arbitrary_phase_at_full_wavelength_degenerates_to_in_phase(self):
        lam = wavelength_deep(8.5)
        arb = build_torque_scenario(
            TorqueScenario(Scenario.ARBITRARY_PHASE, 1.0e6, 8.5, lam), ENV
        )
        assert arb.torques[1] == pytest.approx(1.0e6, rel=1e-12)
        # same steady response as the in-phase case on any symmetric system
        from oswec.dynamics import SystemMatrices

        system = SystemMatrices(1.0e7, 1.0e6, 4.375e6, (-4e5, -2e5))
        in_phase = build_torque_scenario(
            TorqueScenario(Scenario.IN_PHASE, 1.0e6, 8.5, lam), ENV
        )
        np.testing.assert_allclose(
            np.abs(freq_domain_solve(system, arb)),
            np.abs(freq_domain_solve(system, in_phase)),
            rtol=1e-12,
        )

    @given(d=st.floats(min_value=1.0, max_value=200.0))
    @settings(max_examples=50, deadline=None)
    def test_arbitrary_phase_periodic_in_distance(self, d):
        lam = wavelength_deep(8.5)
        f1 = build_torque_scenario(
            TorqueScenario(Scenario.ARBITRARY_PHASE, 1.0e6, 8.5, d), ENV
        )
        f2 = build_torque_scenario(
            TorqueScenario(Scenario.ARBITRARY_PHASE, 1.0e6, 8.5, d + lam), ENV
        )
        assert f2.torques[1] == pytest.approx(f1.torques[1], rel=1e-9)

    def test_scenario_validation(self):
        with pytest.raises(InvalidInputError):
            TorqueScenario(Scenario.IN_PHASE, -1.0, 8.5)
        with pytest.raises(InvalidInputError):
            TorqueScenario(Scenario.ARBITRARY_PHASE, 1.0e6, 8.5, 0.0)

    @pytest.mark.parametrize("variant", list(Scenario))
    @pytest.mark.parametrize("period, omega2", [(1e300, "0.0"), (1e-300, "inf"), (3e162, "5e-324")])
    def test_out_of_range_period_is_rejected(self, variant, period, omega2):
        # omega^2 underflows to 0, overflows, or is subnormal: no variant
        # reaches the integrator, whatever its coefficients
        message = f"torque period {period} s is out of range: omega^2 is {omega2}"
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            TorqueScenario(variant, 1.0e6, period, 10.0)


class TestWaveForcing:
    def test_coincident_flaps(self):
        # a pair needs a positive, finite distance: coincident flaps are not a pair
        for distance in (0.0, -0.0, math.inf, math.nan):
            message = f"distance must be positive and finite, got {distance}"
            with pytest.raises(InvalidInputError, match=re.escape(message)):
                build_wave_forcing(WaveCondition(1.75, 8.5), distance, XFER, ENV)

    def test_back_flap_phase_law(self):
        f = build_wave_forcing(WaveCondition(1.75, 8.5), 55.0, XFER, ENV)
        expected = -2 * math.pi * 55.0 / wavelength_deep(8.5)
        assert expected == pytest.approx(-3.063, abs=5e-4)
        assert f.torques[0].imag == 0.0
        assert cmath.phase(f.torques[1]) == pytest.approx(expected, rel=1e-12)

    def test_heading_scales_amplitude_and_power(self):
        f0 = build_wave_forcing(WaveCondition(1.75, 8.5, 0.0), 45.0, XFER, ENV)
        f45 = build_wave_forcing(WaveCondition(1.75, 8.5, 45.0), 45.0, XFER, ENV)
        scale = math.cos(math.radians(45.0))
        assert f45.torques[0] == pytest.approx(f0.torques[0] * scale, rel=1e-12)
        # a decoupled flap's mean power then halves exactly
        from oswec.dynamics import SystemMatrices

        system = SystemMatrices(1.0e7, 1.0e6, 4.375e6)
        a0 = abs(freq_domain_solve(system, build_single_wave_forcing(WaveCondition(1.75, 8.5, 0.0), XFER, ENV))[0])
        a45 = abs(freq_domain_solve(system, build_single_wave_forcing(WaveCondition(1.75, 8.5, 45.0), XFER, ENV))[0])
        assert (a45 / a0) ** 2 == pytest.approx(0.5, rel=1e-12)

    def test_out_of_range_period_is_rejected(self):
        # the single-flap baseline solves no dispersion relation
        with pytest.raises(InvalidInputError, match="wave period 1e[+]300 s is out of range"):
            WaveCondition(1.75, 1e300)

    def test_heading_90_rejected(self):
        with pytest.raises(InvalidInputError):
            WaveCondition(1.75, 8.5, 90.0)
        with pytest.raises(InvalidInputError):
            WaveCondition(1.75, 8.5, -5.0)

    def test_front_back_phase_gap_is_kd_cos_beta(self):
        for beta in (0.0, 15.0, 30.0, 45.0):
            f = build_wave_forcing(WaveCondition(1.75, 8.5, beta), 45.0, XFER, ENV)
            k = solve_dispersion(8.5, ENV)
            expected = k * 45.0 * math.cos(math.radians(beta))
            assert cmath.phase(f.torques[1] / f.torques[0]) == pytest.approx(-expected, rel=1e-12)

    @given(
        b1=st.floats(min_value=0.0, max_value=89.0),
        b2=st.floats(min_value=0.0, max_value=89.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_amplitude_strictly_decreasing_in_heading(self, b1, b2):
        lo, hi = min(b1, b2), max(b1, b2)
        if hi - lo < 0.5:  # below ~0.5 deg near beta=0 the cosine is flat in float64
            return
        f_lo = build_wave_forcing(WaveCondition(1.75, 8.5, lo), 45.0, XFER, ENV)
        f_hi = build_wave_forcing(WaveCondition(1.75, 8.5, hi), 45.0, XFER, ENV)
        assert abs(f_hi.torques[0]) < abs(f_lo.torques[0])

    def test_back_amplitude_never_exceeds_front(self):
        for d in (5.0, 10.0, 45.0, 86.0, 300.0):
            f = build_wave_forcing(WaveCondition(1.75, 8.5), d, XFER, ENV)
            assert abs(f.torques[1]) < abs(f.torques[0])

    def test_forcing_gap_fades_with_distance(self):
        lam = wavelength_deep(8.5)
        gaps = []
        for d in (10.0, 45.0, 70.0):
            tau = XFER.transmission(d, lam)
            gaps.append(1.0 - tau)
        assert gaps[0] > gaps[1] > gaps[2]

    def test_negative_distance_rejected(self):
        with pytest.raises(InvalidInputError):
            build_wave_forcing(WaveCondition(1.75, 8.5), -1.0, XFER, ENV)


class TestTransfer:
    def test_exact_node(self):
        xfer = ExcitationTransfer(np.array([8.0, 10.0]), np.array([1.0e6, 2.0e6]))
        assert transfer_at(xfer, 10.0) == 2.0e6

    def test_midpoint(self):
        xfer = ExcitationTransfer(np.array([8.0, 10.0]), np.array([1.0e6, 2.0e6]))
        assert transfer_at(xfer, 9.0) == pytest.approx(1.5e6, rel=1e-15)

    def test_clamped_edges(self):
        xfer = ExcitationTransfer(np.array([8.0, 10.0]), np.array([1.0e6, 2.0e6]))
        assert transfer_at(xfer, 5.0) == 1.0e6
        assert transfer_at(xfer, 15.0) == 2.0e6

    def test_reference_calibration(self):
        # H = 1.75 m at the reference constant gamma gives 1.0 MN m of torque
        f = build_single_wave_forcing(WaveCondition(1.75, 8.5), XFER, ENV)
        assert f.torques[0] == pytest.approx(1.0e6, rel=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            ExcitationTransfer(np.array([]), np.array([]))
        with pytest.raises(InvalidInputError):
            ExcitationTransfer(np.array([8.0]), np.array([-1.0]))
        with pytest.raises(InvalidInputError):
            ExcitationTransfer(np.array([8.0]), np.array([1.0]), eta=1.0)

    def test_loader(self, tmp_path):
        path = tmp_path / "transfer.csv"
        path.write_text("period_s,gamma_Nm_per_m\n8,1e6\n10,2e6\n")
        xfer = load_transfer_table(path, eta=0.2)
        assert transfer_at(xfer, 9.0) == pytest.approx(1.5e6)
        assert xfer.eta == 0.2

    def test_loader_errors(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("period_s,gamma_Nm_per_m\n")
        with pytest.raises(InvalidInputError, match="no data"):
            load_transfer_table(empty)
        bad = tmp_path / "bad.csv"
        bad.write_text("period,gamma\n8,1e6\n")
        with pytest.raises(InvalidInputError, match="header"):
            load_transfer_table(bad)

    def test_shipped_sample_loads(self, data_dir):
        xfer = load_transfer_table(data_dir / "sample_transfer.csv")
        assert xfer.period_grid.size == 5

    def test_transmission_bounds(self):
        lam = wavelength_deep(8.5)
        for d in (0.0, -1.0, math.inf, math.nan):
            message = f"distance must be positive and finite, got {d}"
            with pytest.raises(InvalidInputError, match=re.escape(message)):
                XFER.transmission(d, lam)
        for d in (1.0, 50.0, 500.0):
            assert 0.0 < XFER.transmission(d, lam) < 1.0
