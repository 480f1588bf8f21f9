import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oswec.errors import InvalidInputError
from oswec.hydro import (
    AnalyticCoefficientSource,
    Environment,
    FlapProperties,
    TableCoefficientSource,
    analytic_coupling,
    load_coefficient_table,
    solve_dispersion,
    wavelength,
    wavelength_deep,
)

G = 9.81


def deep_lambda(period):
    # independent statement of the deep-water formula
    return G * period * period / (2.0 * math.pi)


class TestWavelengthDeep:
    @pytest.mark.parametrize("period", [7.5, 8.5, 9.5, 10.5, 11.5])
    def test_matches_formula(self, period):
        assert wavelength_deep(period) == pytest.approx(deep_lambda(period), rel=1e-14)

    def test_reference_values(self):
        assert wavelength_deep(7.5) == pytest.approx(87.8237, abs=5e-4)
        assert wavelength_deep(10.5) == pytest.approx(172.1345, abs=5e-4)
        # half the 9.5 s wavelength sits at the 70 m separation choice
        assert wavelength_deep(9.5) / 2.0 == pytest.approx(70.0, rel=0.01)

    def test_band_crosscheck_d10(self):
        ratios = [10.0 / wavelength_deep(t) for t in (7.5, 10.5)]
        assert round(min(ratios), 2) == 0.06
        assert round(max(ratios), 2) == 0.11

    @pytest.mark.parametrize("period", [0.0, -3.0])
    def test_invalid_period(self, period):
        with pytest.raises(InvalidInputError):
            wavelength_deep(period)


def bisect_dispersion(period, depth, g=G):
    """Independent oracle: plain bisection on the dispersion residual."""
    omega2 = (2.0 * math.pi / period) ** 2

    def f(k):
        return omega2 - g * k * math.tanh(k * depth)

    lo, hi = 1e-8, 10.0
    assert f(lo) > 0 > f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestDispersion:
    def test_deep_value(self):
        k = solve_dispersion(8.5, Environment())
        assert k == pytest.approx(2.0 * math.pi / deep_lambda(8.5), rel=1e-14)
        assert k == pytest.approx(0.0557, abs=2e-4)

    def test_deep_product_identity(self):
        for t in (7.5, 9.0, 11.5):
            env = Environment()
            assert wavelength(t, env) * solve_dispersion(t, env) == pytest.approx(
                2.0 * math.pi, rel=1e-14
            )

    def test_very_deep_matches_deep(self):
        k_deep = solve_dispersion(8.5, Environment())
        k_1000 = solve_dispersion(8.5, Environment(water_depth=1000.0))
        assert abs(k_1000 - k_deep) / k_deep < 1e-3

    def test_finite_depth_residual_and_oracle(self):
        env = Environment(water_depth=10.0)
        k = solve_dispersion(8.5, env)
        omega2 = (2.0 * math.pi / 8.5) ** 2
        residual = abs(omega2 - G * k * math.tanh(k * 10.0)) / omega2
        assert residual < 1e-10
        assert k > solve_dispersion(8.5, Environment())
        assert k == pytest.approx(bisect_dispersion(8.5, 10.0), rel=1e-9)

    @pytest.mark.parametrize("depth", [20.0, 65.0, 300.0])
    def test_residual_across_depths(self, depth):
        env = Environment(water_depth=depth)
        for t in (7.5, 9.5, 11.5):
            k = solve_dispersion(t, env)
            omega2 = (2.0 * math.pi / t) ** 2
            assert abs(omega2 - G * k * math.tanh(k * depth)) / omega2 < 1e-10

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            solve_dispersion(-1.0, Environment())
        with pytest.raises(InvalidInputError):
            Environment(water_depth=0.0)
        with pytest.raises(InvalidInputError):
            Environment(gravity=-9.81)


class TestExtremePeriods:
    """A period whose wave scales leave the float range is a configuration
    error naming the period, not an arithmetic exception or a hang."""

    @pytest.mark.parametrize(
        "period, depth, distance, name",
        [
            (1e-300, "deep", 0.0, "omega^2"),  # omega^2 overflows, T^2 underflows to 0
            (1e-160, "deep", 10.0, "omega^2"),  # omega^2 overflows, k would too
            (1e300, "deep", 10.0, "omega^2"),  # omega^2 underflows to 0, T^2 overflows
            (1e300, 50.0, 10.0, "omega^2"),
            (3e162, 50.0, 10.0, "omega^2"),  # subnormal omega^2: a Newton bracket that never grows
            (1.4e154, "deep", 10.0, "the deep-water wavenumber"),  # T^2 overflows
            (7e-154, "deep", 33.0, "k*d at d = 33.0 m"),  # k finite, k*d not
        ],
    )
    def test_out_of_range_period_is_named(self, period, depth, distance, name):
        message = f"wave period {period} s is out of range: {name} is"
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            solve_dispersion(period, Environment(water_depth=depth), distance)

    def test_infinite_distance_is_left_to_its_caller(self):
        assert solve_dispersion(8.5, Environment(), math.inf) == solve_dispersion(8.5)
        with pytest.raises(InvalidInputError, match="distance must be positive and finite"):
            AnalyticCoefficientSource(2e6, 1e6, 0.3).pair(
                8.5, math.inf, Environment()
            )


ENV = Environment()


def small_table():
    periods = np.array([8.0, 10.0])
    distances = np.array([10.0, 50.0])
    return TableCoefficientSource(
        period_grid=periods,
        distance_grid=distances,
        added_inertia=np.array([[1.0e6, 2.0e6], [3.0e6, 4.0e6]]),
        damping=np.array([[1.0e5, 2.0e5], [3.0e5, 4.0e5]]),
        coupling_inertia=np.array([[-1.0e4, -2.0e4], [-3.0e4, -4.0e4]]),
        coupling_damping=np.array([[-1.0e3, -2.0e3], [-3.0e3, -4.0e3]]),
    )


class TestCoefficientTable:
    def test_node_identity(self):
        assert small_table().pair(10.0, 50.0, ENV) == (4.0e6, 4.0e5, (-4.0e4, -4.0e3))

    def test_midpoint_mean(self):
        added_inertia, damping, _ = small_table().pair(9.0, 10.0, ENV)
        assert added_inertia == pytest.approx(0.5 * (1.0e6 + 3.0e6), rel=1e-15)
        assert damping == pytest.approx(0.5 * (1.0e5 + 3.0e5), rel=1e-15)

    def test_clamps_beyond_edges(self):
        table = small_table()
        assert table.pair(10.0, 500.0, ENV) == table.pair(10.0, 50.0, ENV)
        assert table.pair(1.0, 10.0, ENV) == table.pair(8.0, 10.0, ENV)

    def test_monotone_along_axes(self):
        table = small_table()
        values = [table.pair(8.0, d, ENV)[0] for d in (10, 20, 30, 40, 50)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(InvalidInputError, match="at least one grid point"):
            TableCoefficientSource(
                np.array([]), np.array([10.0]), *[np.zeros((0, 1))] * 4
            )
        with pytest.raises(InvalidInputError, match="strictly increasing"):
            TableCoefficientSource(
                np.array([8.0, 8.0]),
                np.array([10.0]),
                *[np.ones((2, 1))] * 4,
            )
        with pytest.raises(InvalidInputError, match="added inertia must be >= 0"):
            TableCoefficientSource(
                np.array([8.0]),
                np.array([10.0]),
                np.array([[-1.0]]),
                np.array([[1.0]]),
                np.array([[0.0]]),
                np.array([[0.0]]),
            )
        shape = r"field damping has shape \(1, 2\), expected \(1, 1\)"
        with pytest.raises(InvalidInputError, match=shape):
            TableCoefficientSource(
                np.array([8.0]),
                np.array([10.0]),
                np.array([[1.0]]),
                np.array([[1.0, 1.0]]),
                np.array([[0.0]]),
                np.array([[0.0]]),
            )


class TestTableLoader:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "coeffs.csv"
        path.write_text(
            "period_s,distance_m,Ia,C,Ia_lr,C_lr\n"
            "8,10,1e6,1e5,-1e4,-1e3\n"
            "8,50,2e6,2e5,-2e4,-2e3\n"
            "10,10,3e6,3e5,-3e4,-3e3\n"
            "10,50,4e6,4e5,-4e4,-4e3\n"
        )
        table = load_coefficient_table(path)
        assert list(table.period_grid) == [8.0, 10.0]
        assert table.pair(8.0, 50.0, ENV) == (2e6, 2e5, (-2e4, -2e3))
        assert table.describe() == {"source": "table"}
        assert load_coefficient_table(path, "coeffs.csv").describe() == {"source": "coeffs.csv"}
    def test_missing_cell(self, tmp_path):
        path = tmp_path / "coeffs.csv"
        path.write_text(
            "period_s,distance_m,Ia,C,Ia_lr,C_lr\n"
            "8,10,1e6,1e5,0,0\n"
            "8,50,2e6,2e5,0,0\n"
            "10,10,3e6,3e5,0,0\n"
        )
        with pytest.raises(InvalidInputError, match="missing cell.*period=10.*distance=50"):
            load_coefficient_table(path)

    def test_duplicate_cell(self, tmp_path):
        path = tmp_path / "coeffs.csv"
        path.write_text(
            "period_s,distance_m,Ia,C,Ia_lr,C_lr\n"
            "8,10,1e6,1e5,0,0\n"
            "8,10,2e6,2e5,0,0\n"
        )
        with pytest.raises(InvalidInputError, match="duplicate"):
            load_coefficient_table(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "coeffs.csv"
        path.write_text("period,distance,Ia,C,Ia_lr,C_lr\n8,10,1,1,0,0\n")
        with pytest.raises(InvalidInputError, match="header"):
            load_coefficient_table(path)

    def test_shipped_sample_loads(self, data_dir):
        table = load_coefficient_table(data_dir / "sample_coefficients.csv")
        assert table.period_grid.size == 5
        assert table.distance_grid.size == 4


IA, C = 2.0e6, 1.0e6  # the reference added inertia and damping


class TestAnalyticCoupling:
    def test_zero_alpha_isolates(self):
        assert analytic_coupling(IA, C, 10.0, 0.06, alpha=0.0) == (0.0, 0.0)

    def test_kd_two_pi(self):
        # k*d = 2*pi puts the damping kernel at its negative-cosine extreme
        kd = 2.0 * math.pi
        coupling_inertia, coupling_damping = analytic_coupling(IA, C, 100.0, kd / 100.0, alpha=0.3)
        assert coupling_damping == pytest.approx(-0.3 * C / math.sqrt(kd), rel=1e-12)
        assert coupling_inertia == pytest.approx(0.0, abs=1e-9 * IA)

    def test_short_distance_boosts_in_phase(self):
        # d=10 m, T=8.5 s: negative coupling damping lowers the in-phase
        # denominator of the 1-DOF modal formula, so the in-phase amplitude
        # beats the single flap (checked with the scalar formula directly)
        k = solve_dispersion(8.5, Environment())
        coupling_inertia, coupling_damping = analytic_coupling(IA, C, 10.0, k, alpha=0.3)
        assert coupling_damping < 0.0

        inertia, stiffness = 8.0e6, 4.375e6
        omega = 2.0 * math.pi / 8.5

        def amp(total_inertia, damping):
            return 1.0 / math.hypot(stiffness - total_inertia * omega**2, damping * omega)

        single = amp(inertia + IA, C)
        in_phase = amp(inertia + IA + coupling_inertia, C + coupling_damping)
        assert in_phase > single

    def test_alpha_out_of_range(self):
        for alpha in (-0.1, 1.5):
            with pytest.raises(InvalidInputError, match="alpha must be in"):
                analytic_coupling(IA, C, 10.0, 0.06, alpha=alpha)

    def test_invalid_geometry(self):
        with pytest.raises(InvalidInputError, match="distance must be positive and finite"):
            analytic_coupling(IA, C, -1.0, 0.06, alpha=0.3)
        with pytest.raises(InvalidInputError, match="wavenumber must be positive"):
            analytic_coupling(IA, C, 10.0, 0.0, alpha=0.3)

    @given(
        kd=st.floats(min_value=0.01, max_value=50.0),
        # subnormal gains only exercise float underflow, not the kernel
        alpha=st.floats(min_value=1e-9, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_kernel_envelope(self, kd, alpha):
        coupling_inertia, coupling_damping = analytic_coupling(IA, C, kd / 0.05, 0.05, alpha=alpha)
        envelope = alpha * C / math.sqrt(max(kd, 0.1))
        assert abs(coupling_damping) <= envelope * (1.0 + 1e-12)
        envelope_i = alpha * IA / math.sqrt(max(kd, 0.1))
        assert abs(coupling_inertia) <= envelope_i * (1.0 + 1e-12)

    @given(n=st.integers(min_value=1, max_value=6), factor=st.floats(min_value=1.001, max_value=20.0))
    @settings(max_examples=100, deadline=None)
    def test_envelope_decay_from_peaks(self, n, factor):
        # anchored where |cos| = 1, the sqrt(d1/d2) envelope bounds all
        # farther couplings
        k = 0.05
        d1 = n * math.pi / k
        d2 = d1 * factor
        _, c1 = analytic_coupling(IA, C, d1, k, alpha=0.3)
        _, c2 = analytic_coupling(IA, C, d2, k, alpha=0.3)
        assert abs(c2) <= abs(c1) * math.sqrt(d1 / d2) * (1.0 + 1e-12)


class TestCoefficientSources:
    def test_analytic_single_has_no_coupling(self):
        source = AnalyticCoefficientSource(IA, C, alpha=0.3)
        assert source.single(8.5, Environment()) == (IA, C, None)

    def test_analytic_pair_matches_kernel(self):
        env = Environment()
        source = AnalyticCoefficientSource(IA, C, alpha=0.3)
        k = solve_dispersion(8.5, env)
        assert source.pair(8.5, 10.0, env) == (IA, C, analytic_coupling(IA, C, 10.0, k, 0.3))

    def test_table_single_uses_far_field(self):
        # the diagonal values at the 50 m edge, without coupling
        assert small_table().single(8.0, Environment()) == (2.0e6, 2.0e5, None)

    def test_flap_properties_validation(self):
        with pytest.raises(InvalidInputError):
            FlapProperties(inertia_dry=-1.0, stiffness=1.0)
        with pytest.raises(InvalidInputError):
            FlapProperties(inertia_dry=1.0, stiffness=0.0)
        with pytest.raises(InvalidInputError, match="damping must be positive, got 0.0"):
            AnalyticCoefficientSource(1.0, 0.0, alpha=0.3)

    @pytest.mark.parametrize(
        "values, message",
        [
            ((-1.0, C, 0.3), "added inertia must be >= 0, got -1.0"),
            ((math.inf, C, 0.3), "added_inertia must be finite, got inf"),
            ((IA, math.nan, 0.3), "damping must be finite, got nan"),
            ((IA, C, 1.5), "coupling gain alpha must be in [0, 1], got 1.5"),
            ((IA, C, 0.3, -1.0), "kernel floor eps must be finite and >= 0, got -1.0"),
        ],
    )
    def test_analytic_source_validation(self, values, message):
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            AnalyticCoefficientSource(*values)
