import bisect
import math
import pathlib
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oswec.energy as energy_mod
from oswec.config import load_run_config, reference_model, with_coupling_disabled
from oswec.dynamics import (
    ForcingSpec,
    IntegrationConfig,
    ResponseRecord,
    SystemMatrices,
    freq_domain_solve,
    integrate,
    response_metrics,
)
from oswec.energy import (
    JPD,
    Design,
    PowerMatrix,
    PTOModel,
    annual_energy,
    compute_power_matrix,
    failure_text,
    load_jpd,
    mean_power,
    power_matrix_payload,
    run_torque_case,
    run_wave_case,
    write_power_matrix_csv,
)
from oswec.errors import InvalidInputError, NumericalError, format_number
from oswec.forcing import Scenario, TorqueScenario, WaveCondition, build_wave_forcing
from oswec.hydro import (
    AnalyticCoefficientSource,
    Environment,
    FlapProperties,
    load_coefficient_table,
    solve_dispersion,
)

REPO = pathlib.Path(__file__).resolve().parents[1]


def synthetic_record(omega, velocity_amp, periods=20, steps=200):
    t = np.arange(periods * steps + 1) * (2 * math.pi / omega / steps)
    vel = velocity_amp * np.sin(omega * t)
    theta = -(velocity_amp / omega) * np.cos(omega * t)
    window = slice(t.size - 10 * steps, t.size)
    return ResponseRecord(t[window], theta[window, None], vel[window, None], omega, steady=True,
                          cycles=periods)


class TestMeanPower:
    def test_zero_record(self):
        record = synthetic_record(0.7, 0.0)
        assert mean_power(record, PTOModel(1.0e6))[0] == 0.0

    def test_harmonic_closed_form(self):
        # P = C_pto * Omega^2 / 2 for velocity amplitude Omega
        record = synthetic_record(0.7, 0.6)
        power = mean_power(record, PTOModel(1.0e6))
        assert power[0] == pytest.approx(1.0e6 * 0.6**2 / 2.0, rel=1e-9)
        assert power[0] == pytest.approx(180e3, rel=1e-9)

    def test_quadratic_in_amplitude(self):
        p1 = mean_power(synthetic_record(0.7, 0.3), PTOModel(1.0e6))[0]
        p2 = mean_power(synthetic_record(0.7, 0.6), PTOModel(1.0e6))[0]
        assert p2 / p1 == pytest.approx(4.0, rel=1e-9)


class TestRecordWindow:
    """Reductions read the measure window of the record they are given."""

    def test_coarse_record_reduces_over_its_own_window(self):
        cfg = IntegrationConfig(steps_per_period=100)
        system = SystemMatrices(1.0e7, 1.0e6, 4.375e6)
        omega = 2.0 * math.pi / 9.5
        record = integrate(system, ForcingSpec(omega, (0.6e6,)), cfg)
        expected = 0.6e6 / (1.0e6 * omega)
        assert response_metrics(record).amplitude[0] == pytest.approx(expected, rel=5e-3)
        pto = PTOModel(0.5e6)
        last = record.velocity[-cfg.measure_periods * cfg.steps_per_period :]
        np.testing.assert_allclose(
            mean_power(record, pto), pto.damping * np.mean(last**2, axis=0), rtol=1e-12
        )


class TestPTO:
    def test_included_share_must_fit(self, reference):
        model = replace(reference, pto=PTOModel(0.5e6, included_in_damping=True))
        for dual in (False, True):
            assert model.system_for(8.5, 10.0, dual).damping == 1.0e6
        model = replace(reference, pto=PTOModel(2.0e6, included_in_damping=True))
        message = "PTO damping 2e+06 exceeds the system damping 1e+06 it is supposed to be part of"
        for dual in (False, True):
            with pytest.raises(InvalidInputError, match=re.escape(message)):
                model.system_for(8.5, 10.0, dual)

    def test_external_pto_adds_damping(self, reference):
        model = replace(reference, pto=PTOModel(0.5e6, included_in_damping=False))
        for dual in (False, True):
            assert model.system_for(8.5, 10.0, dual).damping == 1.5e6

    def test_negative_damping_rejected(self):
        with pytest.raises(InvalidInputError):
            PTOModel(-1.0)


SAMPLE_TABLE = load_coefficient_table(REPO / "data" / "sample_coefficients.csv")


def _segment(grid, x):
    """Lower index and fraction of x on a sorted grid, x clamped to it."""
    x = min(max(x, grid[0]), grid[-1])
    i = min(bisect.bisect_right(grid, x) - 1, len(grid) - 2)
    return i, (x - grid[i]) / (grid[i + 1] - grid[i])


def _bilinear(table, name, period, distance):
    i, tp = _segment(table.period_grid.tolist(), period)
    j, td = _segment(table.distance_grid.tolist(), distance)
    v = getattr(table, name).tolist()
    row0 = (1.0 - td) * v[i][j] + td * v[i][j + 1]
    row1 = (1.0 - td) * v[i + 1][j] + td * v[i + 1][j + 1]
    return (1.0 - tp) * row0 + tp * row1


class TestSystemFor:
    @given(
        table=st.booleans(),
        dual=st.booleans(),
        included=st.booleans(),
        period=st.floats(min_value=5.0, max_value=14.0),
        distance=st.floats(min_value=1.0, max_value=120.0),
        alpha=st.floats(min_value=0.0, max_value=1.0),
        pto_damping=st.floats(min_value=0.0, max_value=1.0e6),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_written_out_formula(
        self, table, dual, included, period, distance, alpha, pto_damping
    ):
        # periods and distances reach past the table's grid, where it clamps
        ia, c, eps = 2.0e6, 1.0e6, 0.1
        if table:
            source = SAMPLE_TABLE
            far = SAMPLE_TABLE.distance_grid[-1]
            d = distance if dual else far
            ia, c = (
                _bilinear(SAMPLE_TABLE, name, period, d) for name in ("added_inertia", "damping")
            )
            coupling = tuple(
                _bilinear(SAMPLE_TABLE, name, period, distance)
                for name in ("coupling_inertia", "coupling_damping")
            )
        else:
            source = AnalyticCoefficientSource(ia, c, alpha, eps)
            kd = solve_dispersion(period, Environment()) * distance
            scale = alpha / math.sqrt(max(kd, eps))
            coupling = (-scale * ia * math.sin(kd), -scale * c * math.cos(kd))
        model = replace(
            reference_model(), coefficients=source, pto=PTOModel(pto_damping, included)
        )
        system = model.system_for(period, distance, dual)
        flap = model.flap
        expected = [flap.inertia_dry + ia, c if included else c + pto_damping, flap.stiffness]
        if dual:
            expected += coupling
        got = [system.inertia, system.damping, system.stiffness, *(system.coupling or ())]
        assert [x.hex() for x in got] == [float(x).hex() for x in expected]

    @pytest.mark.parametrize("config", ["reference.json", "reference_table.json"])
    @pytest.mark.parametrize("distance", [0.0, -0.0, -5.0, math.inf, -math.inf, math.nan])
    def test_pair_distance_must_be_positive_and_finite(self, configs_dir, config, distance):
        model = load_run_config(configs_dir / config).model
        message = f"distance must be positive and finite, got {distance}"
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            model.system_for(9.5, distance, dual=True)
        assert model.system_for(9.5, distance, dual=False).coupling is None


class TestDesign:
    @pytest.mark.parametrize("distance", [math.inf, -math.inf, math.nan, 0.0, -10.0])
    def test_dual_distance_must_be_positive_and_finite(self, reference, distance):
        with pytest.raises(InvalidInputError, match=f"positive, finite distance, got {distance}"):
            Design(reference, distance)


class TestJPD:
    def test_single_cell(self):
        jpd = JPD(np.array([1.75]), np.array([8.5]), np.array([[1.0]]))
        assert jpd.total_occurrence == 1.0

    def test_partial_total_allowed(self):
        jpd = JPD(np.array([1.75, 3.25]), np.array([8.5]), np.array([[0.5], [0.32]]))
        assert jpd.total_occurrence == pytest.approx(0.82)

    def test_negative_fraction_rejected(self):
        with pytest.raises(InvalidInputError):
            JPD(np.array([1.75]), np.array([8.5]), np.array([[-0.01]]))

    def test_total_above_one_rejected(self):
        with pytest.raises(InvalidInputError, match="sum"):
            JPD(np.array([1.75, 3.25]), np.array([8.5]), np.array([[0.7], [0.4]]))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_fraction_rejected(self, value):
        # nan < 0 and a nan total > 1 are both false, so this needs its own check
        with pytest.raises(InvalidInputError, match="finite"):
            JPD(np.array([1.25]), np.array([9.5, 10.0]), np.array([[value, 0.1]]))

    def test_non_finite_bin_rejected(self):
        with pytest.raises(InvalidInputError, match="finite"):
            JPD(np.array([math.nan]), np.array([9.5]), np.array([[0.1]]))


class TestLoadJPD:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "jpd.csv"
        path.write_text("hs_m\\te_s,8.5,9.5\n1.75,0.5,0.2\n3.25,0.1,0.02\n")
        jpd = load_jpd(path)
        assert list(jpd.te_bins) == [8.5, 9.5]
        assert jpd.occurrence[1, 0] == 0.1

    def test_negative_cell_names_position(self, tmp_path):
        path = tmp_path / "jpd.csv"
        path.write_text("hs_m\\te_s,8.5,9.5\n1.75,0.5,-0.01\n")
        with pytest.raises(InvalidInputError, match="2: column 3"):
            load_jpd(path)

    def test_nan_cell_names_position(self, tmp_path):
        path = tmp_path / "jpd.csv"
        path.write_text("hs_m\\te_s,9.5,10\n1.25,nan,0.1\n")
        with pytest.raises(InvalidInputError, match=r"jpd.csv:2: column 2: .*not finite"):
            load_jpd(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "jpd.csv"
        path.write_text("hs_m\\te_s,8.5,9.5\n1.75,0.5\n")
        with pytest.raises(InvalidInputError, match="expected 3 columns"):
            load_jpd(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "jpd.csv"
        path.write_text("hs,8.5\n1.75,0.5\n")
        with pytest.raises(InvalidInputError, match="header"):
            load_jpd(path)

    def test_total_above_one(self, tmp_path):
        path = tmp_path / "jpd.csv"
        path.write_text("hs_m\\te_s,8.5\n1.75,0.7\n3.25,0.4\n")
        with pytest.raises(InvalidInputError, match="sum"):
            load_jpd(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("hs_m\\te_s,8.5,9.5\n1.75,0.1,0.1\n1.75,0.2,0.2\n", "duplicate Hs rows"),
            # 0 and -0.0 are one value
            ("hs_m\\te_s,0,-0.0\n1.75,0.1,0.1\n", "duplicate Te columns"),
            # so are all NaNs: a duplicate, not a non-finite bin center
            ("hs_m\\te_s,8.5,9.5\nnan,0.1,0.1\nnan,0.2,0.2\n", "duplicate Hs rows"),
            # the Hs rows are checked first
            ("hs_m\\te_s,9.5,9.5\n1.75,0.1,0.1\n1.75,0.2,0.2\n", "duplicate Hs rows"),
        ],
        ids=["repeated-hs", "signed-zero-te", "two-nan-hs", "hs-before-te"],
    )
    def test_duplicate_bins(self, tmp_path, text, message):
        path = tmp_path / "jpd.csv"
        path.write_text(text)
        with pytest.raises(InvalidInputError, match=rf"jpd\.csv: {message}$"):
            load_jpd(path)

    def test_shipped_sample(self, data_dir):
        jpd = load_jpd(data_dir / "sample_jpd.csv")
        assert jpd.total_occurrence <= 1.0
        assert jpd.hs_bins.size == 9 and jpd.te_bins.size == 9


class TestAnnualEnergy:
    def _pm(self, power_w, hs=(1.75,), te=(8.5,)):
        hs = np.asarray(hs, dtype=float)
        te = np.asarray(te, dtype=float)
        power = np.full((hs.size, te.size), power_w, dtype=float)
        return energy_mod.PowerMatrix(
            hs_bins=hs,
            te_bins=te,
            power_per_flap=power[:, :, None],
            power_total=power,
            steady=np.ones(power.shape, dtype=bool),
            computed=np.ones(power.shape, dtype=bool),
            errors=(),
            config={},
        )

    def test_single_cell_arithmetic(self):
        pm = self._pm(500e3)
        jpd = JPD(np.array([1.75]), np.array([8.5]), np.array([[1.0]]))
        report = annual_energy(pm, jpd)
        assert report == pytest.approx(500e3 * 8766.0 / 1e9, rel=1e-12)
        assert report == pytest.approx(4.383, abs=1e-3)

    def test_all_zero_jpd(self):
        pm = self._pm(500e3)
        jpd = JPD(np.array([1.75]), np.array([8.5]), np.array([[0.0]]))
        assert annual_energy(pm, jpd) == 0.0

    def test_axis_mismatch(self):
        pm = self._pm(500e3)
        jpd = JPD(np.array([2.25]), np.array([8.5]), np.array([[1.0]]))
        with pytest.raises(InvalidInputError, match="axes"):
            annual_energy(pm, jpd)

    def test_linear_in_occurrence(self):
        pm = self._pm(500e3, hs=(1.75, 3.25), te=(8.5, 9.5))
        occ = np.array([[0.2, 0.1], [0.05, 0.02]])
        base = annual_energy(pm, JPD(pm.hs_bins, pm.te_bins, occ))
        scaled = annual_energy(pm, JPD(pm.hs_bins, pm.te_bins, 2.0 * occ))
        assert scaled == pytest.approx(2.0 * base, rel=1e-12)

    def test_invariant_under_cell_reordering(self, tmp_path):
        # the same cells listed in any row/column order parse to the same
        # JPD and therefore the same AEP
        a = tmp_path / "a.csv"
        a.write_text("hs_m\\te_s,8.5,9.5\n1.75,0.2,0.1\n3.25,0.05,0.02\n")
        b = tmp_path / "b.csv"
        b.write_text("hs_m\\te_s,9.5,8.5\n3.25,0.02,0.05\n1.75,0.1,0.2\n")
        jpd_a = load_jpd(a)
        jpd_b = load_jpd(b)
        np.testing.assert_array_equal(jpd_a.occurrence, jpd_b.occurrence)
        pm = self._pm(500e3, hs=(1.75, 3.25), te=(8.5, 9.5))
        assert annual_energy(pm, jpd_a) == annual_energy(pm, jpd_b)

    @given(scale=st.floats(min_value=0.01, max_value=0.9))
    @settings(max_examples=40, deadline=None)
    def test_aep_scaling_property(self, scale):
        pm = self._pm(750e3)
        jpd = JPD(np.array([1.75]), np.array([8.5]), np.array([[scale]]))
        assert annual_energy(pm, jpd) == pytest.approx(
            scale * 750e3 * 8766.0 / 1e9, rel=1e-12
        )


FAST = IntegrationConfig(steps_per_period=120, measure_periods=6, max_periods=120)


@pytest.fixture(scope="module")
def fast_reference():
    from dataclasses import replace

    from oswec import reference_model

    return replace(reference_model(), integration=FAST)


class TestPowerMatrix:
    def test_zero_coupling_dual_doubles_single(self, fast_reference):
        model = with_coupling_disabled(fast_reference)
        hs = np.array([1.75])
        te = np.array([8.5, 9.5])
        dual = compute_power_matrix(Design(model, 45.0, dual=True), hs, te)
        single = compute_power_matrix(Design(model, 0.0, dual=False), hs, te)
        np.testing.assert_allclose(dual.power_total, 2.0 * single.power_total, rtol=1e-3)

    def test_unstable_design_is_flagged_in_memory_only(self, fast_reference):
        # a kernel gain of 1 makes the in-phase modal damping negative at
        # 10 m: every cell's response grows, finite within max_periods, and
        # the matrix says so in memory while its payload keeps its keys
        coefficients = replace(fast_reference.coefficients, alpha=1.0)
        model = replace(fast_reference, coefficients=coefficients)
        hs, te = np.array([1.75, 3.25]), np.array([8.5, 9.5])
        unstable = compute_power_matrix(Design(model, 10.0), hs, te)
        assert not unstable.stable and not unstable.steady.any() and not unstable.errors
        assert np.isfinite(unstable.power_total).all()
        assert compute_power_matrix(Design(model, 45.0), hs, te).stable
        assert compute_power_matrix(Design(model, 0.0, dual=False), hs, te).stable
        jpd = JPD(hs, te, np.full((2, 2), 0.25))
        assert "stable" not in power_matrix_payload(unstable, jpd)

    def test_resonance_bin_is_row_maximum(self, fast_reference):
        te = np.array([7.5, 8.5, 9.5, 10.5, 11.5])
        pm = compute_power_matrix(Design(fast_reference, 0.0, dual=False), np.array([1.75]), te)
        assert int(np.argmax(pm.power_total[0])) == 2  # 9.5 s

    def test_power_scales_with_height_squared(self, fast_reference):
        hs = np.array([1.0, 2.0])
        te = np.array([8.5, 10.0])
        pm = compute_power_matrix(Design(fast_reference, 45.0, dual=True), hs, te)
        np.testing.assert_allclose(pm.power_total[1], 4.0 * pm.power_total[0], rtol=0.01)

    def test_occurrence_skips_cells(self, fast_reference):
        hs = np.array([1.75])
        te = np.array([8.5, 9.5])
        occ = np.array([[0.5, 0.0]])
        pm = compute_power_matrix(Design(fast_reference, 45.0), hs, te, occurrence=occ)
        assert pm.computed[0, 0]
        assert not pm.computed[0, 1]
        assert pm.power_total[0, 1] == 0.0

    def test_cell_failure_is_quarantined(self, fast_reference, monkeypatch):
        real = energy_mod.run_wave_case

        def flaky(model, wave, distance, dual):
            if wave.period == 9.5:
                raise RuntimeError("boom")
            return real(model, wave, distance, dual)

        monkeypatch.setattr(energy_mod, "run_wave_case", flaky)
        pm = compute_power_matrix(
            Design(fast_reference, 45.0), np.array([1.75]), np.array([8.5, 9.5])
        )
        assert pm.computed[0, 0]
        assert not pm.computed[0, 1]
        assert len(pm.errors) == 1 and "boom" in pm.errors[0]

    def test_writers(self, fast_reference, tmp_path):
        hs = np.array([1.75])
        te = np.array([8.5])
        jpd = JPD(hs, te, np.array([[0.5]]))
        pm = compute_power_matrix(Design(fast_reference, 45.0), hs, te, jpd.occurrence)
        csv_path = tmp_path / "pm.csv"
        write_power_matrix_csv(pm, jpd, csv_path)
        text = csv_path.read_text()
        assert "power_total_W" in text and "total_annual_energy_GWh=" in text
        payload = power_matrix_payload(pm, jpd)
        assert payload["total_annual_energy_GWh"] == pytest.approx(
            annual_energy(pm, jpd)
        )

    def test_writers_reject_misaligned_jpd(self, tmp_path):
        pm = PowerMatrix(
            hs_bins=np.array([1.0]),
            te_bins=np.array([8.0, 9.0]),
            power_per_flap=np.full((1, 2, 2), 1.0e5),
            power_total=np.full((1, 2), 2.0e5),
            steady=np.ones((1, 2), dtype=bool),
            computed=np.ones((1, 2), dtype=bool),
            errors=(),
            config={},
        )
        jpd = JPD(np.array([1.0, 2.0]), np.array([8.0, 9.0]), np.full((2, 2), 0.25))
        csv_path = tmp_path / "pm.csv"
        with pytest.raises(InvalidInputError, match="bin axes do not match"):
            write_power_matrix_csv(pm, jpd, csv_path)
        assert not csv_path.exists()
        with pytest.raises(InvalidInputError, match="bin axes do not match"):
            power_matrix_payload(pm, jpd)

    def test_writers_match_cell_by_cell_reference(self, tmp_path):
        # the CSV rows as numpy scalars, cell by cell, give the same bytes
        rng = np.random.default_rng(7)
        per_flap = rng.uniform(0.0, 3.0e5, (2, 3, 2)) / 3.0
        per_flap[1, 2] = 0.0
        steady = np.array([[True, False, True], [True, True, False]])
        computed = np.array([[True, True, True], [True, True, False]])
        pm = PowerMatrix(
            np.array([1.25, 1.75]), np.array([8.5, 9.5, 10.5]), per_flap,
            per_flap.sum(axis=2), steady, computed, (), {},
        )
        jpd = JPD(pm.hs_bins, pm.te_bins, rng.uniform(0.0, 0.15, (2, 3)))
        csv_path = tmp_path / "pm.csv"
        write_power_matrix_csv(pm, jpd, csv_path)

        energy = pm.power_total * jpd.occurrence * energy_mod.HOURS_PER_YEAR
        lines = ["hs_m,te_s,power_front_W,power_back_W,power_total_W,"
                 "occurrence_fraction,energy_Wh,steady,computed"]
        for i, j in np.ndindex(energy.shape):
            numbers = (pm.hs_bins[i], pm.te_bins[j], *pm.power_per_flap[i, j],
                       pm.power_total[i, j], jpd.occurrence[i, j], energy[i, j])
            lines.append(",".join([*map(format_number, numbers),
                                   str(int(steady[i, j])), str(int(computed[i, j]))]))
        total = annual_energy(pm, jpd)
        footer = f"# total_annual_energy_GWh={format_number(total)}\n"
        expected = "".join(f"{line}\r\n" for line in lines) + footer
        assert csv_path.read_bytes() == expected.encode()
        payload = power_matrix_payload(pm, jpd)
        assert payload["energy_Wh"] == energy.tolist()
        assert payload["total_annual_energy_GWh"] == total

    def test_wave_case_against_oracle(self, fast_reference):
        # one dual run cross-checked against the frequency-domain power
        model = fast_reference
        wave = WaveCondition(1.75, 8.5)
        result = run_wave_case(model, wave, 45.0, dual=True)
        system = model.system_for(8.5, 45.0, True)
        forcing = build_wave_forcing(wave, 45.0, model.transfer, model.environment)
        theta = freq_domain_solve(system, forcing)
        expected = model.pto.damping * (forcing.omega * np.abs(theta)) ** 2 / 2.0
        np.testing.assert_allclose(result.power, expected, rtol=0.02)


class TestUnitAmplitudeGrid:
    """A grid integrates each period once, at its largest height, and scales it down."""

    HS = np.array([1.0, 1.75, 3.25])
    TE = np.array([8.5, 9.5])

    @pytest.mark.parametrize("distance, dual", [(45.0, True), (0.0, False)])
    def test_matches_per_cell_runs(self, fast_reference, distance, dual):
        pm = compute_power_matrix(Design(fast_reference, distance, dual=dual), self.HS, self.TE)
        assert pm.computed.all() and not pm.errors
        for i, hs in enumerate(self.HS):
            for j, te in enumerate(self.TE):
                direct = run_wave_case(fast_reference, WaveCondition(hs, te), distance, dual)
                np.testing.assert_allclose(pm.power_per_flap[i, j], direct.power, rtol=1e-12)
                assert pm.steady[i, j] == direct.metrics.steady

    def test_one_integration_per_period(self, fast_reference, monkeypatch):
        calls = []
        real = energy_mod.integrate

        def counting(system, forcing, integration):
            calls.append((round(forcing.period, 9), forcing.dof))
            return real(system, forcing, integration)

        monkeypatch.setattr(energy_mod, "integrate", counting)
        occurrence = np.array([[0.1, 0.0], [0.2, 0.0], [0.1, 0.3]])
        pm = compute_power_matrix(Design(fast_reference, 45.0), self.HS, self.TE, occurrence)
        assert pm.computed.sum() == 4
        assert sorted(calls) == [(8.5, 2), (9.5, 2)]

    # 1.75 m is the largest occupied height at 9.5 s, 3.25 m at 8.5 s
    PARTIAL = np.array([[0.1, 0.0], [0.2, 0.3], [0.1, 0.0]])

    @pytest.mark.parametrize("distance, dual", [(45.0, True), (0.0, False)])
    def test_largest_cell_of_each_period_is_its_own_run(self, fast_reference, distance, dual):
        # each period runs at its largest occupied height, so that cell is
        # its own run bit for bit, not a scaled copy of another run
        design = Design(fast_reference, distance, dual=dual)
        pm = compute_power_matrix(design, self.HS, self.TE, self.PARTIAL)
        cases = [(WaveCondition(self.HS[i], self.TE[j]), distance, dual)
                 for i, j in zip(*np.nonzero(self.PARTIAL))]
        outcomes = energy_mod.evaluate_linear(run_wave_case, fast_reference, cases)
        for i, j in ((2, 0), (1, 1)):
            direct = run_wave_case(fast_reference, WaveCondition(self.HS[i], self.TE[j]),
                                   distance, dual)
            np.testing.assert_array_equal(pm.power_per_flap[i, j], direct.power)
            grid = outcomes[cases.index((WaveCondition(self.HS[i], self.TE[j]), distance, dual))]
            for got, want in (
                (grid.power, direct.power),
                (grid.metrics.rms_rotation, direct.metrics.rms_rotation),
                (grid.metrics.amplitude, direct.metrics.amplitude),
                (grid.metrics.phase, direct.metrics.phase),
            ):
                np.testing.assert_array_equal(got, want)

    def test_never_steady_grid_runs_each_key_once(self, reference, monkeypatch):
        # no key settles under this tolerance, but each key's run succeeded:
        # a run's length does not depend on the amplitude, so every other
        # cell scales it as it would a steady run and equals its own run
        calls = []
        real = energy_mod.run_wave_case

        def counting(model, wave, distance, dual):
            calls.append((wave.height, wave.period))
            return real(model, wave, distance, dual)

        monkeypatch.setattr(energy_mod, "run_wave_case", counting)
        cfg = IntegrationConfig(steps_per_period=40, measure_periods=3,
                                max_periods=6, convergence_tol=1e-12)
        model = replace(reference, integration=cfg)
        pm = compute_power_matrix(Design(model, 45.0), self.HS, self.TE, self.PARTIAL)
        assert pm.computed.sum() == 4 and not pm.steady.any()
        assert sorted(calls) == [(1.75, 9.5), (3.25, 8.5)]
        cases = [(WaveCondition(self.HS[i], self.TE[j]), 45.0, True)
                 for i, j in zip(*np.nonzero(self.PARTIAL))]
        for case, grid in zip(cases, energy_mod.evaluate_linear(real, model, cases)):
            direct = real(model, *case)
            assert (grid.metrics.steady, grid.metrics.cycles_used) == (False, 6)
            assert (direct.metrics.steady, direct.metrics.cycles_used) == (False, 6)
            for got, want in (
                (grid.power, direct.power),
                (grid.metrics.rms_rotation, direct.metrics.rms_rotation),
                (grid.metrics.amplitude, direct.metrics.amplitude),
            ):
                np.testing.assert_allclose(got, want, rtol=1e-12)
            np.testing.assert_allclose(grid.metrics.phase, direct.metrics.phase, rtol=0.0,
                                       atol=1e-12)

    def test_scaled_overflow_runs_on_its_own(self, fast_reference):
        # without PTO damping the power never overflows, so only the record's
        # own squares tell that 1e153 m overflows where 1e152 m does not
        model = replace(fast_reference, pto=PTOModel(0.0))
        hs = np.array([1.0, 1.0e152, 1.0e153])
        pm = compute_power_matrix(Design(model, 0.0, dual=False), hs, np.array([9.5]))
        with pytest.raises(NumericalError) as raised:
            run_wave_case(model, WaveCondition(1.0e153, 9.5), 0.0, False)
        assert pm.computed[:2, 0].all() and not pm.computed[2, 0]
        assert pm.errors == (f"cell hs=1e+153 te=9.5: NumericalError: {raised.value}",)

    @given(
        hs=st.lists(
            st.one_of(st.floats(0.5, 5.0), st.floats(1.0e150, 1.0e200)),
            min_size=1,
            max_size=3,
            unique=True,
        ).map(sorted),
        te=st.lists(st.sampled_from([8.5, 9.5, 10.5]), min_size=1, max_size=2, unique=True),
        dual=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_every_cell_is_its_own_run_or_its_failure(self, fast_reference, hs, te, dual):
        # normal heights take the scaled path, overflowing ones the direct one
        distance = 45.0 if dual else 0.0
        pm = compute_power_matrix(Design(fast_reference, distance, dual=dual), hs, te)
        for i, height in enumerate(hs):
            for j, period in enumerate(te):
                try:
                    direct = run_wave_case(
                        fast_reference, WaveCondition(height, period), distance, dual
                    )
                except Exception as exc:  # noqa: BLE001 - the grid keeps any failure
                    assert not pm.computed[i, j]
                    assert f"cell hs={height:g} te={period:g}: {failure_text(exc)}" in pm.errors
                    continue
                assert pm.computed[i, j]
                np.testing.assert_allclose(pm.power_per_flap[i, j], direct.power, rtol=1e-12)
                assert pm.steady[i, j] == direct.metrics.steady
        assert len(pm.errors) == np.count_nonzero(~pm.computed)


@pytest.mark.parametrize("distance, period", [(15.0, 7.5), (10.0, 11.5)])
def test_in_phase_flaps_are_identical(reference, distance, period):
    # the out-of-phase mode is forced by exactly 0, so no rounding splits the pair
    scenario = TorqueScenario(Scenario.IN_PHASE, 0.6e6, period, distance)
    result = run_torque_case(reference, scenario)
    for series in (result.record.rotation, result.record.velocity):
        np.testing.assert_array_equal(series[:, 0], series[:, 1])
    metrics = result.metrics
    for values in (metrics.rms_rotation, metrics.amplitude, metrics.phase, result.power):
        assert values[0] == values[1]


@pytest.mark.parametrize("period", [7.5, 10.5])
def test_out_of_phase_flaps_are_mirror_images(reference, period):
    # the torques are exactly T0 and -T0, so the in-phase mode is forced by
    # exactly 0 and the right flap is the left one negated in every sample
    scenario = TorqueScenario(Scenario.OUT_OF_PHASE, 1.2e6, period, 10.0)
    result = run_torque_case(reference, scenario)
    for series in (result.record.rotation, result.record.velocity):
        np.testing.assert_array_equal(series[:, 1], -series[:, 0])
    metrics = result.metrics
    for values in (metrics.rms_rotation, metrics.amplitude, result.power):
        assert values[0] == values[1]


class TestNonFiniteBackstop:
    """Window metrics that overflow although every cycle's squares are finite."""

    @pytest.mark.parametrize("column", ["rotation", "velocity"])
    def test_overflowing_window_raises(self, fast_reference, monkeypatch, column):
        cfg = fast_reference.integration

        def huge_record(system, forcing, integration):
            # each square (1e306) and each cycle's sum of squares is finite,
            # but the measure window's sum exceeds the float range
            total = integration.max_periods * integration.steps_per_period + 1
            span = integration.measure_periods * integration.steps_per_period
            t = np.arange(total - span, total) * (forcing.period / integration.steps_per_period)
            series = {"rotation": np.zeros((span, 2)), "velocity": np.zeros((span, 2))}
            series[column][:] = 1.0e153
            return ResponseRecord(t, series["rotation"], series["velocity"], forcing.omega,
                                  steady=True, cycles=integration.max_periods)

        assert cfg.steps_per_period * 1.0e306 < np.finfo(float).max
        assert cfg.measure_periods * cfg.steps_per_period * 1.0e306 > np.finfo(float).max
        monkeypatch.setattr(energy_mod, "integrate", huge_record)
        with pytest.raises(NumericalError, match="non-finite"):
            run_torque_case(fast_reference, TorqueScenario(Scenario.IN_PHASE, 1.0e6, 8.5, 45.0))
        with pytest.raises(NumericalError, match="non-finite"):
            run_wave_case(fast_reference, WaveCondition(1.75, 8.5), 45.0, dual=True)


def test_steady_power_matches_oracle_to_a_tenth_of_a_percent(reference):
    wave = WaveCondition(1.75, 9.5)
    result = run_wave_case(reference, wave, 10.0, dual=True)
    system = reference.system_for(9.5, 10.0, True)
    forcing = build_wave_forcing(wave, 10.0, reference.transfer, reference.environment)
    theta = freq_domain_solve(system, forcing)
    expected = reference.pto.damping * (forcing.omega * np.abs(theta)) ** 2 / 2.0
    np.testing.assert_allclose(result.power, expected, rtol=1e-3)


def froude_scaled(model, s):
    """``model`` at Froude scale s: lengths times s and periods times
    sqrt(s), so inertia times s^5, stiffness s^4, damping s^4.5 and torque per metre of
    wave amplitude s^3, with the tables' period and distance axes scaled."""
    root = math.sqrt(s)
    env, source, xfer = model.environment, model.coefficients, model.transfer
    if isinstance(source, AnalyticCoefficientSource):
        source = replace(source, added_inertia=source.added_inertia * s**5,
                         damping=source.damping * s**4.5)
    else:
        source = replace(
            source, period_grid=source.period_grid * root, distance_grid=source.distance_grid * s,
            added_inertia=source.added_inertia * s**5, damping=source.damping * s**4.5,
            coupling_inertia=source.coupling_inertia * s**5,
            coupling_damping=source.coupling_damping * s**4.5,
        )
    return replace(
        model,
        environment=env if env.is_deep else replace(env, water_depth=env.water_depth * s),
        flap=FlapProperties(model.flap.inertia_dry * s**5, model.flap.stiffness * s**4),
        coefficients=source,
        transfer=replace(xfer, period_grid=xfer.period_grid * root, gamma=xfer.gamma * s**3),
        pto=replace(model.pto, damping=model.pto.damping * s**4.5),
    )


def froude_case(case, s):
    """A wave case (height, period, distance) or a torque case (torque,
    period, distance) at Froude scale s."""
    root = math.sqrt(s)
    if isinstance(case[0], WaveCondition):
        wave, distance, dual = case
        return replace(wave, height=wave.height * s, period=wave.period * root), distance * s, dual
    (scenario,) = case
    return (replace(scenario, amplitude=scenario.amplitude * s**4, period=scenario.period * root,
                    distance=scenario.distance * s),)


def run_case(model, case):
    if isinstance(case[0], WaveCondition):
        return run_wave_case(model, *case)
    return run_torque_case(model, *case)


def assert_froude_similar(model, case, s, rtol):
    """Amplitude, RMS and phase do not move at Froude scale s, power scales
    by s^3.5, and ``steady`` and ``cycles_used`` stay: to ``rtol`` (phase to
    ``rtol`` rad), or bit for bit when it is 0."""
    base = run_case(model, case)
    scaled = run_case(froude_scaled(model, s), froude_case(case, s))
    assert (scaled.metrics.steady, scaled.metrics.cycles_used) == (
        base.metrics.steady, base.metrics.cycles_used
    )
    for got, want, atol in (
        (scaled.metrics.amplitude, base.metrics.amplitude, 0.0),
        (scaled.metrics.rms_rotation, base.metrics.rms_rotation, 0.0),
        (scaled.metrics.phase, base.metrics.phase, rtol),
        (scaled.power, base.power * s**3.5, 0.0),
    ):
        np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)


FROUDE_MODELS = {
    "analytic": reference_model(),
    "table": load_run_config(REPO / "configs" / "reference_table.json").model,
}


@st.composite
def froude_inputs(draw):
    model = FROUDE_MODELS[draw(st.sampled_from(sorted(FROUDE_MODELS)))]
    depth = draw(st.sampled_from(["deep", 50.0]))
    model = replace(model, environment=replace(model.environment, water_depth=depth))
    period, distance = draw(st.floats(6.5, 12.5)), draw(st.floats(10.0, 86.0))
    if draw(st.booleans()):
        wave = WaveCondition(draw(st.floats(0.5, 4.0)), period, draw(st.floats(0.0, 60.0)))
        case = (wave, distance, draw(st.booleans()))
    else:
        variant = draw(st.sampled_from(list(Scenario)))
        case = (TorqueScenario(variant, draw(st.floats(1.0e5, 2.0e6)), period, distance),)
    return model, case


@given(froude_inputs(), st.sampled_from([1.0 / 64.0, 0.25, 4.0, 16.0]))
@settings(max_examples=60, deadline=None)
def test_froude_scaling_by_a_power_of_four_is_exact(inputs, s):
    # sqrt(s) and every power of s the scaling takes are powers of two, so
    # each product, quotient and comparison of the run scales exactly
    model, case = inputs
    assert_froude_similar(model, case, s, rtol=0.0)


@pytest.mark.parametrize("source", sorted(FROUDE_MODELS))
@pytest.mark.parametrize("depth", ["deep", 50.0])
def test_froude_scaling_to_tank_scale(source, depth):
    # s = 0.1, the 1:10 tank scale, is not a power of two: the scaled run
    # rounds apart from the full-scale one, but only at the last digits; a
    # drawn s could land on a settle-cycle boundary, so the cases are fixed
    model = FROUDE_MODELS[source]
    model = replace(model, environment=replace(model.environment, water_depth=depth))
    cases = [(WaveCondition(1.75, te), d, True)
             for te in (6.5, 9.5, 12.5) for d in (10.0, 33.0, 86.0)]
    cases += [(WaveCondition(1.75, 9.5), 0.0, False)]
    cases += [(TorqueScenario(variant, 1.0e6, 9.5, 10.0),) for variant in (
        Scenario.IN_PHASE, Scenario.ARBITRARY_PHASE, Scenario.RIGHT_ONLY_LEFT_FIXED
    )]
    for case in cases:
        assert_froude_similar(model, case, 0.1, rtol=1e-12)
