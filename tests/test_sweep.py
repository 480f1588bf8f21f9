import math
from dataclasses import replace

import numpy as np
import pytest

import oswec.energy as energy_mod
import oswec.sweep as sweep_mod
from oswec.dynamics import IntegrationConfig
from oswec.energy import run_torque_case
from oswec.errors import InvalidInputError, NumericalError
from oswec.forcing import Scenario, TorqueScenario
from oswec.hydro import wavelength_deep
from oswec.sweep import (
    WAVE_COLUMNS,
    SweepPlan,
    classify_band,
    run_heading_study,
    run_torque_study,
    run_wave_study,
)

FAST = IntegrationConfig(steps_per_period=120, measure_periods=6, max_periods=150)


@pytest.fixture(scope="module")
def fast_reference(reference):
    return replace(reference, integration=FAST)


@pytest.fixture(scope="module")
def fast_strong(strong_coupling):
    return replace(strong_coupling, integration=FAST)


@pytest.fixture(scope="module")
def fast_decoupled(fast_reference):
    from oswec.config import with_coupling_disabled

    return with_coupling_disabled(fast_reference)


class TestTorqueStudy:
    def test_fixed_case_without_coupling_matches_single(self, fast_decoupled):
        plan = SweepPlan(
            distances=(10.0, 45.0),
            torque_periods=(8.5, 9.5),
            torque_amplitudes=(0.6e6,),
            scenarios=(Scenario.RIGHT_ONLY_LEFT_FIXED,),
        )
        report = run_torque_study(plan, fast_decoupled)
        assert len(report.rows) == 4
        for row in report.rows:
            assert row["right_rms_ratio"] == pytest.approx(1.0, abs=5e-3)
            assert row["left_rms_rad"] == 0.0

    def test_free_left_flap_stays_small_without_coupling(self, fast_decoupled):
        plan = SweepPlan(
            distances=(10.0,),
            torque_periods=(8.5,),
            torque_amplitudes=(0.6e6,),
            scenarios=(Scenario.RIGHT_ONLY_LEFT_FREE,),
        )
        row = run_torque_study(plan, fast_decoupled).rows[0]
        assert row["left_rms_rad"] == pytest.approx(0.0, abs=1e-12)

    def test_in_phase_beats_single_at_short_distance(self, fast_reference):
        plan = SweepPlan(
            distances=(10.0,),
            torque_amplitudes=(0.6e6,),
            scenarios=(Scenario.IN_PHASE,),
        )
        report = run_torque_study(plan, fast_reference)
        assert len(report.rows) == 4  # all four default periods
        for row in report.rows:
            assert row["left_rms_ratio"] > 1.0
            assert row["right_rms_ratio"] > 1.0

    def test_out_of_phase_below_single_at_short_distance(self, fast_reference):
        plan = SweepPlan(
            distances=(10.0,),
            torque_amplitudes=(0.6e6,),
            scenarios=(Scenario.OUT_OF_PHASE,),
        )
        for row in run_torque_study(plan, fast_reference).rows:
            assert row["left_rms_ratio"] < 1.0
            assert row["right_rms_ratio"] < 1.0

    def test_baseline_consistency(self, fast_reference):
        plan = SweepPlan(
            distances=(10.0,),
            torque_periods=(8.5,),
            torque_amplitudes=(0.6e6,),
            scenarios=(Scenario.IN_PHASE,),
        )
        row = run_torque_study(plan, fast_reference).rows[0]
        assert row["left_rms_ratio"] == pytest.approx(
            row["left_rms_rad"] / row["single_rms_rad"], rel=1e-12
        )

    def test_d_over_lambda_matches_dispersion(self, fast_reference):
        plan = SweepPlan(
            distances=(45.0,),
            torque_periods=(9.5,),
            torque_amplitudes=(0.6e6,),
            scenarios=(Scenario.ARBITRARY_PHASE,),
        )
        row = run_torque_study(plan, fast_reference).rows[0]
        assert row["d_over_lambda"] == pytest.approx(45.0 / wavelength_deep(9.5), rel=1e-12)


    def test_unstable_point_is_an_error_row(self, reference):
        # alpha=1, d=10 m, Te=38 s in-phase has negative modal damping; the
        # point must be quarantined, never reported with inf metrics
        cfg = IntegrationConfig(steps_per_period=120, measure_periods=6, max_periods=200)
        model = replace(reference, integration=cfg,
                        coefficients=replace(reference.coefficients, alpha=1.0))
        plan = SweepPlan(
            distances=(10.0,),
            torque_periods=(38.0,),
            torque_amplitudes=(1.0e6,),
            scenarios=(Scenario.IN_PHASE,),
        )
        (row,) = run_torque_study(plan, model).rows
        assert "NumericalError" in row["error"] and "non-finite" in row["error"]
        assert "left_rms_rad" not in row and "steady" not in row
        for key, value in row.items():
            if isinstance(value, float):
                assert math.isfinite(value), key


class TestUnitAmplitudeCollapse:
    """Each grid key integrates once, at its largest amplitude; the others scale it down."""

    PLAN = SweepPlan(
        distances=(10.0, 45.0),
        torque_periods=(8.5, 9.5),
        torque_amplitudes=(0.6e6, 1.0e6, 1.2e6),
        wave_periods=(8.5, 9.5),
        wave_heights=(1.75, 3.25),
        scenarios=(Scenario.IN_PHASE, Scenario.ARBITRARY_PHASE),
    )

    def test_torque_rows_match_per_cell_runs(self, fast_reference):
        rows = run_torque_study(self.PLAN, fast_reference).rows
        assert len(rows) == 2 * 2 * 2 * 3
        for row in rows:
            scenario = TorqueScenario(
                Scenario(row["scenario"]), row["torque_Nm"], row["period_s"], row["distance_m"]
            )
            direct = run_torque_case(fast_reference, scenario)
            single = run_torque_case(
                fast_reference, TorqueScenario(Scenario.SINGLE, row["torque_Nm"], row["period_s"])
            )
            assert row["error"] == ""
            assert row["steady"] == (direct.metrics.steady and single.metrics.steady)
            for index, name in enumerate(("left", "right")):
                for key, value in (
                    ("rms_rad", direct.metrics.rms_rotation[index]),
                    ("amplitude_rad", direct.metrics.amplitude[index]),
                    ("phase_rad", direct.metrics.phase[index]),
                    ("power_W", direct.power[index]),
                ):
                    assert row[f"{name}_{key}"] == pytest.approx(value, rel=1e-12, abs=0.0)
            assert row["single_rms_rad"] == pytest.approx(
                single.metrics.rms_rotation[0], rel=1e-12, abs=0.0
            )
            assert row["single_power_W"] == pytest.approx(single.power[0], rel=1e-12, abs=0.0)

    def test_largest_torque_rows_are_their_own_runs(self, fast_reference):
        # each key runs at its largest torque, so those rows, and their
        # single-flap baselines, are their own runs bit for bit
        largest = max(self.PLAN.torque_amplitudes)
        rows = run_torque_study(self.PLAN, fast_reference).rows
        rows = [row for row in rows if row["torque_Nm"] == largest]
        assert len(rows) == 2 * 2 * 2
        for row in rows:
            scenario = TorqueScenario(
                Scenario(row["scenario"]), largest, row["period_s"], row["distance_m"]
            )
            direct = run_torque_case(fast_reference, scenario)
            single = run_torque_case(
                fast_reference, TorqueScenario(Scenario.SINGLE, largest, row["period_s"])
            )
            got = [
                [row[f"{name}_{key}"] for name in ("left", "right")]
                for key in ("rms_rad", "amplitude_rad", "phase_rad", "power_W")
            ]
            m = direct.metrics
            np.testing.assert_array_equal(got, [m.rms_rotation, m.amplitude, m.phase, direct.power])
            np.testing.assert_array_equal(
                [row["single_rms_rad"], row["single_amplitude_rad"], row["single_power_W"]],
                [single.metrics.rms_rotation[0], single.metrics.amplitude[0], single.power[0]],
            )

    def test_one_integration_per_key(self, fast_reference, monkeypatch):
        calls = []
        real = energy_mod.integrate

        def counting(system, forcing, integration):
            calls.append(forcing.dof)
            return real(system, forcing, integration)

        monkeypatch.setattr(energy_mod, "integrate", counting)
        run_torque_study(self.PLAN, fast_reference)
        # 2 single-flap periods + 2 scenarios x 2 distances x 2 periods
        assert sorted(calls) == [1] * 2 + [2] * 8
        calls.clear()
        run_wave_study(self.PLAN, fast_reference)
        # 2 single-flap periods + 2 distances x 2 periods
        assert sorted(calls) == [1] * 2 + [2] * 4

    UNSTABLE_PLAN = SweepPlan(
        distances=(10.0,),
        torque_periods=(38.0,),
        torque_amplitudes=(0.6e6, 1.0e6),
        scenarios=(Scenario.IN_PHASE,),
    )

    @staticmethod
    def unstable_model(reference, max_periods):
        # alpha=1, d=10 m, Te=38 s in-phase has negative modal damping
        cfg = IntegrationConfig(steps_per_period=120, measure_periods=6, max_periods=max_periods)
        return replace(reference, integration=cfg,
                       coefficients=replace(reference.coefficients, alpha=1.0))

    @pytest.mark.parametrize("torque", [0.6e6, 1.0e6])
    def test_out_of_phase_stays_off_the_unstable_mode(self, reference, torque):
        # T0 and -T0 force the in-phase mode by exactly 0, so its negative
        # damping never acts and the out-of-phase mode settles
        scenario = TorqueScenario(Scenario.OUT_OF_PHASE, torque, 38.0, 10.0)
        result = run_torque_case(self.unstable_model(reference, 200), scenario)
        assert result.metrics.steady
        assert np.isfinite(result.record.rotation).all()
        assert np.isfinite(result.power).all()

    @pytest.mark.parametrize("max_periods", [200, 86])
    def test_unstable_rows_keep_their_own_errors(self, reference, max_periods):
        # at unit torque this case overflows at step 10674, or within 86
        # periods returns a finite record that is not steady; each amplitude's
        # own run overflows at another step, and its row must name that one
        model = self.unstable_model(reference, max_periods)
        rows = run_torque_study(self.UNSTABLE_PLAN, model).rows
        for row, step in zip(rows, (10285, 10271)):
            scenario = TorqueScenario(Scenario.IN_PHASE, row["torque_Nm"], 38.0, 10.0)
            with pytest.raises(NumericalError) as raised:
                run_torque_case(model, scenario)
            assert row["error"] == f"NumericalError: {raised.value}"
            assert f"non-finite at step {step} " in row["error"]

    def test_non_steady_key_runs_once(self, reference, monkeypatch):
        # within 40 periods the growing response stays finite but never
        # steady; the key's run succeeded, and its length does not depend on
        # the amplitude, so the other torque scales it and equals its own run
        calls = []
        real = energy_mod.integrate

        def counting(system, forcing, integration):
            record = real(system, forcing, integration)
            calls.append((forcing.dof, record.steady))
            return record

        monkeypatch.setattr(energy_mod, "integrate", counting)
        model = self.unstable_model(reference, 40)
        rows = run_torque_study(self.UNSTABLE_PLAN, model).rows
        assert calls == [(1, True), (2, False)]
        assert [(row["error"], row["steady"]) for row in rows] == [("", False)] * 2
        for row in rows:
            scenario = TorqueScenario(Scenario.IN_PHASE, row["torque_Nm"], 38.0, 10.0)
            direct = run_torque_case(model, scenario)
            assert (direct.metrics.steady, direct.metrics.cycles_used) == (False, 40)
            for index, name in enumerate(("left", "right")):
                for key, value in (
                    ("rms_rad", direct.metrics.rms_rotation[index]),
                    ("amplitude_rad", direct.metrics.amplitude[index]),
                    ("phase_rad", direct.metrics.phase[index]),
                    ("power_W", direct.power[index]),
                ):
                    assert row[f"{name}_{key}"] == pytest.approx(value, rel=1e-12, abs=0.0)

    def test_failed_baseline_raises(self, fast_reference, monkeypatch):
        real = sweep_mod.run_torque_case

        def failing_single(model, scenario):
            if scenario.variant is Scenario.SINGLE:
                raise NumericalError("single flap overflowed")
            return real(model, scenario)

        monkeypatch.setattr(sweep_mod, "run_torque_case", failing_single)
        with pytest.raises(NumericalError, match="single flap overflowed"):
            run_torque_study(self.PLAN, fast_reference)

    def test_failed_baseline_is_not_run_again(self, fast_reference, monkeypatch):
        # each single key runs at its largest torque, then the 4 other single
        # cells on their own (6 runs); the study raises the error it kept
        # from those runs
        calls = []
        real = sweep_mod.run_torque_case

        def failing_single(model, scenario):
            if scenario.variant is Scenario.SINGLE:
                calls.append((scenario.period, scenario.amplitude))
                raise NumericalError("single flap overflowed")
            return real(model, scenario)

        monkeypatch.setattr(sweep_mod, "run_torque_case", failing_single)
        with pytest.raises(NumericalError, match="single flap overflowed"):
            run_torque_study(self.PLAN, fast_reference)
        cells = [(p, a) for p in self.PLAN.torque_periods for a in self.PLAN.torque_amplitudes[:-1]]
        assert calls == [(p, 1.2e6) for p in self.PLAN.torque_periods] + cells


class TestWaveStudy:
    def test_identical_flaps_without_coupling_or_shading(self, fast_decoupled):
        plan = SweepPlan(distances=(45.0,), wave_periods=(8.5,), wave_heights=(1.75,))
        row = run_wave_study(plan, fast_decoupled).rows[0]
        assert row["front_rms_rad"] == pytest.approx(row["back_rms_rad"], rel=1e-3)
        assert row["front_phase_rad"] != row["back_phase_rad"]

    def test_row_count_and_order(self, fast_reference):
        plan = SweepPlan(distances=(10.0, 45.0), wave_periods=(8.5, 9.5), wave_heights=(1.75,))
        report = run_wave_study(plan, fast_reference)
        assert len(report.rows) == 4
        keys = [(r["distance_m"], r["period_s"]) for r in report.rows]
        assert keys == sorted(keys)

    def test_band_classification(self):
        assert classify_band(0.1139) == "0.06-0.11"  # rounds to 0.11
        assert classify_band(0.058) == "0.06-0.11"
        assert classify_band(0.4067) == "0.25-0.80"
        assert classify_band(0.797) == "0.25-0.80"
        assert classify_band(0.034) == "outside"
        assert classify_band(0.9) == "outside"

    def test_d70_band_over_study_periods(self, fast_reference):
        plan = SweepPlan(
            distances=(70.0,), wave_periods=(7.5, 8.5, 9.5, 10.5), wave_heights=(1.75,)
        )
        for row in run_wave_study(plan, fast_reference).rows:
            assert row["band"] == "0.25-0.80"
            assert 0.40 <= round(row["d_over_lambda"], 2) <= 0.80

    def test_flap_deviation_from_single_decreases_with_distance(self, fast_strong):
        # strong coupling: each flap's offset from the single-flap response
        # fades as the pair separates
        plan = SweepPlan(distances=(10.0, 45.0, 70.0), wave_periods=(9.5,), wave_heights=(1.75,))
        rows = run_wave_study(plan, fast_strong).rows
        devs = [
            max(
                abs(r["front_rms_rad"] - r["single_rms_rad"]),
                abs(r["back_rms_rad"] - r["single_rms_rad"]),
            )
            for r in rows
        ]
        assert devs[0] > devs[1] > devs[2]

    def test_failed_point_is_quarantined(self, fast_reference, monkeypatch):
        real = sweep_mod.run_wave_case

        def flaky(model, wave, distance, dual):
            if dual and wave.period == 9.5:
                raise RuntimeError("boom")
            return real(model, wave, distance, dual)

        monkeypatch.setattr(sweep_mod, "run_wave_case", flaky)
        plan = SweepPlan(distances=(45.0,), wave_periods=(8.5, 9.5), wave_heights=(1.75,))
        good, bad = run_wave_study(plan, fast_reference).rows
        assert bad["error"] == "RuntimeError: boom"
        assert "front_rms_rad" not in bad and "steady" not in bad
        assert bad["d_over_lambda"] > 0.0
        assert good["error"] == ""
        assert set(good) == set(WAVE_COLUMNS)

    def test_baseline_consistency(self, fast_reference):
        plan = SweepPlan(distances=(45.0,), wave_periods=(8.5,), wave_heights=(1.75,))
        row = run_wave_study(plan, fast_reference).rows[0]
        assert row["front_rms_ratio"] == pytest.approx(
            row["front_rms_rad"] / row["single_rms_rad"], rel=1e-12
        )
        assert row["back_rms_ratio"] == pytest.approx(
            row["back_rms_rad"] / row["single_rms_rad"], rel=1e-12
        )

    def test_reference_deviation_regression(self, fast_reference):
        # shipped weak-coupling reference: frozen behavior, the tau/phase
        # effect at 45 m outweighs the small-d coupling
        plan = SweepPlan(distances=(10.0, 45.0, 70.0), wave_periods=(9.5,), wave_heights=(1.75,))
        rows = run_wave_study(plan, fast_reference).rows
        front = [row["front_rms_ratio"] for row in rows]
        back = [row["back_rms_ratio"] for row in rows]
        assert front == pytest.approx([1.075, 1.040, 1.028], abs=0.01)
        assert back == pytest.approx([0.954, 0.895, 0.968], abs=0.01)


class TestHeadingStudy:
    def test_zero_heading_loss_is_exactly_zero(self, fast_reference):
        plan = SweepPlan(headings=(0.0, 30.0))
        rows = run_heading_study(plan, fast_reference).rows
        assert rows[0]["power_loss_fraction"] == 0.0

    def test_cos_squared_losses(self, fast_decoupled):
        plan = SweepPlan(headings=(0.0, 30.0, 45.0))
        rows = run_heading_study(plan, fast_decoupled).rows
        assert rows[1]["power_loss_fraction"] == pytest.approx(0.25, abs=0.01)
        assert rows[2]["power_loss_fraction"] == pytest.approx(0.50, abs=0.01)

    def test_loss_monotone_nondecreasing(self, fast_reference):
        plan = SweepPlan(headings=tuple(float(b) for b in range(0, 50, 5)))
        rows = run_heading_study(plan, fast_reference).rows
        losses = [row["power_loss_fraction"] for row in rows]
        assert len(losses) == 10
        assert all(b >= a - 1e-9 for a, b in zip(losses, losses[1:]))

    def test_failed_baseline_raises(self, fast_reference, monkeypatch):
        real = sweep_mod.run_wave_case

        def failing_zero(model, wave, distance, dual):
            if wave.heading_deg == 0.0:
                raise NumericalError("zero heading overflowed")
            return real(model, wave, distance, dual)

        monkeypatch.setattr(sweep_mod, "run_wave_case", failing_zero)
        with pytest.raises(NumericalError, match="zero heading overflowed"):
            run_heading_study(SweepPlan(headings=(30.0,)), fast_reference)

    def test_baseline_without_zero_heading_row(self, fast_reference):
        # the zero-heading reference is computed even when the grid skips it
        plan = SweepPlan(headings=(30.0, 45.0))
        rows = run_heading_study(plan, fast_reference).rows
        assert len(rows) == 2
        assert 0.0 < rows[0]["power_loss_fraction"] < rows[1]["power_loss_fraction"] < 1.0
        with_zero = run_heading_study(SweepPlan(headings=(0.0, 30.0, 45.0)), fast_reference)
        assert [r["power_loss_fraction"] for r in rows] == [
            r["power_loss_fraction"] for r in with_zero.rows[1:]
        ]

    def test_zero_heading_in_the_grid_runs_once(self, reference, monkeypatch):
        # under this tolerance no key reaches steady state, and each heading
        # is its own key with one height: 1 run per heading, and the zero
        # heading, which is also the baseline, is not queued twice
        calls = []
        real = sweep_mod.run_wave_case

        def counting(model, wave, distance, dual):
            calls.append(wave.heading_deg)
            return real(model, wave, distance, dual)

        monkeypatch.setattr(sweep_mod, "run_wave_case", counting)
        cfg = IntegrationConfig(steps_per_period=40, measure_periods=3,
                                max_periods=6, convergence_tol=1e-12)
        plan = SweepPlan(headings=(0.0, 10.0, 20.0))
        rows = run_heading_study(plan, replace(reference, integration=cfg)).rows
        assert [row["steady"] for row in rows] == [False] * 3
        assert sorted(calls) == [0.0, 10.0, 20.0]

    def test_zero_reference_power_gives_null_loss(self, fast_reference, tmp_path):
        # a zero PTO damping takes no power at any heading: the loss against
        # a zero reference is undefined, so it is null in the JSON and empty
        # in the CSV, never NaN
        import json

        from oswec.energy import PTOModel

        model = replace(fast_reference, pto=PTOModel(0.0))
        report = run_heading_study(SweepPlan(headings=(0.0, 10.0)), model)
        assert [row["power_loss_fraction"] for row in report.rows] == [0.0, None]
        report.to_json(tmp_path / "sweep_heading.json")
        report.to_csv(tmp_path / "sweep_heading.csv")

        def reject(constant):
            raise ValueError(f"non-finite JSON constant {constant}")

        payload = json.loads(
            (tmp_path / "sweep_heading.json").read_text(), parse_constant=reject
        )
        assert payload["rows"]["10"]["power_loss_fraction"] is None
        lines = (tmp_path / "sweep_heading.csv").read_text().splitlines()
        column = lines[1].split(",").index("power_loss_fraction")
        assert lines[3].split(",")[column] == ""


class TestFiniteDepth:
    def test_wave_study_runs_at_finite_depth(self, fast_reference):
        from oswec.hydro import Environment, wavelength

        model = replace(fast_reference, environment=Environment(water_depth=65.0))
        plan = SweepPlan(distances=(45.0,), wave_periods=(9.5,), wave_heights=(1.75,))
        row = run_wave_study(plan, model).rows[0]
        assert row["error"] == ""
        # finite depth shortens the wave, raising d/lambda above the deep value
        assert row["d_over_lambda"] == pytest.approx(
            45.0 / wavelength(9.5, model.environment), rel=1e-12
        )
        assert row["d_over_lambda"] > 45.0 / wavelength_deep(9.5)


class TestReports:
    def test_csv_has_comment_header_and_units(self, fast_reference, tmp_path):
        plan = SweepPlan(headings=(0.0, 45.0))
        report = run_heading_study(plan, fast_reference)
        path = tmp_path / "heading.csv"
        report.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert "heading_deg" in lines[1]
        assert len(lines) == 2 + len(report.rows)

    def test_json_nested_by_axis(self, fast_reference, tmp_path):
        import json

        plan = SweepPlan(headings=(0.0, 45.0))
        report = run_heading_study(plan, fast_reference)
        path = tmp_path / "heading.json"
        report.to_json(path)
        payload = json.loads(path.read_text())
        assert set(payload["rows"].keys()) == {"0", "45"}

    def test_deterministic_and_worker_independent(self, fast_reference, tmp_path):
        plan = SweepPlan(
            distances=(45.0,),
            wave_periods=(8.5, 9.5),
            wave_heights=(1.75,),
            torque_periods=(8.5, 9.5),
            torque_amplitudes=(0.6e6,),
            scenarios=(Scenario.IN_PHASE, Scenario.ARBITRARY_PHASE),
        )
        for study in (run_wave_study, run_torque_study):
            paths = []
            for tag in ("a", "b", "c"):
                report = study(plan, fast_reference)
                path = tmp_path / f"{report.study}_{tag}.csv"
                report.to_csv(path)
                paths.append(path.read_bytes())
            assert paths[0] == paths[1] == paths[2], study.__name__

    def test_plan_validation(self):
        with pytest.raises(InvalidInputError):
            SweepPlan(distances=())
        with pytest.raises(InvalidInputError):
            SweepPlan(wave_periods=(0.0,))
        with pytest.raises(InvalidInputError):
            SweepPlan(headings=(95.0,))


# each study's CSV header and its number of grid-axis columns; a JSON row
# holds the axes, then "error", then the other columns with "steady" last
LAYOUTS = {
    "torque": (
        ["scenario", "distance_m", "period_s", "torque_Nm", "d_over_lambda",
         "left_rms_rad", "left_amplitude_rad", "left_phase_rad", "left_power_W",
         "right_rms_rad", "right_amplitude_rad", "right_phase_rad", "right_power_W",
         "single_rms_rad", "single_amplitude_rad", "single_power_W",
         "left_rms_ratio", "right_rms_ratio", "steady", "error"],
        5,
    ),
    "wave": (
        ["distance_m", "period_s", "height_m", "d_over_lambda", "band",
         "front_rms_rad", "front_amplitude_rad", "front_phase_rad", "front_power_W",
         "back_rms_rad", "back_amplitude_rad", "back_phase_rad", "back_power_W",
         "single_rms_rad", "single_amplitude_rad", "single_power_W",
         "front_rms_ratio", "back_rms_ratio", "total_power_W", "steady", "error"],
        5,
    ),
    "heading": (
        ["heading_deg", "distance_m", "period_s", "height_m",
         "front_rms_rad", "front_amplitude_rad", "front_phase_rad", "front_power_W",
         "back_rms_rad", "back_amplitude_rad", "back_phase_rad", "back_power_W",
         "total_power_W", "power_loss_fraction", "steady", "error"],
        4,
    ),
}


def json_rows(node):
    if "error" in node:
        return [node]
    return [row for child in node.values() for row in json_rows(child)]


class TestReportLayout:
    """Column order of the CSV report and key order of the JSON rows."""

    @pytest.mark.parametrize("study", ["torque", "wave", "heading"])
    def test_csv_header_and_json_key_order(self, study, fast_reference, monkeypatch, tmp_path):
        import json

        # the second grid case of each study fails; the first runs
        real_torque, real_wave = sweep_mod.run_torque_case, sweep_mod.run_wave_case

        def torque_case(model, scenario):
            if scenario.variant is not Scenario.SINGLE and scenario.period == 9.5:
                raise RuntimeError("boom")
            return real_torque(model, scenario)

        def wave_case(model, wave, distance, dual):
            if dual and (wave.period == 9.5 or wave.heading_deg == 30.0):
                raise RuntimeError("boom")
            return real_wave(model, wave, distance, dual)

        monkeypatch.setattr(sweep_mod, "run_torque_case", torque_case)
        monkeypatch.setattr(sweep_mod, "run_wave_case", wave_case)
        plan = SweepPlan(
            distances=(45.0,),
            torque_periods=(8.5, 9.5),
            torque_amplitudes=(0.6e6,),
            scenarios=(Scenario.IN_PHASE,),
            wave_periods=(8.5, 9.5),
            wave_heights=(1.75,),
            headings=(0.0, 30.0),
        )
        run = {"torque": run_torque_study, "wave": run_wave_study, "heading": run_heading_study}
        report = run[study](plan, fast_reference)
        report.to_csv(tmp_path / "report.csv")
        report.to_json(tmp_path / "report.json")

        header, n_axes = LAYOUTS[study]
        assert (tmp_path / "report.csv").read_text().splitlines()[1].split(",") == header
        good, bad = json_rows(json.loads((tmp_path / "report.json").read_text())["rows"])
        axes, fields = header[:n_axes], header[n_axes:-2]
        assert list(good) == axes + ["error"] + fields + ["steady"]
        assert list(bad) == axes + ["error"]
        assert (good["error"], bad["error"]) == ("", "RuntimeError: boom")
