import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

from oswec.cli import main
from oswec.dynamics import wrap_phase
from oswec.hydro import solve_dispersion, wavelength_deep, Environment


@pytest.fixture()
def fast_config(tmp_path, configs_dir):
    """Shipped reference config with cheaper integration settings."""
    data = json.loads((configs_dir / "reference.json").read_text())
    data["integration"] = {
        "steps_per_period": 120,
        "measure_periods": 6,
        "max_periods": 150,
        "convergence_tol": 1e-4,
    }
    data["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


@pytest.fixture()
def decoupled_config(tmp_path, fast_config):
    data = json.loads(fast_config.read_text())
    data["coefficients"]["analytic"]["alpha"] = 0.0
    data["transfer"]["eta"] = 0.0
    path = tmp_path / "decoupled.json"
    path.write_text(json.dumps(data))
    return path


def out_dir(config_path):
    return pathlib.Path(json.loads(config_path.read_text())["output_dir"])


class TestSimulate:
    def test_scenario_smoke(self, fast_config, capsys):
        code = main(
            [str(fast_config), "simulate", "--scenario", "in-phase",
             "--d", "10", "--Te", "8.5", "--T0", "0.6e6"]
        )
        assert code == 0
        payload = json.loads((out_dir(fast_config) / "simulate_metrics.json").read_text())
        assert set(payload["flaps"].keys()) == {"left", "right"}
        assert capsys.readouterr().out.strip()

    def test_wave_back_phase_law(self, decoupled_config):
        # decoupled flaps respond with the forcing phase gap k*d intact
        code = main(
            [str(decoupled_config), "simulate", "--wave", "--H", "1.75",
             "--Te", "8.5", "--beta", "0", "--d", "45"]
        )
        assert code == 0
        payload = json.loads((out_dir(decoupled_config) / "simulate_metrics.json").read_text())
        assert set(payload["flaps"].keys()) == {"front", "back"}
        gap = wrap_phase(
            payload["flaps"]["front"]["phase_rad"] - payload["flaps"]["back"]["phase_rad"]
        )
        expected = solve_dispersion(8.5, Environment()) * 45.0
        assert expected == pytest.approx(2 * math.pi * 45.0 / wavelength_deep(8.5), rel=1e-12)
        assert gap == pytest.approx(expected, abs=2e-3)

    def test_timeseries_dump(self, fast_config):
        code = main(
            [str(fast_config), "simulate", "--wave", "--H", "1.75",
             "--Te", "8.5", "--d", "45", "--dump-timeseries"]
        )
        assert code == 0
        header = (out_dir(fast_config) / "simulate_timeseries.csv").read_text().splitlines()[0]
        assert header == "t,theta_l,theta_r,omega_l,omega_r"

    def test_single_scenario_timeseries_drops_columns(self, fast_config):
        code = main(
            [str(fast_config), "simulate", "--scenario", "single",
             "--Te", "9.5", "--T0", "0.6e6", "--dump-timeseries"]
        )
        assert code == 0
        header = (out_dir(fast_config) / "simulate_timeseries.csv").read_text().splitlines()[0]
        assert header == "t,theta_l,omega_l"

    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        code = main([str(tmp_path / "absent.json"), "simulate", "--scenario", "single",
                     "--Te", "9.5", "--T0", "1e6"])
        assert code == 1
        assert "absent.json" in capsys.readouterr().err

    def test_missing_coefficient_table_exits_1(self, tmp_path, capsys):
        config = {
            "environment": {"gravity_m_per_s2": 9.81, "water_depth_m": "deep"},
            "flap": {"inertia_dry_kg_m2": 8.0e6, "stiffness_Nm_per_rad": 4.375e6},
            "coefficients": {"table_csv": "missing_table.csv"},
            "transfer": {"gamma_Nm_per_m": 1.0e6},
            "pto": {"damping_Nm_s_per_rad": 5.0e5},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code = main([str(path), "simulate", "--scenario", "single", "--Te", "9.5", "--T0", "1e6"])
        assert code == 1
        assert "missing_table.csv" in capsys.readouterr().err

    def test_conflicting_modes_exit_1(self, fast_config, capsys):
        code = main([str(fast_config), "simulate", "--Te", "9.5"])
        assert code == 1
        assert "exactly one" in capsys.readouterr().err

    def test_unstable_system_exits_2(self, tmp_path, fast_config, capsys):
        # full kernel gain at tiny k*d drives the in-phase mode unstable
        data = json.loads(fast_config.read_text())
        data["coefficients"]["analytic"]["alpha"] = 1.0
        data["integration"]["max_periods"] = 200
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(data))
        code = main(
            [str(path), "simulate", "--scenario", "in-phase",
             "--d", "10", "--Te", "38", "--T0", "1e6"]
        )
        assert code == 2
        assert "non-finite" in capsys.readouterr().err

    def test_overflowing_torque_is_a_configuration_error(self, configs_dir, tmp_path, capsys):
        # H = 1e308 gives an infinite front torque: bad input, not an unstable system
        out = tmp_path / "bad"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([str(configs_dir / "reference.json"), "--out", str(out), "simulate",
                         "--wave", "--H", "1e308", "--Te", "9.5", "--d", "10"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "oswec: configuration error: torque phasor of flap 0 is not finite: inf\n"
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    @pytest.mark.parametrize("config", ["reference.json", "reference_table.json"])
    @pytest.mark.parametrize(
        "args, distance",
        [
            (["--scenario", "in-phase", "--T0", "1e6", "--d", "-5"], -5.0),
            (["--scenario", "in-phase", "--T0", "1e6"], 0.0),
            (["--wave", "--H", "1.75", "--d", "0"], 0.0),
            (["--wave", "--H", "1.75", "--d", "-5"], -5.0),
        ],
        ids=["in-phase-negative", "in-phase-default", "wave-zero", "wave-negative"],
    )
    def test_pair_needs_a_positive_distance(
        self, configs_dir, tmp_path, capsys, config, args, distance
    ):
        # both coefficient sources reject the distance itself, before any
        # dispersion solve or table lookup
        out = tmp_path / "bad"
        code = main(
            [str(configs_dir / config), "--out", str(out), "simulate", "--Te", "9.5", *args]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"oswec: configuration error: distance must be positive and finite, got {distance}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("config", ["reference.json", "reference_table.json"])
    @pytest.mark.parametrize(
        "height, what",
        [
            ("1e160", "state became non-finite at step 1 (t=0.048 s)"),
            ("1e153", "rotation RMS over the measure window is non-finite (cycles_used=31)"),
        ],
    )
    def test_non_finite_response_names_both_causes(
        self, configs_dir, tmp_path, capsys, config, height, what
    ):
        # a stable system (it settles at H = 1e150) whose squares overflow:
        # the message may not blame the damping alone
        out = tmp_path / "big"
        code = main([str(configs_dir / config), "--out", str(out), "simulate", "--wave",
                     "--H", height, "--Te", "9.5", "--d", "10"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"oswec: numerical error: {what}; the system is unstable (negative effective "
            "damping) or its forcing is beyond the float range\n"
        )
        assert not out.exists()

    def test_non_steady_case_is_named_on_stderr(self, fast_config, tmp_path, capsys):
        # in 12 periods the 6-period measure window fits only after a settle
        # cycle of at most 6, and this case settles later
        data = json.loads(fast_config.read_text())
        data["integration"]["max_periods"] = 12
        config = tmp_path / "short.json"
        config.write_text(json.dumps(data))
        code = main(
            [str(config), "simulate", "--wave", "--H", "1.75", "--Te", "9.5", "--d", "10"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == "oswec: simulate: 1 of 1 cases not steady, 0 failed\n"
        assert "total power=" in captured.out
        payload = json.loads((out_dir(config) / "simulate_metrics.json").read_text())
        assert payload["steady"] is False
        assert payload["cycles_used"] == 12

    def test_steady_case_prints_nothing_on_stderr(self, fast_config, capsys):
        code = main(
            [str(fast_config), "simulate", "--wave", "--H", "1.75", "--Te", "9.5", "--d", "10"]
        )
        assert code == 0
        assert capsys.readouterr().err == ""
        payload = json.loads((out_dir(fast_config) / "simulate_metrics.json").read_text())
        assert payload["steady"] is True


class TestSweepCommand:
    def test_heading_row_count(self, fast_config):
        code = main([str(fast_config), "--workers", "1", "sweep", "--study", "heading"])
        assert code == 0
        lines = (out_dir(fast_config) / "sweep_heading.csv").read_text().splitlines()
        assert len(lines) == 2 + 10  # comment, header, 0..45 step 5

    def test_wave_row_count(self, fast_config):
        code = main(
            [str(fast_config), "--workers", "1", "sweep", "--study", "wave",
             "--distances", "10,45,70"]
        )
        assert code == 0
        lines = (out_dir(fast_config) / "sweep_wave.csv").read_text().splitlines()
        assert len(lines) == 2 + 3 * 9 * 2  # three distances, nine periods, two heights

    def test_torque_study_writes_report(self, fast_config):
        code = main(
            [str(fast_config), "--workers", "1", "sweep", "--study", "torque",
             "--distances", "10", "--periods", "8.5", "--amplitudes", "0.6e6"]
        )
        assert code == 0
        lines = (out_dir(fast_config) / "sweep_torque.csv").read_text().splitlines()
        assert len(lines) == 2 + 5  # five scenarios on a single grid point
        assert "single_rms_rad" in lines[1]

    def test_out_flag_overrides_config(self, fast_config, tmp_path):
        override = tmp_path / "elsewhere"
        code = main(
            [str(fast_config), "--out", str(override), "simulate",
             "--scenario", "single", "--Te", "9.5", "--T0", "0.6e6"]
        )
        assert code == 0
        assert (override / "simulate_metrics.json").exists()

    def test_empty_distances_exit_1(self, fast_config, capsys):
        code = main([str(fast_config), "sweep", "--study", "wave", "--distances", ","])
        assert code == 1

    @pytest.mark.parametrize(
        "study, flag",
        [
            ("heading", "--distances"),
            ("heading", "--periods"),
            ("heading", "--amplitudes"),
            ("heading", "--heights"),
            ("wave", "--amplitudes"),
            ("wave", "--headings"),
            ("torque", "--heights"),
            ("torque", "--headings"),
        ],
    )
    def test_flag_the_study_ignores_exits_1(self, fast_config, capsys, study, flag):
        code = main([str(fast_config), "sweep", "--study", study, flag, "10,20"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"--study {study}" in err and flag in err
        assert not (out_dir(fast_config) / f"sweep_{study}.csv").exists()

    def test_failed_rows_are_counted_on_stderr(self, fast_config, tmp_path, capsys):
        # a kernel gain of 1 makes the in-phase modal damping negative at
        # 10 m and 38 s: every pair whose torques force the in-phase mode
        # diverges; the fixed-left rows and the out-of-phase rows (torques
        # T0 and -T0, in-phase forcing exactly 0) settle
        data = json.loads(fast_config.read_text())
        data["coefficients"]["analytic"]["alpha"] = 1.0
        data["integration"]["max_periods"] = 200
        config = tmp_path / "alpha1.json"
        config.write_text(json.dumps(data))
        code = main(
            [str(config), "sweep", "--study", "torque", "--distances", "10",
             "--periods", "38", "--amplitudes", "600000,1000000"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == "oswec: sweep_torque: 0 of 10 rows not steady, 6 failed\n"
        assert captured.out.startswith("10 rows (6 failed) -> ")

    def test_clean_sweep_prints_nothing_on_stderr(self, fast_config, capsys):
        code = main(
            [str(fast_config), "sweep", "--study", "torque", "--distances", "10,45",
             "--periods", "8.5", "--amplitudes", "0.6e6"]
        )
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_reruns_are_byte_identical(self, fast_config):
        args = [str(fast_config), "--workers", "1", "sweep", "--study", "heading",
                "--headings", "0,15,30"]
        assert main(args) == 0
        first = (out_dir(fast_config) / "sweep_heading.csv").read_bytes()
        assert main(args) == 0
        second = (out_dir(fast_config) / "sweep_heading.csv").read_bytes()
        assert first == second


class TestAEPCommand:
    def _write_jpd(self, tmp_path):
        path = tmp_path / "jpd.csv"
        path.write_text("hs_m\\te_s,8.5,9.5\n1.75,0.4,0.2\n3.25,0.1,0.05\n")
        return path

    def test_zero_coupling_rows_double_single(self, decoupled_config, tmp_path):
        jpd = self._write_jpd(tmp_path)
        code = main(
            [str(decoupled_config), "--workers", "1", "aep", "--jpd", str(jpd),
             "--distances", "10,45"]
        )
        assert code == 0
        payload = json.loads((out_dir(decoupled_config) / "aep_table.json").read_text())
        rows = {r["label"]: r["annual_energy_GWh"] for r in payload["rows"]}
        assert rows["dual_d10"] == pytest.approx(rows["single_doubled"], rel=1e-3)
        assert rows["dual_d45"] == pytest.approx(rows["single_doubled"], rel=1e-3)

    def test_table_shape(self, fast_config, tmp_path):
        jpd = self._write_jpd(tmp_path)
        code = main(
            [str(fast_config), "--workers", "1", "aep", "--jpd", str(jpd),
             "--distances", "10,45,70"]
        )
        assert code == 0
        out = out_dir(fast_config)
        lines = (out / "aep_table.csv").read_text().splitlines()
        assert lines[0] == "label,distance_m,annual_energy_GWh"
        assert len(lines) == 1 + 4  # baseline + three distances
        assert (out / "power_matrix_single.csv").exists()
        assert (out / "power_matrix_d10.json").exists()

    def test_default_distances_give_eight_rows(self, fast_config, tmp_path):
        # the seven studied separations plus the doubled-single baseline
        jpd = self._write_jpd(tmp_path)
        code = main([str(fast_config), "--workers", "2", "aep", "--jpd", str(jpd)])
        assert code == 0
        lines = (out_dir(fast_config) / "aep_table.csv").read_text().splitlines()
        assert len(lines) == 1 + 8

    def test_short_measure_window_exits_1_before_any_cell(self, fast_config, tmp_path, capsys):
        # a harmonic fit needs three periods: two are a configuration error,
        # not a table of failed cells
        data = json.loads(fast_config.read_text())
        data["integration"]["measure_periods"] = 2
        fast_config.write_text(json.dumps(data))
        jpd = self._write_jpd(tmp_path)
        code = main([str(fast_config), "--workers", "1", "aep", "--jpd", str(jpd),
                     "--distances", "10"])
        assert code == 1
        err = capsys.readouterr().err
        assert "configuration error: measure_periods must be >= 3, got 2" in err
        assert not out_dir(fast_config).exists()

    def test_missing_jpd_exits_1(self, fast_config, capsys):
        code = main([str(fast_config), "aep", "--jpd", "no_such.csv"])
        assert code == 1
        assert "no_such.csv" in capsys.readouterr().err

    def test_nan_occurrence_exits_1(self, fast_config, tmp_path, capsys):
        jpd = tmp_path / "nan_jpd.csv"
        jpd.write_text("hs_m\\te_s,9.5,10\n1.25,nan,0.1\n")
        code = main([str(fast_config), "--workers", "1", "aep", "--jpd", str(jpd),
                     "--distances", "45"])
        assert code == 1
        assert "nan_jpd.csv:2: column 2" in capsys.readouterr().err
        assert not (out_dir(fast_config) / "aep_table.csv").exists()

    def test_worker_count_does_not_change_bytes(self, fast_config, tmp_path):
        jpd = self._write_jpd(tmp_path)
        out = out_dir(fast_config)
        blobs = []
        for workers in ("1", "2"):
            assert main(
                [str(fast_config), "--workers", workers, "aep", "--jpd", str(jpd),
                 "--distances", "10"]
            ) == 0
            blobs.append((out / "aep_table.csv").read_bytes()
                         + (out / "power_matrix_d10.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_workers_start_no_process_pool(self, fast_config, tmp_path, monkeypatch):
        def no_pool(*_, **__):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr("multiprocessing.Pool", no_pool)
        jpd = self._write_jpd(tmp_path)
        outputs = []
        for workers in ("2", "1"):
            out = tmp_path / f"w{workers}"
            assert main(
                [str(fast_config), "--out", str(out), "--workers", workers, "aep",
                 "--jpd", str(jpd), "--distances", "10,45"]
            ) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(outputs[0]) == 8
        assert outputs[0] == outputs[1]

    def test_non_steady_design_is_named_on_stderr(self, fast_config, tmp_path, capsys):
        # a kernel gain of 1 makes the in-phase modal damping negative at
        # 10 m: every cell there grows without settling, while the single
        # flap and the 45 m pair settle and print nothing
        data = json.loads(fast_config.read_text())
        data["coefficients"]["analytic"]["alpha"] = 1.0
        config = tmp_path / "alpha1.json"
        config.write_text(json.dumps(data))
        jpd = self._write_jpd(tmp_path)
        code = main([str(config), "aep", "--jpd", str(jpd), "--distances", "10,45"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == "oswec: dual_d10: 4 of 4 cells not steady, 0 failed\n"
        assert "dual_d10: " in captured.out
        matrix = json.loads((out_dir(config) / "power_matrix_d10.json").read_text())
        assert matrix["steady"] == [[False, False], [False, False]]

    def test_failed_cells_are_counted_on_stderr(
        self, fast_config, tmp_path, monkeypatch, capsys
    ):
        import oswec.energy as energy_mod
        from oswec.errors import NumericalError

        real = energy_mod.run_wave_case

        def failing(model, wave, distance, dual):
            if dual and wave.period == 9.5:
                raise NumericalError("injected")
            return real(model, wave, distance, dual)

        monkeypatch.setattr(energy_mod, "run_wave_case", failing)
        jpd = self._write_jpd(tmp_path)
        code = main([str(fast_config), "aep", "--jpd", str(jpd), "--distances", "10"])
        assert code == 0
        assert capsys.readouterr().err == "oswec: dual_d10: 0 of 4 cells not steady, 2 failed\n"

    def test_coefficient_table_config_runs(self, configs_dir, tmp_path, capsys):
        # the shipped table config: coefficient and excitation tables
        # instead of the analytic source
        config = str(configs_dir / "reference_table.json")
        jpd = tmp_path / "one_cell.csv"
        jpd.write_text("hs_m\\te_s,8.5\n1.75,0.5\n")
        out = tmp_path / "out"
        assert main([config, "--out", str(out), "aep", "--jpd", str(jpd)]) == 0
        assert main(
            [config, "--out", str(out), "sweep", "--study", "wave", "--distances", "10",
             "--periods", "8.5", "--heights", "1.75"]
        ) == 0
        assert capsys.readouterr().err == ""
        matrices = sorted(out.glob("power_matrix_*.json"))
        assert len(matrices) == 8
        for path in matrices:
            payload = json.loads(path.read_text())
            assert payload["errors"] == []
            assert payload["steady"] == [[True]] and payload["computed"] == [[True]]
            assert payload["config"]["coefficients"] == {
                "source": "../data/sample_coefficients.csv"
            }
            assert payload["config"]["transfer"] == {"gamma_table_points": 5, "eta": 0.1}
        (row,) = json.loads((out / "sweep_wave.json").read_text())["rows"]["10"]["8.5"].values()
        assert row["error"] == "" and row["steady"] is True


class TestVerifyCommand:
    def test_verify_passes(self, fast_config, capsys):
        code = main([str(fast_config), "verify", "--cases", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS oracle-amplitude" in out
        assert "PASS energy-balance" in out

    @pytest.mark.parametrize("seed", [9, 13, 21])
    def test_lightly_damped_seeds_pass(self, configs_dir, tmp_path, capsys, seed):
        # at each seed one lightly damped case once read as steady with part
        # of its transient in the measure window, and failed its energy balance
        data = json.loads((configs_dir / "reference.json").read_text())
        data["seed"] = seed
        path = tmp_path / "seeded.json"
        path.write_text(json.dumps(data))
        assert main([str(path), "--workers", "1", "verify", "--cases", "80"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_bad_case_count_exits_1(self, fast_config):
        assert main([str(fast_config), "verify", "--cases", "0"]) == 1

    def test_failed_verification_exits_3(self, fast_config, monkeypatch, capsys):
        from oswec.verify import VerifyOutcome

        failing = VerifyOutcome([({"dof": 1}, ["energy-balance: input 2 W vs dissipated 1 W"])])
        monkeypatch.setattr("oswec.cli.run_verification", lambda **_: failing)
        assert main([str(fast_config), "verify", "--cases", "1"]) == 3
        captured = capsys.readouterr()
        assert "FAIL energy-balance: 0/1 cases ok" in captured.out
        assert "verification failed" in captured.err


class TestUsageErrors:
    def test_unknown_study_exits_1(self, fast_config):
        assert main([str(fast_config), "sweep", "--study", "nope"]) == 1

    @pytest.mark.parametrize(
        "args, named",
        [
            (["--workers", "0", "verify", "--cases", "1"], ("--workers", "0")),
            (["--workers", "-4", "sweep", "--study", "heading"], ("--workers", "-4")),
            (["sweep", "--study", "wave", "--distances", "10,45,10"], ("distances", "10")),
            (["sweep", "--study", "torque", "--periods", "8.5,8.5"], ("torque_periods", "8.5")),
            (["sweep", "--study", "torque", "--amplitudes", "6e5,6e5"],
             ("torque_amplitudes", "600000")),
            (["sweep", "--study", "wave", "--heights", "1.75,3.25,1.75"],
             ("wave_heights", "1.75")),
            (["sweep", "--study", "heading", "--headings", "0,15,0"], ("headings", "0")),
            (["aep", "--jpd", "JPD", "--distances", "10,10"], ("distances", "10")),
            (["aep", "--jpd", "JPD", "--distances", "10,inf"], ("distances", "finite")),
            (["sweep", "--study", "wave", "--distances", "inf"], ("distances", "finite")),
            (["sweep", "--study", "wave", "--heights", "inf"], ("wave_heights", "finite")),
            (["sweep", "--study", "torque", "--amplitudes", "inf"],
             ("torque_amplitudes", "finite")),
            (["simulate", "--scenario", "in-phase", "--d", "inf", "--Te", "8.5", "--T0", "1e6"],
             ("distance", "inf")),
            (["simulate", "--wave", "--H", "1.75", "--Te", "8.5", "--d", "inf"],
             ("distance", "inf")),
            (["simulate", "--wave", "--H", "inf", "--Te", "8.5", "--d", "45"],
             ("wave height", "inf")),
            (["simulate", "--scenario", "single", "--Te", "8.5", "--T0", "inf"],
             ("torque amplitude", "inf")),
            (["sweep", "--study", "wave", "--periods", "8.5,8.5"], ("wave_periods", "8.5")),
            (["sweep", "--study", "wave", "--periods", "0"], ("wave_periods", "finite")),
            # distinct values that print alike would share one report key
            (["sweep", "--study", "wave", "--distances", "10.0000001,10.0000002"],
             ("distances", "repeats 10")),
            (["aep", "--jpd", "JPD", "--distances", "10.0000001,10.0000002"],
             ("distances", "repeats 10")),
            (["sweep", "--study", "torque", "--amplitudes", "1e6,1000000.0000001"],
             ("torque_amplitudes", "repeats 1e+06")),
        ],
        ids=["workers-0", "workers-negative", "sweep-distances", "sweep-periods",
             "sweep-amplitudes", "sweep-heights", "sweep-headings", "aep-distances",
             "aep-distances-inf", "sweep-distances-inf", "sweep-heights-inf",
             "sweep-amplitudes-inf", "simulate-d-inf", "simulate-wave-d-inf",
             "simulate-H-inf", "simulate-T0-inf", "sweep-wave-periods",
             "sweep-wave-periods-zero", "sweep-distances-alike", "aep-distances-alike",
             "sweep-amplitudes-alike"],
    )
    def test_bad_input_exits_1_before_any_case(
        self, fast_config, data_dir, monkeypatch, capsys, args, named
    ):
        def no_case(*_):
            raise AssertionError("a case ran before the input was checked")

        monkeypatch.setattr("oswec.energy.integrate", no_case)
        monkeypatch.setattr("oswec.verify.integrate", no_case)
        args = [str(data_dir / "sample_jpd.csv") if a == "JPD" else a for a in args]
        assert main([str(fast_config), *args]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert all(word in err for word in named), err
        out = out_dir(fast_config)
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "args",
        [
            ["aep", "--jpd", "JPD", "--distances", "inf"],
            ["sweep", "--study", "heading", "--distances", "10"],
            ["simulate", "--wave", "--Te", "8.5"],
        ],
        ids=["aep-distances-inf", "heading-distances", "simulate-wave-without-H"],
    )
    def test_exit_1_leaves_no_output_directory(self, fast_config, data_dir, tmp_path, args):
        out = tmp_path / "never_written"
        args = [str(data_dir / "sample_jpd.csv") if a == "JPD" else a for a in args]
        assert main([str(fast_config), "--out", str(out), *args]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("which", ["config", "jpd", "non-utf8-jpd"])
    def test_unreadable_input_exits_1(self, fast_config, tmp_path, capsys, which):
        config, jpd = str(fast_config), str(tmp_path)
        if which == "config":
            config = str(tmp_path)
        elif which == "non-utf8-jpd":
            jpd = str(tmp_path / "latin1.csv")
            pathlib.Path(jpd).write_bytes(b"hs_m\\te_s,9.5\n1.25,0.1 \xb5\n")
        assert main([config, "aep", "--jpd", jpd, "--distances", "45"]) == 1
        err = capsys.readouterr().err
        assert "configuration error: cannot read" in err
        assert (config if which == "config" else jpd) in err

    def test_missing_subcommand_exits_1(self, fast_config):
        assert main([str(fast_config)]) == 1


class TestExtremePeriods:
    """Periods whose wave scales leave the float range exit 1 as
    configuration errors naming the period, in deep and finite water."""

    @pytest.mark.parametrize(
        "depth, period, distance",
        [
            ("deep", "1e-300", "10"),
            ("deep", "1e300", "10"),
            ("deep", "1e-160", "10"),
            ("deep", "7e-154", "33"),
            (50.0, "1e300", "10"),
        ],
    )
    def test_configuration_error(self, fast_config, capsys, depth, period, distance):
        data = json.loads(fast_config.read_text())
        data["environment"]["water_depth_m"] = depth
        fast_config.write_text(json.dumps(data))
        args = ["simulate", "--wave", "--H", "1.75", "--Te", period, "--d", distance]
        assert main([str(fast_config), *args]) == 1
        err = capsys.readouterr().err
        assert f"configuration error: wave period {float(period)} s is out of range" in err
        assert "Traceback" not in err
        assert not out_dir(fast_config).exists()

    @pytest.mark.parametrize(
        "table, args",
        [
            (False, ["--scenario", "single", "--Te", "1e300"]),
            (False, ["--scenario", "single", "--Te", "1e-300"]),
            (True, ["--scenario", "in-phase", "--Te", "1e-300", "--d", "10"]),
        ],
        ids=["single-1e300", "single-1e-300", "table-in-phase-1e-300"],
    )
    def test_torque_period_is_a_configuration_error(
        self, fast_config, configs_dir, tmp_path, capsys, table, args
    ):
        config = configs_dir / "reference_table.json" if table else fast_config
        out = tmp_path / "bad"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([str(config), "--out", str(out), "simulate", "--T0", "1e6", *args])
        assert code == 1
        err = capsys.readouterr().err
        assert "configuration error: torque period" in err
        assert "Traceback" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()


# runs one command in a fresh interpreter and writes every module it loaded
_RECORD_MODULES = """
import json, sys
from oswec.cli import main
code = main(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    json.dump({"code": code, "modules": sorted(sys.modules)}, fh)
"""


class TestCommandImports:
    """Each command loads only what it needs of numpy. pytest's own process
    may already hold ``numpy.ma``, so every command runs in a fresh
    interpreter."""

    @pytest.mark.parametrize(
        "config, args",
        [
            ("reference.json", ["simulate", "--wave", "--H", "1.75", "--Te", "9.5", "--d", "10"]),
            ("reference.json", ["sweep", "--study", "wave"]),
            ("reference.json", ["aep", "--jpd", "sample_jpd.csv", "--distances", "10"]),
            ("reference_table.json", ["aep", "--jpd", "sample_jpd.csv", "--distances", "10"]),
            ("reference.json", ["verify", "--cases", "1"]),
        ],
        ids=["simulate", "sweep-wave", "aep", "aep-table", "verify"],
    )
    def test_numpy_submodules_loaded(self, repo_root, configs_dir, data_dir, tmp_path, config, args):
        args = [str(data_dir / a) if a.endswith(".csv") else a for a in args]
        record = tmp_path / "modules.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(repo_root / "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", _RECORD_MODULES, str(record),
             str(configs_dir / config), "--out", str(tmp_path / "out"), *args],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(record.read_text())
        assert loaded["code"] == 0, proc.stderr
        modules = set(loaded["modules"])
        assert "oswec.cli" in modules
        assert "numpy.ma" not in modules
        # verify draws its seeded stream without numpy.random, and so
        # without the OpenSSL it loads through secrets
        assert "numpy.random" not in modules
        assert "_hashlib" not in modules
