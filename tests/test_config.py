import json
import math
import sys

import pytest

from oswec.cli import main
from oswec.config import load_run_config, reference_model, with_coupling_disabled
from oswec.errors import InvalidInputError
from oswec.hydro import AnalyticCoefficientSource, TableCoefficientSource


def write_config(path, **overrides):
    data = {
        "environment": {"gravity_m_per_s2": 9.81, "water_depth_m": "deep"},
        "flap": {"inertia_dry_kg_m2": 8.0e6, "stiffness_Nm_per_rad": 4.375e6},
        "coefficients": {
            "analytic": {
                "added_inertia_kg_m2": 2.0e6,
                "damping_Nm_s_per_rad": 1.0e6,
                "alpha": 0.05,
            }
        },
        "transfer": {"gamma_Nm_per_m": 1142857.142857143, "eta": 0.1},
        "pto": {"damping_Nm_s_per_rad": 5.0e5, "included_in_damping": True},
        "output_dir": "out",
        "seed": 0,
    }
    data.update(overrides)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # a case may write an integer past the int-to-str digit limit
    try:
        path.write_text(json.dumps(data))
    finally:
        sys.set_int_max_str_digits(limit)
    return path


class TestLoadRunConfig:
    def test_shipped_reference_matches_programmatic(self, configs_dir):
        loaded = load_run_config(configs_dir / "reference.json")
        assert loaded.model == reference_model()

    def test_shipped_table_variant_loads(self, configs_dir):
        loaded = load_run_config(configs_dir / "reference_table.json")
        assert isinstance(loaded.model.coefficients, TableCoefficientSource)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidInputError, match="not found"):
            load_run_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(InvalidInputError, match="JSON"):
            load_run_config(path)

    def test_missing_coefficient_file_names_path(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", coefficients={"table_csv": "absent.csv"})
        with pytest.raises(InvalidInputError, match="absent.csv"):
            load_run_config(path)

    def test_two_coefficient_sources_rejected(self, tmp_path):
        path = write_config(
            tmp_path / "cfg.json",
            coefficients={
                "analytic": {
                    "added_inertia_kg_m2": 2.0e6,
                    "damping_Nm_s_per_rad": 1.0e6,
                    "alpha": 0.05,
                },
                "table_csv": "x.csv",
            },
        )
        with pytest.raises(InvalidInputError, match="exactly one"):
            load_run_config(path)

    def test_no_coefficient_source_rejected(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", coefficients={})
        with pytest.raises(InvalidInputError, match="exactly one"):
            load_run_config(path)

    def test_missing_required_key(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", flap={"inertia_dry_kg_m2": 8.0e6})
        with pytest.raises(InvalidInputError, match="stiffness_Nm_per_rad"):
            load_run_config(path)

    def test_table_paths_resolve_relative_to_config(self, tmp_path):
        table = tmp_path / "nested" / "coeffs.csv"
        table.parent.mkdir()
        table.write_text(
            "period_s,distance_m,Ia,C,Ia_lr,C_lr\n8,10,1e6,1e5,0,0\n"
        )
        path = write_config(
            tmp_path / "nested" / "cfg.json", coefficients={"table_csv": "coeffs.csv"}
        )
        loaded = load_run_config(path)
        assert isinstance(loaded.model.coefficients, TableCoefficientSource)

    def test_finite_depth_parses(self, tmp_path):
        path = write_config(
            tmp_path / "cfg.json",
            environment={"gravity_m_per_s2": 9.81, "water_depth_m": 65.0},
        )
        loaded = load_run_config(path)
        assert loaded.model.environment.water_depth == 65.0

    def test_garbage_depth_is_a_config_error(self, tmp_path):
        path = write_config(
            tmp_path / "cfg.json",
            environment={"gravity_m_per_s2": 9.81, "water_depth_m": "shallow"},
        )
        with pytest.raises(InvalidInputError, match="water depth"):
            load_run_config(path)

    def test_garbage_number_is_a_config_error(self, tmp_path):
        path = write_config(
            tmp_path / "cfg.json",
            flap={"inertia_dry_kg_m2": "big", "stiffness_Nm_per_rad": 4.375e6},
        )
        with pytest.raises(InvalidInputError):
            load_run_config(path)

    def test_defaults_for_integration(self, tmp_path):
        path = write_config(tmp_path / "cfg.json")
        loaded = load_run_config(path)
        assert loaded.model.integration.steps_per_period == 200
        assert loaded.seed == 0


ANALYTIC = {"added_inertia_kg_m2": 2.0e6, "damping_Nm_s_per_rad": 1.0e6, "alpha": 0.05}
FLAP = {"inertia_dry_kg_m2": 8.0e6, "stiffness_Nm_per_rad": 4.375e6}
SIMULATE = ["simulate", "--scenario", "single", "--Te", "9.5", "--T0", "1e6"]


class TestNonFiniteInputs:
    """JSON accepts NaN and Infinity literals; every such value is a config error."""

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"pto": {"damping_Nm_s_per_rad": math.nan}}, "PTO damping"),
            (
                {"coefficients": {"analytic": {**ANALYTIC, "added_inertia_kg_m2": math.nan}}},
                "added_inertia",
            ),
            ({"coefficients": {"analytic": {**ANALYTIC, "eps": math.nan}}}, "eps"),
            ({"integration": {"convergence_tol": math.inf}}, "convergence_tol"),
            ({"flap": {**FLAP, "inertia_dry_kg_m2": math.inf}}, "inertia_dry"),
            ({"flap": {**FLAP, "stiffness_Nm_per_rad": math.inf}}, "stiffness"),
            ({"transfer": {"gamma_Nm_per_m": math.nan, "eta": 0.1}}, "gamma"),
            ({"transfer": {"gamma_Nm_per_m": math.inf, "eta": 0.1}}, "gamma"),
            ({"environment": {"gravity_m_per_s2": math.inf}}, "gravity"),
            ({"environment": {"water_depth_m": math.inf}}, "water depth"),
        ],
        ids=[
            "pto_damping",
            "added_inertia",
            "kernel_eps",
            "convergence_tol",
            "inertia_dry",
            "stiffness",
            "gamma_nan",
            "gamma_inf",
            "gravity",
            "water_depth",
        ],
    )
    def test_config_value_rejected(self, tmp_path, overrides, match):
        path = write_config(tmp_path / "cfg.json", **overrides)
        text = path.read_text()
        assert "NaN" in text or "Infinity" in text
        with pytest.raises(InvalidInputError, match=match):
            load_run_config(path)
        assert main([str(path), *SIMULATE]) == 1

    @pytest.mark.parametrize(
        "row", ["8,10,1e6,1e5,nan,0", "8,10,1e6,1e5,0,nan"], ids=["Ia_lr", "C_lr"]
    )
    def test_table_coupling_rejected(self, tmp_path, row):
        (tmp_path / "coeffs.csv").write_text(f"period_s,distance_m,Ia,C,Ia_lr,C_lr\n{row}\n")
        path = write_config(tmp_path / "cfg.json", coefficients={"table_csv": "coeffs.csv"})
        with pytest.raises(InvalidInputError, match="coupling_.* must be finite"):
            load_run_config(path)
        assert main([str(path), *SIMULATE]) == 1


    @pytest.mark.parametrize("row", ["8,inf", "nan,1e6"], ids=["gamma", "period"])
    def test_transfer_table_rejected(self, tmp_path, row):
        (tmp_path / "gamma.csv").write_text(f"period_s,gamma_Nm_per_m\n{row}\n")
        path = write_config(tmp_path / "cfg.json", transfer={"table_csv": "gamma.csv"})
        with pytest.raises(InvalidInputError, match="must be positive and finite"):
            load_run_config(path)
        assert main([str(path), *SIMULATE]) == 1


class TestStrictTypes:
    """Every value and section is taken as written, never coerced."""

    @pytest.mark.parametrize(
        "overrides, match",
        [
            (
                {"pto": {"damping_Nm_s_per_rad": 5.0e5, "included_in_damping": "false"}},
                "included_in_damping",
            ),
            (
                {"pto": {"damping_Nm_s_per_rad": 5.0e5, "included_in_damping": 0}},
                "included_in_damping",
            ),
            ({"integration": {"steps_per_period": 2.7}}, "steps_per_period"),
            ({"integration": {"max_periods": "200"}}, "max_periods"),
            ({"integration": {"measure_periods": True}}, "measure_periods"),
            ({"seed": -1}, "seed"),
            ({"seed": 1.5}, "seed"),
            ({"environment": {"gravity_m_per_s2": "9.81"}}, "gravity_m_per_s2"),
            ({"environment": {"gravity_m_per_s2": True}}, "gravity_m_per_s2"),
            ({"environment": {"water_depth_m": "10"}}, "water depth"),
            ({"environment": {"water_depth_m": True}}, "water depth"),
            ({"flap": {**FLAP, "inertia_dry_kg_m2": "8e6"}}, "inertia_dry_kg_m2"),
            ({"pto": {"damping_Nm_s_per_rad": "5e5"}}, "damping_Nm_s_per_rad"),
            ({"coefficients": {"analytic": {**ANALYTIC, "alpha": True}}}, "alpha"),
            ({"coefficients": {"analytic": {**ANALYTIC, "eps": "0.1"}}}, "eps"),
            ({"transfer": {"gamma_Nm_per_m": "1e6"}}, "gamma_Nm_per_m"),
            ({"transfer": {"gamma_Nm_per_m": 1e6, "eta": False}}, "eta"),
            ({"integration": {"convergence_tol": "1e-4"}}, "convergence_tol"),
            ({"output_dir": 5}, "output_dir"),
            ({"integration": [1]}, "'integration' must be an object"),
            ({"integration": None}, "'integration' must be an object"),
            ({"coefficients": {"analytic": [1]}}, "'analytic' must be an object"),
            ({"flap": {**FLAP, "inertia_dry_kg_m2": 10**399}}, "inertia_dry_kg_m2"),
            ({"flap": {**FLAP, "inertia_dry_kg_m2": 10**4999}}, "not valid JSON"),
            ({"integration": {"steps_per_period": 10**399}}, "steps_per_period"),
            ({"integration": {"steps_per_period": 2}}, "steps_per_period must be >= 3"),
            ({"integration": {"measure_periods": 2}}, "measure_periods must be >= 3, got 2"),
            ({"environment": {"water_depth_m": 10**399}}, "too large"),
            ({"seeed": 3}, "config top level: unknown key 'seeed'"),
            (
                {"environment": {"water_depth": 50.0}},
                "config environment: unknown key 'water_depth'",
            ),
            ({"flap": {**FLAP, "inertia_kg_m2": 1e7}}, "config flap: unknown key 'inertia_kg_m2'"),
            (
                {"coefficients": {"analytic": ANALYTIC, "table": "coeffs.csv"}},
                "config coefficients: unknown key 'table'",
            ),
            (
                {"coefficients": {"analytic": {**ANALYTIC, "alhpa": 0.05}}},
                "config coefficients.analytic: unknown key 'alhpa'",
            ),
            (
                {"transfer": {"gamma_Nm_per_m": 1e6, "eta_back": 0.1}},
                "config transfer: unknown key 'eta_back'",
            ),
            (
                {"pto": {"damping_Nm_s_per_rad": 5e5, "included": True}},
                "config pto: unknown key 'included'",
            ),
            ({"integration": {"max_period": 5}}, "config integration: unknown key 'max_period'"),
        ],
        ids=[
            "bool_string",
            "bool_int",
            "fractional_steps",
            "string_periods",
            "bool_periods",
            "negative_seed",
            "fractional_seed",
            "string_gravity",
            "bool_gravity",
            "string_depth",
            "bool_depth",
            "string_inertia",
            "string_pto_damping",
            "bool_alpha",
            "string_eps",
            "string_gamma",
            "bool_eta",
            "string_tol",
            "int_output_dir",
            "list_integration",
            "null_integration",
            "list_analytic",
            "huge_inertia",
            "over_digit_limit",
            "huge_steps",
            "aliasing_steps",
            "short_measure_window",
            "huge_depth",
            "unknown_top_level",
            "unknown_environment",
            "unknown_flap",
            "unknown_coefficients",
            "unknown_analytic",
            "unknown_transfer",
            "unknown_pto",
            "unknown_integration",
        ],
    )
    def test_config_value_rejected(self, tmp_path, capsys, overrides, match):
        path = write_config(tmp_path / "cfg.json", **overrides)
        with pytest.raises(InvalidInputError, match=match):
            load_run_config(path)
        assert main([str(path), "verify", "--cases", "1"]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and match in err

    def test_integral_float_accepted(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", integration={"steps_per_period": 120.0})
        steps = load_run_config(path).model.integration.steps_per_period
        assert steps == 120 and isinstance(steps, int)

    def test_boolean_false_is_honoured(self, tmp_path):
        path = write_config(
            tmp_path / "cfg.json",
            pto={"damping_Nm_s_per_rad": 5.0e5, "included_in_damping": False},
        )
        assert load_run_config(path).model.pto.included_in_damping is False


class TestCouplingToggle:
    def test_disabled_coupling_zeroes_interaction(self):
        model = with_coupling_disabled(reference_model())
        assert isinstance(model.coefficients, AnalyticCoefficientSource)
        assert model.coefficients.alpha == 0.0
        assert model.transfer.eta == 0.0
        _, _, coupling = model.coefficients.pair(8.5, 10.0, model.environment)
        assert coupling == (0.0, 0.0)
