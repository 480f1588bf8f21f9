"""The shared file conventions: the numeric CSV table reader behind the
transfer and coefficient loaders, the number format and the JSON writer."""

import json

import numpy as np
import pytest

from oswec.errors import InvalidInputError, format_number, write_json
from oswec.forcing import load_transfer_table
from oswec.hydro import load_coefficient_table

TRANSFER = ("transfer table", "period_s,gamma_Nm_per_m", "8,1e6", load_transfer_table)
COEFFICIENT = (
    "coefficient table",
    "period_s,distance_m,Ia,C,Ia_lr,C_lr",
    "8,10,1e6,1e5,0,0",
    load_coefficient_table,
)
TABLES = pytest.mark.parametrize(
    "kind, header, row, load", [TRANSFER, COEFFICIENT], ids=["transfer", "coefficient"]
)


class TestReadTable:
    @TABLES
    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "{path}: empty {kind} file"),
            ("{header}\n", "{path}: {kind} has no data rows"),
            ("{header}\n\n\n", "{path}: {kind} has no data rows"),
            ("a,b\n{row}\n", "{path}: bad header ['a', 'b'], expected {header}"),
            ("{header}\n{row}\n{row},7\n", "{path}:3: expected {width} columns, got {wider}"),
            (
                "{header}\n{row}\nx{row}\n",
                "{path}:3: could not convert string to float: 'x8'",
            ),
        ],
        ids=["empty", "header_only", "blank_rows_only", "bad_header", "wrong_width", "non_numeric"],
    )
    def test_exact_message(self, tmp_path, kind, header, row, load, text, message):
        path = tmp_path / "table.csv"
        width = header.count(",") + 1
        fields = {"header": header, "row": row, "kind": kind, "path": path}
        path.write_text(text.format(**fields))
        with pytest.raises(InvalidInputError) as excinfo:
            load(path)
        assert str(excinfo.value) == message.format(width=width, wider=width + 1, **fields)

    @TABLES
    def test_blank_lines_skipped(self, tmp_path, kind, header, row, load):
        plain = tmp_path / "plain.csv"
        plain.write_text(f"{header}\n{row}\n")
        spaced = tmp_path / "spaced.csv"
        spaced.write_text(f"{header}\n\n  \n{row}\n\n")
        a, b = load(plain), load(spaced)
        for name in vars(a):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize(
        "row, name, value",
        [
            ("nan,10,1e6,1e5,0,0", "period_s", "nan"),
            ("inf,10,1e6,1e5,0,0", "period_s", "inf"),
            ("8,nan,1e6,1e5,0,0", "distance_m", "nan"),
            ("8,inf,1e6,1e5,0,0", "distance_m", "inf"),
        ],
        ids=["nan_period", "inf_period", "nan_distance", "inf_distance"],
    )
    def test_non_finite_coefficient_grid_value_is_named(self, tmp_path, row, name, value):
        path = tmp_path / "coeffs.csv"
        path.write_text(f"{COEFFICIENT[1]}\n8,20,1e6,1e5,0,0\n{row}\n")
        with pytest.raises(InvalidInputError) as excinfo:
            load_coefficient_table(path)
        assert str(excinfo.value) == f"{path}:3: {name} {value} is not finite"


def test_format_number_keeps_twelve_significant_digits():
    assert format_number(np.float64(1.0) / 3.0) == "0.333333333333"
    assert format_number(12) == "12"
    assert format_number(2.5e-7) == "2.5e-07"


def test_write_json_indents_and_ends_with_newline(tmp_path):
    path = tmp_path / "report.json"
    write_json(path, {"a": [1, 2.5], "b": None})
    text = path.read_text()
    assert text == json.dumps({"a": [1, 2.5], "b": None}, indent=2) + "\n"
