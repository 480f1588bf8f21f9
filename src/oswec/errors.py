"""Exception types and file conventions shared across the simulator: how an
input file is opened, how a numeric CSV table is read, how a number is
written and how a JSON report is written."""

import contextlib
import csv
import json


class InvalidInputError(ValueError):
    """An input violates a documented precondition or invariant."""


class NumericalError(RuntimeError):
    """A numerical procedure failed (non-convergence, overflow, singular system)."""


@contextlib.contextmanager
def open_input(path, kind: str):
    """``path`` opened as UTF-8 text for reading (newlines untranslated, as
    ``csv`` needs). A file that is missing, cannot be opened (a directory,
    no permission) or is not UTF-8 raises InvalidInputError naming it."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except FileNotFoundError:
        raise InvalidInputError(f"{kind} file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read {kind} file {path}: {exc}") from None


def read_table(path, kind: str, columns: list[str]) -> list[tuple[int, list[float]]]:
    """The data rows of a numeric CSV table whose header is ``columns``, as
    ``(line number, values)``. Blank lines are skipped. An empty file, another
    header, a row of another width, a cell that is not a number or a table
    without data rows raises InvalidInputError naming the file (and line)."""
    rows = []
    with open_input(path, kind) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InvalidInputError(f"{path}: empty {kind} file") from None
        if [c.strip() for c in header] != columns:
            raise InvalidInputError(f"{path}: bad header {header!r}, expected {','.join(columns)}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(columns):
                raise InvalidInputError(
                    f"{path}:{lineno}: expected {len(columns)} columns, got {len(row)}"
                )
            try:
                rows.append((lineno, [float(c) for c in row]))
            except ValueError as exc:
                raise InvalidInputError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise InvalidInputError(f"{path}: {kind} has no data rows")
    return rows


def format_number(x) -> str:
    """A number as every CSV report writes it: 12 significant digits."""
    return format(float(x), ".12g")


def write_json(path, payload) -> None:
    """Write a JSON report: two-space indent and a final newline, encoded
    whole and written in one call."""
    text = json.dumps(payload, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
