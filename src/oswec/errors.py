"""Exception types shared across the simulator."""

import contextlib


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
