"""Reading and writing the program's files.

Every input file is read here, and every JSON output is written here.
A malformed input raises ``InputError``, which names the file and where
in it the fault is: the line for a text file or a JSON syntax error, the
record (``record 3``, ``group 0``, ``models[2]``) for a JSON value.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from zipfile import BadZipFile


class InputError(ValueError):
    """A malformed input file; prints as ``path:where: reason``."""

    def __init__(self, path, where, reason: str):
        super().__init__(f"{path}:{where}: {reason}")
        self.path = path
        self.where = where


def _decode(path, data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(path, data.count(b"\n", 0, exc.start) + 1,
                         "not valid UTF-8") from exc


def read_json(path, version=None):
    """The JSON document in ``path``. With ``version``, the document must
    be an object whose ``version`` field equals it."""
    with open(path, "rb") as f:
        text = _decode(path, f.read())
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(path, exc.lineno, exc.msg) from exc
    except (ValueError, RecursionError) as exc:  # too many digits, too deep
        raise InputError(path, 1, f"{type(exc).__name__}: {exc}") from exc
    if version is not None:
        found = doc.get("version") if isinstance(doc, dict) else None
        if found != version:
            raise InputError(path, "version",
                             f"unsupported version {found!r}, expected {version}")
    return doc


def write_json(path, doc) -> None:
    write_text(path, json.dumps(doc, indent=1))


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def read_rows(path, sep="\t"):
    """Yield ``(lineno, fields)`` for each line of a UTF-8 text file, split
    on ``sep`` (``None``: on runs of whitespace). Blank lines and lines
    starting with ``#`` are skipped."""
    with open(path, encoding="utf-8") as f:
        try:
            for lineno, line in enumerate(f, 1):
                stripped = line.strip()
                if stripped and stripped[0] != "#":
                    yield lineno, line.rstrip("\n").split(sep)
        except UnicodeDecodeError:
            with open(path, "rb") as raw:
                _decode(path, raw.read())   # raises at the first bad byte's line
            raise


@contextmanager
def located(path, where):
    """Report a lookup, conversion or archive error in one record of ``path``
    as an ``InputError`` at ``where``. An ``InputError`` passes through as it is."""
    try:
        yield
    except InputError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, AttributeError,
            EOFError, BadZipFile) as exc:
        raise InputError(path, where, f"{type(exc).__name__}: {exc}") from exc
