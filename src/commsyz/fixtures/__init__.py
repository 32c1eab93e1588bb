"""Loaders for the versioned reference fixtures shipped with the package.

Each fixture is a JSON file carrying either a graded Betti table or a Hilbert
series numerator, recorded verbatim from large machine computations that are
not reproducible at desk scale.  See README.md in this directory for the
format conventions.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path
from typing import Union

from commsyz.hilbert import GradedBettiTable, HilbertSeries

SCHEMA = "commsyz-fixture/1"
KINDS = ("betti-table", "hilbert-numerator")


def _fixture_dir(directory: Union[str, Path, None]):
    if directory is not None:
        return Path(directory)
    return resources.files(__name__)


def fixture_names(directory: Union[str, Path, None] = None) -> list:
    """Sorted stem names of the available fixture files."""
    root = _fixture_dir(directory)
    return sorted(
        entry.name[: -len(".json")]
        for entry in root.iterdir()
        if entry.name.endswith(".json")
    )


class FixtureNotFound(ValueError):
    """No fixture file of the requested name exists in the fixture directory."""


def _check(cond: bool, name: str, msg: str) -> None:
    if not cond:
        raise ValueError(f"fixture {name!r}: {msg}")


def load_raw(name: str, directory: Union[str, Path, None] = None) -> dict:
    """Read one fixture by stem name and validate its shape."""
    root = _fixture_dir(directory)
    if not root.is_dir():
        raise FixtureNotFound(f"fixture {name!r}: {root} is not a directory")
    path = root / f"{name}.json"
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise FixtureNotFound(
            f"fixture {name!r}: not found (available: {', '.join(fixture_names(directory))})"
        ) from None
    _check(isinstance(data, dict), name, "top level must be an object")
    _check(data.get("schema") == SCHEMA, name, f"schema must be {SCHEMA!r}")
    kind = data.get("kind")
    _check(kind in KINDS, name, f"kind must be one of {KINDS}")
    _check(isinstance(data.get("n"), int) and data["n"] >= 2, name, "n must be an int >= 2")

    if kind == "hilbert-numerator":
        num = data.get("numerator")
        _check(
            isinstance(num, list) and num and all(isinstance(c, int) for c in num),
            name,
            "numerator must be a nonempty list of ints",
        )
        nv = data.get("nvars")
        _check(isinstance(nv, int) and nv > 0, name, "nvars must be a positive int")
        return data

    entries = data.get("entries")
    _check(isinstance(entries, list) and entries, name, "entries must be a nonempty list")
    seen = set()
    for e in entries:
        _check(isinstance(e, dict), name, "each entry must be an object")
        i, j, c = e.get("i"), e.get("j"), e.get("count")
        _check(isinstance(i, int) and i >= 0, name, f"bad homological degree {i!r}")
        _check(isinstance(j, int) and j >= 0, name, f"bad internal degree {j!r}")
        ok = (isinstance(c, int) and c > 0) or (isinstance(c, str) and c)
        _check(ok, name, f"count at ({i},{j}) must be a positive int or a symbol")
        _check((i, j) not in seen, name, f"duplicate cell ({i},{j})")
        seen.add((i, j))
    totals = data.get("stated_totals")
    if totals is not None:
        _check(isinstance(totals, list) and totals, name, "stated_totals must be a list")
        for t in totals:
            bound = isinstance(t, str) and GradedBettiTable.LOWER_BOUND_RE.match(t)
            ok = (isinstance(t, int) and t >= 0) or bound
            _check(ok, name, f"bad stated total {t!r}")
    return data


def load_betti_table(name: str, directory: Union[str, Path, None] = None) -> GradedBettiTable:
    data = load_raw(name, directory)
    if data["kind"] != "betti-table":
        raise ValueError(f"fixture {name!r} is not a betti-table")
    computed = [
        (e["i"], e["j"]) for e in data["entries"] if e.get("computed", False)
    ]
    return GradedBettiTable.from_entries(
        data["entries"], computed=computed, stated_totals=data.get("stated_totals")
    )


def load_hilbert_series(name: str, directory: Union[str, Path, None] = None) -> HilbertSeries:
    data = load_raw(name, directory)
    if data["kind"] != "hilbert-numerator":
        raise ValueError(f"fixture {name!r} is not a hilbert-numerator")
    return HilbertSeries(numerator=tuple(data["numerator"]), nvars=data["nvars"])
