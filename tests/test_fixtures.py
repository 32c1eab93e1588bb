import json
import re

import pytest

from commsyz.fixtures import (
    KINDS,
    SCHEMA,
    FixtureNotFound,
    fixture_names,
    load_betti_table,
    load_hilbert_series,
    load_raw,
)

ALL_NAMES = [
    "n3_betti_display",
    "n4_betti_display",
    "n4_canonical_module_betti",
    "n4_conjectured_betti",
    "n4_hilbert_numerator",
    "n4_resolution_partial",
    "n5_betti_display",
    "n6_betti_display",
]


def test_fixture_inventory():
    assert fixture_names() == ALL_NAMES


def test_every_fixture_loads_and_validates():
    for name in ALL_NAMES:
        data = load_raw(name)
        assert data["schema"] == SCHEMA
        assert data["kind"] in KINDS
        assert data["n"] == int(name[1])


def test_kind_mismatch_is_rejected():
    with pytest.raises(ValueError, match="not a betti-table"):
        load_betti_table("n4_hilbert_numerator")
    with pytest.raises(ValueError, match="not a hilbert-numerator"):
        load_hilbert_series("n4_betti_display")


def test_missing_fixture_lists_available():
    with pytest.raises(ValueError, match="not found"):
        load_raw("nope")
    try:
        load_raw("nope")
    except FixtureNotFound as e:
        assert "n4_conjectured_betti" in str(e)


@pytest.mark.parametrize("where", ["missing", "file"])
def test_a_directory_that_is_not_one_is_named(where, tmp_path):
    """A fixture directory that does not exist, or is a file, raises the
    loader's typed error naming it, not an OSError from the listing."""
    root = tmp_path / "absent" if where == "missing" else tmp_path / "table.json"
    if where == "file":
        root.write_text("{}")
    with pytest.raises(FixtureNotFound, match=re.escape(f"{root} is not a directory")):
        load_raw("n4_hilbert_numerator", root)


def test_numerator_fixture_dimensions():
    series = load_hilbert_series("n4_hilbert_numerator")
    assert series.nvars == 32
    assert len(series.numerator) == 21
    assert series.numerator[0] == 1
    assert series.numerator[2] == -15
    # quotient dimension n^2 + n
    assert series.dimension == 20


def test_conjectured_table_structure():
    table = load_betti_table("n4_conjectured_betti")
    assert len(table) == 33
    assert len(table.computed) == 27
    assert table.entry(8, 13) == "c"
    assert table.entry(7, 13) == "d"
    assert (8, 13) not in table.computed
    assert (0, 0) in table.computed
    assert table.entry(0, 0) == 1
    assert table.entry(1, 2) == 15
    assert table.max_col == 12


def test_conjectured_table_totals_semantics():
    table = load_betti_table("n4_conjectured_betti")
    stated = list(table.stated_totals)
    assert stated[6] == "6902+"
    recomputed = table.totals()
    # column 6 carries no symbolic cell, so its recomputed total is plain
    assert recomputed[6] == 6902
    # columns holding 'd' and 'c' recompute as lower bounds
    assert recomputed[7] == "4432+"
    assert recomputed[8] == "5710+"
    for col in (0, 1, 3, 4, 5, 9, 10, 11, 12):
        assert recomputed[col] == stated[col]
    # column 2 is a recorded discrepancy: the published total overcounts by 1
    assert recomputed[2] == 114 and stated[2] == 115


def test_partial_resolution_and_display_fixtures_agree():
    partial = load_betti_table("n4_resolution_partial")
    display = load_betti_table("n4_betti_display")
    # the display presents all 16 entries plus the one extra syzygy they bring
    assert display.entry(1, 2) == partial.entry(1, 2) + 1 == 16
    assert display.entry(2, 2) == 1
    for (i, j), v in partial.cells.items():
        if (i, j) in ((1, 2),):
            continue
        assert display.entry(i, j) == v


def test_display_fixture_totals_match_cells():
    for name in ("n3_betti_display", "n5_betti_display", "n6_betti_display"):
        table = load_betti_table(name)
        assert table.totals() == list(table.stated_totals)


def test_directory_override(tmp_path):
    doc = {
        "schema": SCHEMA,
        "kind": "betti-table",
        "n": 2,
        "entries": [{"i": 0, "j": 0, "count": 1}],
    }
    (tmp_path / "tiny.json").write_text(json.dumps(doc))
    assert fixture_names(tmp_path) == ["tiny"]
    table = load_betti_table("tiny", directory=tmp_path)
    assert table.entry(0, 0) == 1


@pytest.mark.parametrize(
    "mutation, message",
    [
        ({"schema": "other/9"}, "schema"),
        ({"kind": "betti"}, "kind"),
        ({"n": 1}, "n must be"),
        ({"entries": []}, "entries"),
        ({"entries": [{"i": -1, "j": 0, "count": 1}]}, "homological"),
        ({"entries": [{"i": 0, "j": 0, "count": 0}]}, "count"),
        (
            {
                "entries": [
                    {"i": 0, "j": 0, "count": 1},
                    {"i": 0, "j": 0, "count": 2},
                ]
            },
            "duplicate",
        ),
        ({"stated_totals": ["3-"]}, "stated total"),
        ({"stated_totals": [-1]}, "stated total"),
    ],
)
def test_validation_rejections(tmp_path, mutation, message):
    doc = {
        "schema": SCHEMA,
        "kind": "betti-table",
        "n": 2,
        "entries": [{"i": 0, "j": 0, "count": 1}],
    }
    doc.update(mutation)
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        load_raw("bad", directory=tmp_path)


def test_numerator_validation(tmp_path):
    doc = {"schema": SCHEMA, "kind": "hilbert-numerator", "n": 2, "numerator": [], "nvars": 8}
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="numerator"):
        load_raw("bad", directory=tmp_path)
    doc["numerator"] = [1, 0.5]
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="numerator"):
        load_raw("bad", directory=tmp_path)
    doc["numerator"] = [1]
    doc["nvars"] = 0
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="nvars"):
        load_raw("bad", directory=tmp_path)
