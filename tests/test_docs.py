"""The documentation matches the two tables it describes.

docs/state-families.md has one row per entry of states.FAMILIES, with the
same scalar key and type, extras with their defaults, and lower bounds; every
scenario of the runner table scenarios.SCENARIOS has its docs/<scenario>.md;
the README's scenario list is the runner table; and the level cap of the
default cut quoted in the README and the family doc is states.MAX_LEVEL.
"""

import pathlib
import re

from tomolens.scenarios import SCENARIOS
from tomolens.states import FAMILIES, MAX_LEVEL

ROOT = pathlib.Path(__file__).resolve().parents[1]
KIND_NAMES = {complex: "complex", float: "real", int: "int"}


def _family_rows() -> list:
    """Cells of each table row of docs/state-families.md; a pipe escaped as \\| stays in its cell."""
    text = (ROOT / "docs" / "state-families.md").read_text(encoding="utf-8")
    rows = [line for line in text.splitlines() if line.startswith("| `")]
    return [[cell.strip() for cell in re.split(r"(?<!\\)\|", row)[1:-1]] for row in rows]


def test_state_families_doc_matches_catalog_table():
    rows = _family_rows()
    assert [re.match(r"`([^`]+)`", row[0]).group(1) for row in rows] == list(FAMILIES)
    for (_, key_cell, extras_cell, bounds_cell, _), family in zip(rows, FAMILIES.values()):
        if family.key is None:
            assert not key_cell.startswith("`"), key_cell
        else:
            assert key_cell.startswith(f"`{family.key}` ({KIND_NAMES[family.kind]}"), key_cell
        extras = re.findall(r"`(\w+)` \(int, default (-?\d+)\)", extras_cell)
        assert extras == [(name, str(default)) for name, (default, _) in family.extras.items()]
        bounds = {name: float(low) for name, low in re.findall(r"`(\w+) >= (-?[\d.]+)`", bounds_cell)}
        expected = {name: low for name, (_, low) in family.extras.items()}
        if family.low is not None:
            expected[family.key] = family.low
        assert bounds == expected, (key_cell, bounds_cell)


def test_every_scenario_has_its_doc():
    missing = [name for name in SCENARIOS if not (ROOT / "docs" / f"{name}.md").is_file()]
    assert missing == []


def test_readme_scenario_list_is_the_runner_table():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"Scenarios: (.*?)\. Each", readme, re.S).group(1)
    assert re.findall(r"`([^`]+)`", listed) == list(SCENARIOS)


def test_docs_quote_the_level_cap():
    for path in (ROOT / "README.md", ROOT / "docs" / "state-families.md"):
        text = " ".join(path.read_text(encoding="utf-8").split())
        quoted = re.findall(r"levels above (\d+)", text) + re.findall(r"`MAX_LEVEL = (\d+)`", text)
        assert quoted and set(quoted) == {str(MAX_LEVEL)}, (path.name, quoted)
