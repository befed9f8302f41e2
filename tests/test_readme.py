"""The README's library example runs against the current API, and its
configuration table names exactly the config keys."""

import re
from pathlib import Path

from dtst import config as config_mod

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    steps, rank1 = capsys.readouterr().out.split()
    assert int(steps) == 32
    assert 0.0 <= float(rank1) <= 1.0


def test_readme_config_table_names_exactly_the_schema_keys():
    # a row documents the keys of each group it names (`schedule / train`:
    # `schedule.*` and `train.*`), the `run` row the keys with no group;
    # parentheses hold value literals such as `last`, not key names
    section = README.read_text().split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| ([\w /]+) \| (.*`.*) \|$", section, re.MULTILINE)
    assert rows
    documented = set()
    for groups, cell in rows:
        prefixes = ["" if g == "run" else g + "." for g in groups.split(" / ")]
        for name in re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", cell)):
            keys = {p + name for p in prefixes} & set(config_mod._SCHEMA)
            assert keys, f"the {groups!r} row names {name!r}, which is no config key"
            documented |= keys
    missing = sorted(set(config_mod._SCHEMA) - documented)
    assert not missing, f"the table does not name {missing}"
