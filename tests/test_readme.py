"""The README's library example runs against the current API, its
configuration table names exactly the config keys, its CLI section exactly
the files the commands write, and its BLAS-thread pin holds."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dtst
from dtst import cli as cli_mod
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


def test_readme_cli_section_names_exactly_the_artifacts_cli_writes():
    # the files are the literals of `os.path.join(out..., "...")` in cli.py;
    # the section names a file in backquotes, bare or under `<out>/`
    written = set(re.findall(r'os\.path\.join\(out\w*, "([^"]+)"\)',
                             Path(cli_mod.__file__).read_text()))
    assert written
    section = README.read_text().split("## CLI", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`(?:<out>/)?(\w+\.(?:bin|csv|json|jsonl|txt))`", section))
    assert named == written


@pytest.mark.parametrize("preset, want", [(None, "1"), ("3", "3")])
def test_import_dtst_pins_one_blas_thread_unless_preset(preset, want):
    # a fresh interpreter, as the pin must be set before numpy loads
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(dtst.__file__).resolve().parent.parent), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", "import os, dtst; "
                          "print(os.environ['OPENBLAS_NUM_THREADS'])"],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == want
