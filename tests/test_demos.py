import argparse
import re
import runpy
import shlex
from pathlib import Path

import pytest

from squeezelab.cli import COEFFS_HEADER, COMPARE_HEADER, SWEEP_HEADER, build_parser, main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("script,outputs", [
    # file name -> (header, data rows)
    ("truncation_sweep.py", {"sweep_n3.csv": (SWEEP_HEADER, 402)}),
    ("coefficient_growth.py", {
        "coeffs_n3.csv": (COEFFS_HEADER, 20),
        "compare_n3.csv": (COMPARE_HEADER, 61),
    }),
])
def test_demo_writes_its_csv_files(script, outputs, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    for name, (header, rows) in outputs.items():
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == header
        assert len(lines) == rows + 1


def test_readme_library_example_runs(tmp_path, monkeypatch):
    # the documented library calls must stay the ones the package has
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "__main__"})


def test_readme_cli_commands_run(tmp_path, monkeypatch):
    # every documented `squeezelab` line runs, and together they show every subcommand
    blocks = re.findall(r"^```sh\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    commands = [line for line in "".join(blocks).replace("\\\n", " ").splitlines()
                if line.startswith("squeezelab ")]
    subcommands = next(action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    assert {line.split()[1] for line in commands} == set(subcommands)
    monkeypatch.chdir(tmp_path)
    for line in commands:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line
