"""The README's simulated-run example: the script it shows prints what it says."""

import re
from pathlib import Path

from openweather.scenario import run_scenario

ROOT = Path(__file__).resolve().parent.parent


def _blocks(heading: str) -> list:
    """The fenced code blocks of one README section, in order."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## %s\n" % heading, 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```[a-z]*\n(.*?)```", section, re.S)


def test_readme_scenario_prints_the_lines_it_shows():
    command, script, output = _blocks("Simulated runs")
    assert "--scenario examples/pair.owp" in command
    assert script == (ROOT / "examples" / "pair.owp").read_text(encoding="utf-8")
    trace = [event.render() for event in run_scenario(script)]
    shown = output.splitlines()
    assert shown
    for line in shown:
        assert line in trace
