"""The runtime imports nothing outside the standard library.

CI installs pytest and Hypothesis before the tier-1 run, so a stray import of
either (or of anything else installed) would pass there unnoticed.  Each
module is imported in a fresh interpreter that sees no site-packages at all.
"""

import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

PROBE = """
import pkgutil
import sys

sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import openweather

for module in pkgutil.iter_modules(openweather.__path__):
    __import__("openweather." + module.name)
for name in sorted(set(sys.modules) - before):
    print(name)
"""


def test_every_module_imports_with_the_standard_library_alone():
    # -I: no PYTHONPATH, no user site, no script directory; -S: no site-packages
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", PROBE, str(SRC)], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    loaded = result.stdout.split()
    assert {"openweather.cli", "openweather.codec", "openweather.tcpnet"} <= set(loaded)
    foreign = [name for name in loaded if name.partition(".")[0] not in (*sys.stdlib_module_names, "openweather")]
    assert not foreign, foreign
