import os
from pathlib import Path

import uman

# Tests that start ``python -m uman`` in a subprocess may give it another
# cwd, where a relative ``PYTHONPATH=src`` no longer resolves. Put the
# absolute directory holding the imported package (``src/`` in a checkout,
# site-packages for an installed copy) first, so every child imports the
# same ``uman`` as this process.
_src = str(Path(uman.__file__).resolve().parents[1])
_old = os.environ.get("PYTHONPATH")
os.environ["PYTHONPATH"] = _src + os.pathsep + _old if _old else _src


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Repeat the acceptance battery verdict lines, and the training step's
    calls per step, after the test summary."""
    for module, title in (("test_acceptance", "acceptance battery"), ("test_budget", "calls per training step")):
        try:
            lines = __import__(module).RESULTS
        except ImportError:
            continue
        if lines:
            terminalreporter.section(title)
            for line in lines:
                terminalreporter.write_line(line)
