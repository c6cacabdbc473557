"""Names, in the header of a test run, the optional oracles that
``oracles.py`` found, and what stands in for each one that is missing.
(``pytest -q`` prints no header.)"""

from __future__ import annotations

import importlib

# package -> what oracles.py uses in its place when it is not installed
_STAND_INS = {
    "mpmath": "the adaptive Dormand-Prince integrator",
    "sympy": "central differences",
    "hypothesis": "a seeded numpy loop",
}


def pytest_report_header(config):
    found = []
    for name, stand_in in _STAND_INS.items():
        try:
            module = importlib.import_module(name)
        except ImportError:
            found.append(f"{name} missing (in its place: {stand_in})")
        else:
            found.append(f"{name} {module.__version__}")
    return "oracles: " + ", ".join(found)
