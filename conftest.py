"""Repo-root pytest configuration.

Puts ``src/`` on ``sys.path`` so the test suite and the ``perf/``
self-tests run from a fresh checkout even when the package is not installed
(offline environments where ``pip install -e .`` cannot fetch build
dependencies can also use ``python setup.py develop``).
"""

import pathlib
import sys

_SRC = pathlib.Path(__file__).parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
