"""Let the CLI subprocesses that tests start import the package from src/.

`pythonpath` in pyproject.toml covers the test process itself; child
processes only see the environment.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
