"""Puts ``tests/`` on ``sys.path``, so every suite imports the shared
helpers kept here (``residue``) as top-level modules."""

import sys
from pathlib import Path

HERE = str(Path(__file__).resolve().parent)
if HERE not in sys.path:
    sys.path.insert(0, HERE)
