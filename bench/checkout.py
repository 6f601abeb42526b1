"""Locate the checkout under test and import porcfield from its source tree."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source() -> None:
    """Put the checkout's `src/` first on sys.path, or exit non-zero without it.

    The benchmark measures the code next to it, never an installed copy, so
    a directory without the package source is an error.
    """
    if not (SRC / "porcfield" / "cli.py").is_file():
        print(f"error: no porcfield source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
