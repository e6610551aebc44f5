"""Locate the program under test: the `kfdaseg` package in this checkout's `src/`.

The benchmark measures the source tree it ships with, never an installed
copy, so it refuses to run when `src/kfdaseg` is missing.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingProgram(RuntimeError):
    """The checkout holds no `src/kfdaseg` package to measure."""


def import_kfdaseg():
    """Import `kfdaseg` from `<checkout>/src` and return the package."""
    package = SRC / "kfdaseg" / "__init__.py"
    if not package.is_file():
        raise MissingProgram(f"no program to measure: {package} does not exist")
    sys.path.insert(0, str(SRC))
    import kfdaseg

    loaded = Path(kfdaseg.__file__).resolve()
    if loaded != package.resolve():
        raise MissingProgram(f"imported kfdaseg from {loaded}, expected {package}")
    return kfdaseg
