"""Tests for the package's public surface."""

import subprocess
import sys
from pathlib import Path

import gmcfar


def test_every_export_resolves():
    missing = [name for name in gmcfar.__all__ if not hasattr(gmcfar, name)]
    assert missing == []


def test_import_leaves_heavy_scipy_modules_unloaded():
    # scipy.stats and scipy.optimize each add a large share of start-up time.
    root = str(Path(gmcfar.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {root!r}); import gmcfar; "
            "print(sorted(m for m in sys.modules "
            "if m in ('scipy.stats', 'scipy.optimize')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
