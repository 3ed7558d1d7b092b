"""Session set-up: build the compiled kernel in place before polyx is imported.

The run uses `python setup.py build_ext --inplace`, so the extension comes
from the same definition an install uses: the committed `native.c` when
Cython is absent, `native.pyx` when it is present. The build is skipped when
an extension newer than both sources is already in `src/polyx/_kernel/`.
Without a C compiler, or when the build fails, the session runs on the pure
engine, and the pytest header says which engine runs and why.
"""

from __future__ import annotations

import subprocess
import sys
import sysconfig
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNEL = ROOT / "src" / "polyx" / "_kernel"

_build_note = ""


def _build_native() -> str:
    """Build the extension unless an up-to-date one exists; say what happened."""
    target = KERNEL / ("native" + sysconfig.get_config_var("EXT_SUFFIX"))
    newest_source = max((KERNEL / name).stat().st_mtime for name in ("native.c", "native.pyx"))
    if target.exists() and target.stat().st_mtime >= newest_source:
        return "up to date"
    before = target.stat().st_mtime if target.exists() else None
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=ROOT, capture_output=True, text=True,
    )
    # The extension is optional: a failed compile is only a warning, exit 0.
    failed = [line for line in proc.stderr.splitlines() if "failed" in line]
    if proc.returncode:
        failed.append(f"setup.py exited {proc.returncode}")
    elif not target.exists():
        failed.append("setup.py built no extension")
    if failed:
        return "failed: " + failed[0]
    if target.stat().st_mtime == before:
        return "up to date (setup.py found nothing to rebuild)"
    return f"built in {time.perf_counter() - t0:.1f} s"


def pytest_configure(config):
    global _build_note
    _build_note = _build_native()


def pytest_report_header(config):
    from polyx import _kernel

    return f"polyx engine: {_kernel.describe()} (kernel build: {_build_note})"
