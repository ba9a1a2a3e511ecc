"""Check one script through the CLI code path and compare the result with
its known answer."""

from __future__ import annotations

import contextlib
import io
import time
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # kept out of the import cost measured by child.py
    from gen import Script

CLI_FLAGS = ["--quiet", "--no-color"]


def run_cli(main: Callable[[list[str]], int], path: str) -> tuple[int, str, str, float]:
    """`proofun --quiet --no-color path` in-process, with its output
    captured.  An exception escaping the CLI is reported as exit code -1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(CLI_FLAGS + [path])
        except Exception as exc:  # anything but a ProverError is a failure
            code = -1
            print(f"escaped: {type(exc).__name__}: {exc}", file=err)
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def mismatch(script: Script, code: int, out: str, err: str) -> str:
    """Why the result differs from the known answer; "" when it agrees."""
    if script.accept:
        if code != 0:
            return f"expected acceptance, exit {code}: {err.strip()[-200:]}"
        if err:
            return f"unexpected error output: {err.strip()[-200:]}"
    else:
        if code != 1:
            return f"expected rejection (exit 1), exit {code}: {err.strip()[-200:]}"
        if "Error: " not in err or script.error not in err:
            return f"expected an error containing {script.error!r}, got {err.strip()[-200:]!r}"
    if out != script.stdout:
        return f"output differs: expected {script.stdout[:200]!r}, got {out[:200]!r}"
    return ""
