"""Machine and code description written into every benchmark result."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def git_state(root: Path) -> tuple[str | None, bool | None]:
    """(commit SHA, dirty flag) when root is the top of a git work tree,
    else (None, None).  Discovery stops at root, so a checkout that is not
    a repository never reports the SHA of an enclosing one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))

    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", "-C", str(root), *args],
                capture_output=True, text=True, env=env, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != root.resolve():
        return None, None
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return sha, (None if status is None else bool(status))


def run_record(root: Path, **fields) -> dict:
    import numpy

    sha, dirty = git_state(root)
    return {
        **fields,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "git_dirty": dirty,
    }
