"""Child processes: the environment they run in, and running one to its end."""

from __future__ import annotations

import os
import subprocess
from pathlib import Path

CHILD_TIMEOUT_S = 60


def thread_env(root: Path):
    """Environment for every process that runs ctxkb: one numpy thread, src on the path."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(Path(root) / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, env, timeout=CHILD_TIMEOUT_S):
    """Run a child process to its end; kill and reap it if it overruns."""
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return proc.returncode, out, err
