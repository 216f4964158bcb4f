"""The engine process keeps freed host memory (``repro.host_memory``)."""

import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro import host_memory

GLIBC = platform.libc_ver()[0] == "glibc"
ROUNDS = 20
FAULTS_PER_ROUND = 50

#: One round allocates four 2 MiB arrays and frees them together.  Under
#: glibc's own heuristic the heap grows by 8 MiB and is trimmed again on
#: free, so every round faults in about 2,000 fresh pages.  One warm-up
#: round grows the heap before counting starts.
CHURN = textwrap.dedent(f"""
    import resource
    import numpy as np
    import repro

    def churn():
        arrays = [np.ones(2 * 1024 * 1024 // 8) for _ in range(4)]
        del arrays

    churn()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range({ROUNDS}):
        churn()
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


@pytest.mark.skipif(not GLIBC, reason="the policy applies to glibc only")
def test_freed_arrays_are_not_faulted_in_again():
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-c", CHURN],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    faults = int(done.stdout.strip())
    assert faults < FAULTS_PER_ROUND * ROUNDS, f"{faults} minor faults in {ROUNDS} rounds"


@pytest.mark.skipif(not GLIBC, reason="the policy applies to glibc only")
def test_a_second_call_sets_the_same_values():
    assert host_memory.keep_freed_memory() is True
    assert host_memory.keep_freed_memory() is True


@pytest.mark.parametrize("libc", [("musl", "1.2.4"), ("", ""), ("libc", "")])
def test_other_libcs_are_left_alone(monkeypatch, libc):
    monkeypatch.setattr(platform, "libc_ver", lambda *args, **kwargs: libc)
    assert host_memory.keep_freed_memory() is False
    assert host_memory.keep_freed_memory() is False


def test_it_never_raises(monkeypatch):
    def unreadable(*args, **kwargs):
        raise OSError("no executable to read")

    monkeypatch.setattr(platform, "libc_ver", unreadable)
    assert host_memory.keep_freed_memory() is False
    monkeypatch.setattr(platform, "libc_ver", lambda *args, **kwargs: ("glibc", "2.36"))
    monkeypatch.setattr(host_memory.ctypes, "CDLL", unreadable)
    assert host_memory.keep_freed_memory() is False
