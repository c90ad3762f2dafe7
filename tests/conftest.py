import errno
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyperflow.checkpoint


def run_python(*args, env=(), **kwargs) -> subprocess.CompletedProcess:
    """`python *args` in a fresh interpreter that imports the hyperflow under test.

    The child gets this process's environment with the `env` pairs on top
    and PYTHONPATH set to the package's root; its output is captured as text.
    """
    src_root = str(Path(hyperflow.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *args], env={**os.environ, **dict(env), "PYTHONPATH": src_root},
                          capture_output=True, text=True, **kwargs)


class _FillingFile:
    """A real file that runs out of space once `budget` bytes or characters are written.

    The write that crosses the budget writes what still fits and then raises
    ENOSPC, as a full disk does.
    """

    def __init__(self, fh, budget: int):
        self.fh = fh
        self.room = budget

    def write(self, data):
        if len(data) > self.room:
            self.fh.write(data[:self.room])
            self.room = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= len(data)
        return self.fh.write(data)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.fixture
def disk_fills_after(monkeypatch):
    """Call with a budget: every artifact file opened afterwards fills up after that many units."""

    def arm(budget: int) -> None:
        monkeypatch.setattr(hyperflow.checkpoint, "open",
                            lambda *a, **kw: _FillingFile(open(*a, **kw), budget), raising=False)

    return arm
