"""The suite's one CLI launcher and one memory probe.

``run_cli`` starts ``diracloc`` through ``output_identity.launch`` on
this checkout's ``src`` and reads the ``scipy*`` entries of
``sys.modules`` that the launch reports after ``main`` returns; a fresh
process is needed because this one has scipy loaded already.
``memory_probe`` traces allocations with ``tracemalloc`` for one
``with`` block and stops tracing however the block ends.
"""

import json
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from output_identity import launch

SRC = Path(__file__).resolve().parents[1] / "src"


@dataclass(frozen=True)
class CliRun:
    code: int
    stderr: str
    scipy: list | None  # scipy* modules loaded when main returned; None if nothing was reported


def run_cli(argv, cwd=None, setup="", **env) -> CliRun:
    """Run ``diracloc <argv>`` in a fresh process, after the Python ``setup``,
    with ``env`` added to the environment."""
    done = launch(SRC, argv, cwd, setup, **env)
    lines = done.stdout.decode().splitlines()
    return CliRun(done.returncode, done.stderr.decode(), json.loads(lines[-1]) if lines else None)


class MemoryProbe:
    """The traced peak of one ``memory_probe`` block: read live inside it,
    fixed when the block ends."""

    def __init__(self):
        self.final = None

    @property
    def peak(self) -> int:
        """The largest traced size, in bytes, since the block began or was reset."""
        return tracemalloc.get_traced_memory()[1] if self.final is None else self.final

    def reset(self) -> int:
        """Restart the peak at the traced size now, and return that size."""
        tracemalloc.reset_peak()
        return tracemalloc.get_traced_memory()[0]


@contextmanager
def memory_probe():
    probe = MemoryProbe()
    tracemalloc.start()
    try:
        yield probe
    finally:
        probe.final = probe.peak
        tracemalloc.stop()
