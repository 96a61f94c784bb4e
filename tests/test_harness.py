"""The memory probe of ``harness``: its reading survives the block, and
tracing stops however the block ends."""

import tracemalloc

import pytest

from harness import memory_probe


def test_memory_probe_stops_tracing_when_the_block_raises():
    with pytest.raises(RuntimeError), memory_probe() as mem:
        block = bytearray(10**6)
        raise RuntimeError(len(block))
    assert not tracemalloc.is_tracing()
    assert mem.peak >= 10**6
