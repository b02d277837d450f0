import sys
import threading
from pathlib import Path

import pytest

# tests import the frozen-oracle module by name
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def no_thread_left_behind():
    """Fail a test that leaves a thread running which it did not find: the
    NUFFT pool must join its workers however its generator ends."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"threads left running: {left}")
