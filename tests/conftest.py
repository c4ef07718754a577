import signal
from contextlib import contextmanager

import numpy as np
import pytest

from knockon import RngStream, Topology, gen_erdos_renyi


def random_topology(gen: np.random.Generator, n_min=2, n_max=40, require_edge=True):
    """A small random directed topology for property tests."""
    n = int(gen.integers(n_min, n_max + 1))
    density = float(gen.uniform(0.05, 0.6))
    top = gen_erdos_renyi(n, density, gen)
    while require_edge and top.n_edges == 0:
        top = gen_erdos_renyi(n, density, gen)
    return top


@contextmanager
def time_limit(seconds):
    """Fail, rather than hang, when the block runs longer than ``seconds``."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def two_bank_topology():
    """Bank 1 borrows from bank 0; the worked example used across modules."""
    return Topology(2, np.array([[0, 1]]), "external")


@pytest.fixture
def rng_stream():
    return RngStream(987654321, 0)
