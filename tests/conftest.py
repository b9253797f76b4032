"""Shared source fleet, deliberately defective families and a memory guard for the suite."""

import resource
import sys

import numpy as np
import pytest
from hypothesis import settings

import spinsource as ss

settings.register_profile("suite", deadline=None, max_examples=30, derandomize=True)
settings.load_profile("suite")

# the suite's peak resident set stays below this; a test that pushes it past fails by name
MAX_RSS_BYTES = 1 << 30
_RSS_UNIT = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is in bytes on macOS, KiB on Linux

APERIODIC_T = np.array([[0.9, 0.1], [0.2, 0.8]])
PERIOD2_T = np.array([[0.0, 1.0], [1.0, 0.0]])
RHO_SITE = np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex)
NONORTHO = np.array([[1.0, 0.0], [2**-0.5, 2**-0.5]], dtype=complex)


def tensor_power(channel: ss.KrausChannel, k: int) -> ss.KrausChannel:
    """The k-site channel E^(x k), with all products A_i1 (x) ... (x) A_ik as Kraus operators."""
    ops = [np.eye(1, dtype=complex)]
    for _ in range(k):
        ops = [np.kron(x, a) for x in ops for a in channel.operators]
    return ss.KrausChannel(tuple(ops), channel.dim**k)


def make_processes() -> dict:
    return {
        "iid": ss.IIDProcess([0.8, 0.2]),
        "aperiodic": ss.MarkovProcess(APERIODIC_T),
        "period2": ss.MarkovProcess(PERIOD2_T),
        "mixture": ss.MixtureProcess(
            [0.5, 0.5], (ss.IIDProcess([0.9, 0.1]), ss.IIDProcess([0.1, 0.9]))
        ),
    }


def make_fleet() -> dict:
    """The four reference sources used across the convergence tests."""
    alph = ss.AlphabetSpec(NONORTHO)
    procs = make_processes()
    return {
        "iid": ss.IIDSource(ss.density_operator(RHO_SITE)),
        "aperiodic": ss.ClassicallyCorrelatedSource(procs["aperiodic"], alph),
        "period2": ss.ClassicallyCorrelatedSource(procs["period2"], alph),
        "mixture": ss.ClassicallyCorrelatedSource(procs["mixture"], alph),
    }


# oracle verdict triples for the fleet, True = property holds
FLEET_TRIPLES = {
    "iid": (True, True, True),
    "aperiodic": (True, True, True),
    "period2": (True, False, False),
    "mixture": (False, False, False),
}


class BrokenFamily:
    """Looks like a source but rho_2 belongs to a different state family."""

    site_dim = 2

    def __init__(self):
        self._good = ss.ClassicallyCorrelatedSource(
            ss.MarkovProcess(APERIODIC_T), ss.computational_alphabet(2)
        )
        self._stray = ss.IIDSource(ss.density_operator(RHO_SITE))

    def density(self, sites: int) -> ss.DensityOperator:
        if sites == 2:
            return self._stray.density(2)
        return self._good.density(sites)


def make_nonstationary() -> ss.ClassicallyCorrelatedSource:
    """Consistent family whose chain starts off the stationary distribution."""
    chain = ss.MarkovProcess(APERIODIC_T, initial=[1.0, 0.0])
    return ss.ClassicallyCorrelatedSource(chain, ss.computational_alphabet(2))


@pytest.fixture(scope="session")
def processes():
    return make_processes()


@pytest.fixture(scope="session")
def fleet():
    return make_fleet()


@pytest.fixture(scope="session")
def nonortho_alphabet():
    return ss.AlphabetSpec(NONORTHO)


@pytest.fixture
def broken_family():
    return BrokenFamily()


@pytest.fixture
def nonstationary_source():
    return make_nonstationary()


def _peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * _RSS_UNIT


@pytest.fixture(autouse=True)
def rss_guard(request):
    """Fail the test during which the process's peak RSS first exceeds MAX_RSS_BYTES.

    The peak is a high-water mark, so only the test that crosses the line is
    blamed; the ones after it could not raise it further."""
    before = _peak_rss_bytes()
    yield
    after = _peak_rss_bytes()
    if before <= MAX_RSS_BYTES < after:
        pytest.fail(f"{request.node.nodeid} raised the peak RSS to {after / 2**20:.0f} MiB, "
                    f"above the suite's {MAX_RSS_BYTES / 2**20:.0f} MiB")
