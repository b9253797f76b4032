"""States are checked where they enter the library, and only there.

Every state the library builds from checked inputs is a plain Operator;
the property tests here confirm that it is nonetheless a valid state.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import spinsource as ss
from spinsource.errors import CapExceededError

from conftest import make_fleet
from test_channels import library_channels
from test_pinching import rotated_basis

FLEET = make_fleet()
CHANNELS = library_channels()
TRANSFORMS = [None, *CHANNELS, "pinching"]


def transformed(source, transform):
    if transform is None:
        return source
    channel = ss.pinching_channel(rotated_basis()) if transform == "pinching" else CHANNELS[transform]
    return ss.channel_transform_source(source, channel)


class Counting:
    """Wraps a source and records the site count of every density it builds."""

    def __init__(self, source):
        self.source = source
        self.site_dim = source.site_dim
        self.built = []

    def density(self, sites):
        self.built.append(sites)
        return self.source.density(sites)


@pytest.mark.parametrize("transform", TRANSFORMS, ids=str)
@pytest.mark.parametrize("name", sorted(FLEET))
@given(sites=st.integers(1, 5))
def test_built_states_are_valid(name, transform, sites):
    rho = transformed(FLEET[name], transform).density(sites)
    assert type(rho) is ss.Operator
    assert ss.validate_density(rho).passed


@given(
    seed=st.integers(0, 2**32 - 1),
    sites=st.integers(1, 4),
    channel=st.sampled_from(sorted(CHANNELS)),
)
def test_channel_images_are_valid(seed, sites, channel):
    rho = ss.apply_channel(CHANNELS[channel], ss.random_density(sites, seed))
    assert type(rho) is ss.Operator
    assert ss.validate_density(rho).passed


class TestBoundary:
    def test_density_operator_is_an_operator(self):
        rho = ss.density_operator(np.eye(2) / 2)
        assert isinstance(rho, ss.Operator) and not hasattr(rho, "op")
        assert isinstance(ss.random_density(1, seed=3), ss.DensityOperator)

    def test_iid_source_rejects_non_state(self):
        with pytest.raises(ValueError, match="density operator"):
            ss.IIDSource(ss.Operator(np.diag([1.5, -0.5]), 1))

    def test_iid_source_accepts_plain_operator(self):
        src = ss.IIDSource(ss.Operator(np.eye(2) / 2, 1))
        assert isinstance(src.site_state, ss.DensityOperator)

    def test_transform_rejects_non_trace_preserving_channel(self):
        halved = ss.KrausChannel((np.eye(2, dtype=complex) / 2,), 2)
        for _ in range(2):  # a failed check marks nothing
            with pytest.raises(ValueError, match="trace preserving"):
                ss.channel_transform_source(FLEET["aperiodic"], halved)


class TestChecksBuildOnce:
    def test_cap_checked_before_any_state(self, monkeypatch):
        monkeypatch.setenv(ss.operators.DENSE_CAP_ENV, "256")
        src = Counting(FLEET["aperiodic"])
        with pytest.raises(CapExceededError):
            ss.check_consistency(src, max_sites=9)
        assert src.built == []

    def test_each_state_built_once(self):
        src = Counting(FLEET["mixture"])
        ss.check_consistency(src, max_sites=5)
        assert sorted(src.built) == [1, 2, 3, 4, 5]

    def test_each_block_state_built_once(self):
        src = Counting(FLEET["mixture"])
        ss.check_stationarity(src, max_sites=6, block=2)
        assert sorted(src.built) == [2, 4, 6]
