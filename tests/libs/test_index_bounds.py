"""Every library gather and scatter checks its indices against [0, n):
index -1 and index n raise the site's own ``IndexError``, index n - 1
does not."""

import re

import numpy as np
import pytest

from repro.core.handwritten_backend import HandwrittenBackend
from repro.libs import arrayfire as af
from repro.libs import boost_compute as bc
from repro.libs import thrust
from repro.libs.base import index_out_of_range

N = 5


def _thrust_gather(device, index):
    rt = thrust.ThrustRuntime(device)
    thrust.gather(rt.device_vector(index), rt.device_vector(np.arange(N)))


def _thrust_scatter(device, index):
    rt = thrust.ThrustRuntime(device)
    thrust.scatter(
        rt.device_vector(np.array([7])), rt.device_vector(index),
        rt.device_vector(np.zeros(N)),
    )


def _thrust_scatter_if(device, index):
    rt = thrust.ThrustRuntime(device)
    thrust.scatter_if(
        rt.device_vector(index), rt.device_vector(np.array([1])),
        rt.device_vector(np.zeros(N)),
    )


def _boost_gather(device, index):
    rt = bc.BoostComputeRuntime(device)
    bc.gather(rt.vector(index), rt.vector(np.arange(N)))


def _boost_scatter(device, index):
    rt = bc.BoostComputeRuntime(device)
    bc.scatter(rt.vector(np.array([7])), rt.vector(index), rt.vector(np.zeros(N)))


def _boost_scatter_if(device, index):
    rt = bc.BoostComputeRuntime(device)
    bc.scatter_if(rt.vector(index), rt.vector(np.array([1])), rt.vector(np.zeros(N)))


def _arrayfire_lookup(device, index):
    rt = af.ArrayFireRuntime(device)
    af.lookup(rt.array(np.arange(N)), rt.array(index))


def _arrayfire_assign_indexed(device, index):
    rt = af.ArrayFireRuntime(device)
    af.assign_indexed(rt.constant(0, N, np.int64), rt.array(index), rt.array(np.array([7])))


def _handwritten_gather(device, index):
    backend = HandwrittenBackend(device)
    backend.gather(backend.upload(np.arange(N)), backend.upload(index))


def _handwritten_scatter(device, index):
    backend = HandwrittenBackend(device)
    backend.scatter(backend.upload(np.array([7])), backend.upload(index), N)


#: Each site and the ``IndexError`` text it raises for ``index``.
SITES = {
    "thrust.gather": (
        _thrust_gather,
        lambda i: f"gather: index out of range [0, {N}) (min={i}, max={i})",
    ),
    "thrust.scatter": (_thrust_scatter, lambda i: f"scatter: index out of range [0, {N})"),
    "thrust.scatter_if": (
        _thrust_scatter_if, lambda i: f"scatter_if: index out of range [0, {N})",
    ),
    "boost.gather": (_boost_gather, lambda i: f"gather: index out of range [0, {N})"),
    "boost.scatter": (_boost_scatter, lambda i: f"scatter: index out of range [0, {N})"),
    "boost.scatter_if": (
        _boost_scatter_if, lambda i: f"scatter_if: index out of range [0, {N})",
    ),
    "arrayfire.lookup": (_arrayfire_lookup, lambda i: f"lookup: index out of range [0, {N})"),
    "arrayfire.assign_indexed": (
        _arrayfire_assign_indexed, lambda i: f"assign: index out of range [0, {N})",
    ),
    "handwritten.gather": (
        _handwritten_gather, lambda i: f"gather: index out of range [0, {N})",
    ),
    "handwritten.scatter": (
        _handwritten_scatter, lambda i: f"scatter: index out of range [0, {N})",
    ),
}


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("index", [-1, N])
@pytest.mark.parametrize("site", SITES)
def test_out_of_range_raises_the_sites_error(device, site, index, dtype):
    call, message = SITES[site]
    with pytest.raises(IndexError, match=f"^{re.escape(message(index))}$"):
        call(device, np.array([index], dtype=dtype))


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint32])
@pytest.mark.parametrize("site", SITES)
def test_last_index_is_accepted(device, site, dtype):
    call, _message = SITES[site]
    call(device, np.array([N - 1], dtype=dtype))


@pytest.mark.parametrize(
    "dtype", [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint32, np.uint64]
)
def test_index_out_of_range_is_the_two_comparisons(dtype):
    info = np.iinfo(dtype)
    values = [
        value for value in (int(info.min), -1, 0, 1, 127, 128, int(info.max))
        if info.min <= value <= info.max
    ]
    for n in (0, 1, 128, 1000, 2**40):
        for value in values:
            got = index_out_of_range(np.array([0, value], dtype=dtype), n)
            assert got == (n == 0 or not 0 <= value < n), (value, n)
    assert not index_out_of_range(np.empty(0, dtype=dtype), 0)
