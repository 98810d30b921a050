"""The allocator policy ``import patchcast`` applies: freed arrays stay in the process."""

import ctypes
import platform
import resource
import types

import numpy as np
import pytest

import patchcast  # noqa: F401  (applies the policy)
from patchcast import allocator


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy sets glibc's mallopt")
def test_freed_arrays_are_reused_without_page_faults():
    def churn():
        arrays = [np.ones(1 << 19) for _ in range(4)]  # four 4 MiB float64 arrays
        del arrays

    churn()  # warm-up: the heap grows once
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        churn()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    # without the policy every iteration faults its 16 MiB in again: ~2,000 faults
    assert faults < 20, f"{faults / 20:.1f} minor faults per iteration"
    assert allocator.keep_freed_memory()


def no_libc(_name):
    raise OSError("no C library")


def libc_without_mallopt(_name):
    return types.SimpleNamespace(gnu_get_libc_version=None)


@pytest.mark.parametrize("cdll", [no_libc, libc_without_mallopt])
def test_policy_without_mallopt_is_not_applied(monkeypatch, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert allocator.keep_freed_memory() is False


def test_trim_threshold_is_never_set_alone(monkeypatch):
    calls = []

    def refusing_mallopt(param, value):
        calls.append(param)
        return 0

    libc = types.SimpleNamespace(gnu_get_libc_version=None, mallopt=refusing_mallopt)
    monkeypatch.setattr(ctypes, "CDLL", lambda _name: libc)
    assert allocator.keep_freed_memory() is False
    assert calls == [allocator.M_MMAP_THRESHOLD]
