import errno
import os
import tracemalloc

import numpy as np
import pytest

from nctrace import buffers, process_sim


@pytest.fixture
def traced_peak(monkeypatch):
    """Peak numpy allocation of ``study()`` under tracemalloc, from an empty
    set of recycled buffers; ``study`` returns a figure that must be
    finite."""
    def peak(study) -> int:
        monkeypatch.setattr(buffers, "_buffers", [])
        monkeypatch.setattr(buffers, "_size", 0)
        tracemalloc.start()
        try:
            assert np.isfinite(study())
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak


@pytest.fixture
def buffers_used(monkeypatch):
    """The most recycled buffers alive at once in ``study()``, from an empty
    set.  A loop that still holds the last block while the next one is made
    keeps one more buffer busy: the study stays right but holds more."""
    def used(study) -> int:
        monkeypatch.setattr(buffers, "_buffers", [])
        monkeypatch.setattr(buffers, "_size", 0)
        counts = [0]
        empty = buffers.empty

        def counting_empty(*args, **kwargs):
            out = empty(*args, **kwargs)
            counts.append(len(buffers._buffers))
            return out

        monkeypatch.setattr(buffers, "empty", counting_empty)
        study()
        monkeypatch.setattr(buffers, "empty", empty)
        return max(counts)
    return used


@pytest.fixture
def tear_ncp1_writes(monkeypatch):
    """Calling it makes each later NCP1 value-block write stop half way
    through its block and raise OSError, as a full disk stops it."""
    def torn(fh, values):
        data = np.ascontiguousarray(values, dtype="<c16").view(np.uint8)
        fh.write(data.reshape(-1)[:data.size // 2])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    return lambda: monkeypatch.setattr(process_sim, "_write_values", torn)
