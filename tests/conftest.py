import numpy as np
import pytest

# OpenBLAS threads its dot above about this many entries, and a call on
# cold threads can stall for milliseconds.
BLAS_DOT_LIMIT = 10_000


@pytest.fixture
def no_whole_array_dot(monkeypatch):
    """Make np.linalg.norm, np.dot and np.vecdot raise when they reduce an
    array of more than BLAS_DOT_LIMIT entries to one number; gives that
    limit."""
    def guarded(name, func):
        def call(*args, **kwargs):
            out = func(*args, **kwargs)
            arrays = [a for a in (*args, *kwargs.values()) if isinstance(a, np.ndarray)]
            size = max((a.size for a in arrays), default=0)
            if np.ndim(out) == 0 and size > BLAS_DOT_LIMIT:
                raise AssertionError(f"{name} reduced a whole array of {size} entries")
            return out
        return call

    monkeypatch.setattr(np.linalg, "norm", guarded("np.linalg.norm", np.linalg.norm))
    monkeypatch.setattr(np, "dot", guarded("np.dot", np.dot))
    monkeypatch.setattr(np, "vecdot", guarded("np.vecdot", np.vecdot))
    return BLAS_DOT_LIMIT
