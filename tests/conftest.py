import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from macsym import pairing

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "exact", deadline=None, max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


# the memos themselves, taken before any test can monkeypatch the module attributes
_KERNEL_MEMOS = (pairing.kernel_numerator, pairing._kernel_coeff)


@pytest.fixture
def cold_kernel_memos():
    """Empty the kernel numerator and coefficient memos before and after a test that
    perturbs what they hold."""
    for memo in _KERNEL_MEMOS:
        memo.cache_clear()
    yield
    for memo in _KERNEL_MEMOS:
        memo.cache_clear()
