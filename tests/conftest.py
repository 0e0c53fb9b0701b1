import dataclasses

import pytest
from hypothesis import HealthCheck, settings

from grainlab.config import get_caps

settings.register_profile(
    "grainlab",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("grainlab")


@pytest.fixture(autouse=True)
def hermetic_caps():
    """Fail a test that leaves the process-wide caps changed, after
    putting them back so that later tests start from the same caps."""
    caps = get_caps()
    before = dataclasses.asdict(caps)
    yield
    after = dataclasses.asdict(caps)
    if after != before:
        for name, value in before.items():
            setattr(caps, name, value)
        pytest.fail(f"test changed the caps: {before} -> {after}")
