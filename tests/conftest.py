import pytest
from hypothesis import HealthCheck, settings

from grainlab.config import caps_override, get_caps

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
    """Run each test in its own caps scope.  Leaving the scope undoes an
    override the test leaked, and the test fails for the leak."""
    with caps_override() as caps:
        yield
        after = get_caps()
    if after is not caps:
        pytest.fail(f"test changed the caps: {caps} -> {after}")
