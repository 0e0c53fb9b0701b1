import pytest
from hypothesis import HealthCheck, settings

from grainlab.config import caps_override, get_caps
from grainlab.model import Word

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


@pytest.fixture
def built_words(monkeypatch):
    """A list that collects every Word built while the test runs, through
    the checked constructor or the kernels' unchecked one."""
    built = []
    post_init = Word.__post_init__
    unchecked = Word._unchecked

    def counting(word):
        built.append(word)
        post_init(word)

    def counting_unchecked(n, values):
        words = unchecked(n, values)
        built.extend(words)
        return words

    monkeypatch.setattr(Word, "__post_init__", counting)
    monkeypatch.setattr(Word, "_unchecked", counting_unchecked)
    return built
