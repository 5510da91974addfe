import pytest

from kreinval import SamplerConfig, Signature

SIGNATURES = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]


@pytest.fixture(params=SIGNATURES, ids=lambda pq: f"p{pq[0]}q{pq[1]}")
def signature(request):
    return Signature(*request.param)


@pytest.fixture
def sampler_cfg():
    return SamplerConfig(seed=2026)


@pytest.fixture
def fresh_memos():
    """Empty the value memos before and after the test.

    The test then starts from cold memos, and a result it computed under a
    patched function is not left behind for later tests.
    """
    from kreinval import checks, spectral

    memos = (spectral._solve, spectral._admissible, checks._sum_spectra_by_value)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()
