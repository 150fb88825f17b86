"""Session setup shared by the test modules."""

from hypothesis import configuration


def pytest_configure(config):
    # Even without an example database, hypothesis caches the constants it
    # mines from local source under its home directory (``.hypothesis/`` by
    # default); keep that cache inside pytest's own cache directory.
    cache = getattr(config, "cache", None)
    if cache is not None:
        configuration.set_hypothesis_home_dir(cache.mkdir("hypothesis"))
