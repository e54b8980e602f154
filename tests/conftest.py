"""Test-suite settings and helpers: every hypothesis test draws the same
examples on every run and keeps no example database, so tier-1 is
deterministic and writes no ``.hypothesis/`` directory into the checkout;
``peak_bytes`` is the one memory probe of the memory tests."""

import shutil
import tempfile
import tracemalloc
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("gramspec", derandomize=True, deadline=None, database=None)
settings.load_profile("gramspec")


def pytest_configure(config):
    # hypothesis also caches the constants it reads from local modules
    # under its home directory, from test collection on; keep that in a
    # temporary directory removed at the end of the run
    home = Path(tempfile.mkdtemp(prefix="hypothesis-"))
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    set_hypothesis_home_dir(home)


def peak_bytes(fn, *args):
    """``(fn(*args), peak)``: the result and the most bytes traced by
    tracemalloc at any moment of the call, which numpy reports every array
    buffer to; arrays that exist before the call do not count."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
