"""Test-suite settings: every hypothesis test draws the same examples on
every run and keeps no example database, so tier-1 is deterministic and
writes no ``.hypothesis/`` directory into the checkout."""

import shutil
import tempfile
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
