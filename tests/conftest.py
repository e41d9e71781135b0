"""One hypothesis profile for the whole suite: property tests draw the same
examples on every run, keep no example database, and have no per-example
deadline for a slow machine to miss. Hypothesis's other caches go to a
temporary directory that is removed at exit, so a test run leaves no
`.hypothesis/` in the checkout."""

import atexit
import shutil
import tempfile

from hypothesis import configuration, settings

settings.register_profile("rfcn", derandomize=True, database=None, deadline=None,
                          max_examples=25)
settings.load_profile("rfcn")

_home = tempfile.mkdtemp(prefix="rfcn-hypothesis-")
atexit.register(shutil.rmtree, _home, ignore_errors=True)
configuration.set_hypothesis_home_dir(_home)
