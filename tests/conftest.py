"""Make the package importable when the suite runs from a source checkout,
and make property tests deterministic."""

import pathlib
import sys

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # derandomized: every run draws the same examples, in a bounded time
    settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=60, database=None)
    settings.load_profile("tier1")
