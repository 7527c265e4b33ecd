"""Path set-up for the harness's own unit tests: ``import spine_paths`` first.

Not a ``conftest.py``: the paper benches one directory up do ``from
conftest import BENCH_SCALE``, and a second module of that name would
shadow theirs when ``pytest benchmarks/`` (CI's bench step) collects
both.  Tier-1 never comes here; its ``testpaths`` is ``tests/``.
"""

import os
import sys

_SPINE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (_SPINE, os.path.join(os.path.dirname(os.path.dirname(_SPINE)), "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)
