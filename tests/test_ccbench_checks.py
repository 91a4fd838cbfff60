"""The benchmark's check tests, run with the rest of the suite: each
benchmark check must catch the wrong output planted for it. The tests live
in ``ccbench/test_checks.py``; this module re-exports them so they run
here too."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "ccbench"))
from test_checks import *  # noqa: E402,F401,F403
