"""Set-up time of kuniform in a fresh interpreter.

Usage: python3 -S setup_probe.py <src dir>

Times the import of kuniform and its command line, plus the first loads
of its static data through public calls, and prints the seconds.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import kuniform  # noqa: E402
import kuniform.cli  # noqa: E402,F401
from kuniform import bounds  # noqa: E402

bounds.recurrence_specs()
bounds.known_ame_nonexistence(7, 3)
print(time.perf_counter() - start)
