"""One set-up probe: a fresh process that runs a workload's set-up and then
prints ``ready``.  run.py times it from spawn until that line (``setup_s``).
It imports only setups.py, whose directory Python puts first on the path;
run.py puts ``src/`` on PYTHONPATH.

    PYTHONPATH=src python3 bench/probe.py <workload> <seed> <workdir>
"""

import sys
from pathlib import Path

import setups

setups.SETUPS[sys.argv[1]](int(sys.argv[2]), Path(sys.argv[3]))
print("ready", flush=True)
