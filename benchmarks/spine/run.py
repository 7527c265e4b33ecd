"""Entry point of the spine benchmark (see README.md beside this file).

    python3 benchmarks/spine/run.py --workload job_cold --seed 1 --seconds 10 --trace 0
    python3 benchmarks/spine/run.py compare A.jsonl B.jsonl
"""

import os
import sys
import time

STARTED = time.perf_counter()  # set-up time counts from here, imports included

# One BLAS/OpenMP thread, set before numpy is first imported: the box has
# two cores and the remote workload gives the second one to the server.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [_HERE, os.path.join(os.path.dirname(os.path.dirname(_HERE)), "src")]

from spinebench.cli import main  # noqa: E402  (after the path and thread set-up)

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], started=STARTED))
