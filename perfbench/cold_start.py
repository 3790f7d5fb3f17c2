"""One cold alg2-build set-up, in the fresh interpreter this script runs in.

Times the import of the program and then the warm-up op on the seed's
warm-up deployment, which pays the kernels' lazy set-up; generating the
deployment is not timed.  Prints the measured seconds as the last line::

    python3 perfbench/cold_start.py SEED
"""

import sys
import time

started = time.perf_counter()

import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
warnings.simplefilter("error", DeprecationWarning)

import workloads  # noqa: E402  (imports the program)
from repro.obs import NullTracer  # noqa: E402

imported = time.perf_counter()
positions = workloads.alg2_warmup_positions(int(sys.argv[1]))
began = time.perf_counter()
workloads.alg2_op(positions, 0, NullTracer())
print(imported - started + time.perf_counter() - began)
