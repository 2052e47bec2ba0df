"""Test-session setup shared by every test directory.

Pins the BLAS and OpenMP pools to one thread unless the caller chose a
count. On a small shared host a multi-threaded BLAS oversubscribes the
cores under load, which makes the timing-ratio checks in
tests/test_acceptance.py depend on other processes. This runs before numpy
is first imported, which is when the pools read these variables.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
