"""Machine-speed reference for the benchmark's timings.

On a shared 2-vCPU cloud VM the speed of a vCPU changes with its neighbours'
load: a fixed single-threaded kernel took 0.55x to 1.0x of its slowest time,
in phases lasting seconds to tens of seconds, so the raw stage times of ten
runs of identical code spread by up to 27 % (quartile distance over median).  Every timed stage call therefore lies
between two runs of this fixed kernel, which does not use derivop, and a
stage time is reported as its ratio to the mean of those two kernel times,
multiplied by NOMINAL_S.  The kernel mixes the kinds of work the pipeline does, which
slow down by different factors: interpreted loops that assemble a sparse
matrix, a sparse LU factorization with solves, small dense products and
element-wise calls as in the networks, and larger BLAS products.
"""

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# About the median duration of one kernel run on the VM the benchmark was
# tuned on (Intel Xeon, 2 vCPUs, OpenBLAS 0.3.31 with one thread).
NOMINAL_S = 0.040

_GRID = 24
_REPEATS = 5
_rng = np.random.default_rng(0)
_W = _rng.standard_normal((50, 50)) / np.sqrt(50.0)
_M = _rng.standard_normal((120, 120))
_RHS = np.ones(_GRID * _GRID)


def _kernel():
    n = _GRID
    rows, cols, vals = [], [], []
    for i in range(n):
        for j in range(n):
            p = i * n + j
            diag = 0.1
            for ii, jj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if 0 <= ii < n and 0 <= jj < n:
                    rows.append(p)
                    cols.append(ii * n + jj)
                    vals.append(-1.0)
                    diag += 1.0
            rows.append(p)
            cols.append(p)
            vals.append(diag)
    lu = spla.splu(sp.csc_matrix((vals, (rows, cols)), shape=(n * n, n * n)))
    for _ in range(20):
        lu.solve(_RHS)
    x = np.ones(50)
    for _ in range(300):
        x = np.tanh(_W @ x) + 0.5 * x
    for _ in range(10):
        _M @ _M
    return x


def reference_seconds():
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    for _ in range(_REPEATS):
        _kernel()
    return time.perf_counter() - t0
