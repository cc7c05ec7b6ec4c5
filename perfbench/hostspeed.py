"""A fixed reference kernel that tracks how fast the host runs right now.

On a shared host the same memoctrl call runs up to 1.7x slower while
neighbours are busy, and the process's CPU time slows with it (the host's
other load does not take the CPU away, it makes it slower), so neither wall
nor CPU time of a call separates the program from the host.  The benchmark
therefore times this kernel between the calls and scales the calls' median
wall time by `REF_S` over the kernel's median time.

The kernel mixes the work a memoctrl call does: sparse matrix-vector
products and vector updates on a 3-D Laplacian of 2,197 unknowns, gathers
from a 1.6 MB array (as sensitive to a neighbour's cache use as the
solver's sparse data), JSON and sorting in the interpreter, and
float-to-text formatting as in the CSV writer.  It uses numpy and scipy
only, never memoctrl, so a change to the program cannot move it.
"""

from __future__ import annotations

import json
import time

import numpy as np
import scipy.sparse as sp

# Nominal time of one kernel run, about its time on a quiet 2.0 GHz Xeon:
# scaled times read as seconds on a host where the kernel takes REF_S.
REF_S = 0.1


class ReferenceKernel:
    def __init__(self, n=13):
        eye = sp.identity(n, format="csr")
        d = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        lap = (sp.kron(sp.kron(d, eye), eye) + sp.kron(sp.kron(eye, d), eye)
               + sp.kron(sp.kron(eye, eye), d))
        self.a = (lap + 0.1 * sp.identity(n ** 3)).tocsr()
        self.b = np.linspace(0.0, 1.0, n ** 3)
        rng = np.random.default_rng(0)
        self.table = rng.random(200_000)
        self.order = rng.permutation(self.table.size)
        self.records = [{"i": i, "key": f"k{i}", "row": [0.5 * i + j for j in range(20)]}
                        for i in range(600)]

    def work(self):
        """Fixed work; returns a checksum so none of it is skipped."""
        x = np.zeros_like(self.b)
        acc = 0.0
        for _ in range(1000):   # damped Richardson: stays bounded
            r = self.b - self.a @ x
            acc += r @ r
            x += 0.08 * r
        for _ in range(20):
            acc += np.take(self.table, self.order).sum()
        for _ in range(2):
            acc += len(json.loads(json.dumps(self.records)))
        acc += sorted((str(i * 7919 % 1000), i) for i in range(15_000))[0][1]
        text = "\n".join(",".join(repr(float(v)) for v in row)
                         for row in np.resize(x, 5_000).reshape(-1, 10))
        return acc + len(text)

    def time(self):
        """Seconds of one run of the kernel."""
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0
