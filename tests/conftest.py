"""One BLAS thread for the whole suite, set before any test module loads
numpy, as every `harlab` command sets it (cli.main): library calls made
here then give the command line's bytes, and pool workers do not
oversubscribe the cores.  Tests of the variables themselves build their
child processes' environments explicitly.

A random fuzz failure prints its `@reproduce_failure` line, so that the
draw can be replayed."""
import os

from hypothesis import settings

os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

settings.register_profile("harlab", print_blob=True)
settings.load_profile("harlab")


def use_cores(monkeypatch, n):
    """Make the sample pool, and so the grid's, see an affinity set of `n` cores."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
