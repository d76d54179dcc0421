"""One BLAS thread for the whole suite, set before any test module loads
numpy, as every `harlab` command sets it (cli.main): library calls made
here then give the command line's bytes, and pool workers do not
oversubscribe the cores.  Tests of the variables themselves build their
child processes' environments explicitly.

A random fuzz failure prints its `@reproduce_failure` line, so that the
draw can be replayed."""
import os

import numpy as np
from hypothesis import settings

os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

settings.register_profile("harlab", print_blob=True)
settings.load_profile("harlab")


def use_cores(monkeypatch, n):
    """Make the sample pool, and so the grid's, see an affinity set of `n` cores."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def anova_brute(x, labels):
    """Independent ANOVA-F oracle: direct loops over groups and features."""
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels)
    classes = sorted(set(labels.tolist()))
    g, n = len(classes), x.shape[0]
    out = []
    for col in range(x.shape[1]):
        v = x[:, col]
        grand = v.mean()
        ssb = ssw = 0.0
        for c in classes:
            grp = v[labels == c]
            ssb += grp.size * (grp.mean() - grand) ** 2
            ssw += ((grp - grp.mean()) ** 2).sum()
        if ssw == 0.0:
            out.append(0.0 if ssb == 0.0 else np.inf)
        else:
            out.append((ssb / (g - 1)) / (ssw / (n - g)))
    return np.array(out)
