"""One BLAS thread for the whole suite, set before any test module loads
numpy, as every `harlab` command sets it (cli.main): library calls made
here then give the command line's bytes, and pool workers do not
oversubscribe the cores.  Tests of the variables themselves build their
child processes' environments explicitly."""
import os

os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
