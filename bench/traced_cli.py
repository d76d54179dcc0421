"""Run one harlab command with the benchmark's tracer installed.

    python bench/traced_cli.py SPANS_OUT PARENT_SPAN <harlab arguments>

Behaves like `python -m harlab.cli <harlab arguments>` and exits with its
code; when the command ends, writes its spans to SPANS_OUT as JSON. The
root span is `cli.<command>`, parented to PARENT_SPAN in the benchmark.
"""
import os
import sys

from env import pin_blas_threads


def main() -> int:
    spans_out, parent, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    pin_blas_threads()
    from harlab import cli
    from tracer import Tracer

    tracer = Tracer(f"p{os.getpid()}", root_parent=parent).install()
    span = tracer.begin(f"cli.{argv[0]}")
    try:
        return cli.main(argv)
    finally:
        tracer.end(span)
        tracer.uninstall()
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main())
