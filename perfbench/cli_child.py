"""Run one resokit CLI command with span tracing (traced cli-oneshot runs).

Usage: python3 perfbench/cli_child.py SPANS_OUT OP_ID ARG...

Behaves like ``python -m resokit.cli ARG...``: same output and exit code,
and an uncaught exception still ends the process with a traceback. The
spans of the call are written to SPANS_OUT when it ends.
"""

import sys

import spans


def main() -> int:
    out, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    from resokit import cli

    tracer = spans.Tracer()
    tracer.install()
    tracer.op = op_id
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        spans.save(tracer.arrays(), out)


if __name__ == "__main__":
    sys.exit(main())
