"""Run one flatlab command under the tracer and save its spans.

    python3 bench/traced_cli.py SPANS_FILE COMMAND [ARGS...]

Exits with the command's own exit code.
"""

import sys

from tracer import Tracer, write_spans


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import flatlab.cli

    tracer = Tracer()
    tracer.install()
    try:
        return flatlab.cli.main(argv)
    finally:
        tracer.uninstall()
        write_spans(spans_path, tracer.take())


if __name__ == "__main__":
    sys.exit(main())
