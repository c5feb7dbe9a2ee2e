"""Run one ffcount command with the per-layer wrappers installed.

    python3 perfbench/traced.py SPANS_PATH COMMAND_ID ffcount-argv...

Imports the CLI, wraps the traced functions (see layers.py), calls
ffcount.cli.main(argv) and exits with its code.  The report goes to
stdout unchanged; the spans and counters are kept in memory and written
to SPANS_PATH as JSON lines when the command ends.
"""

import sys

import ffcount.cli

import layers


def main() -> int:
    spans_path, cid, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = layers.Tracer(cid)
    tracer.install()
    try:
        return ffcount.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
