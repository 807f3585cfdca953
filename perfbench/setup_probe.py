"""Time import plus a first CLI call in a fresh interpreter.

    python3 perfbench/setup_probe.py SRC_DIR ARGV_JSON

Prints the seconds from interpreter start-up of this script to the end of
``entredist.cli.main(ARGV)``, and exits with the CLI's exit code.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    from entredist import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(json.loads(sys.argv[2]))
    print(time.perf_counter() - START)
    return code


if __name__ == "__main__":
    sys.exit(main())
