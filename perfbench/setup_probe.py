"""Time keplerlab's set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py SRC_DIR OUT_FILE

Set-up is the import, building the argument parser and one tiny warm-up
call (a 10-step ``simulate`` written to OUT_FILE).  Prints the seconds taken,
then the mean seconds of three calibration kernel runs right after it.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from keplerlab import cli  # noqa: E402

cli.build_parser()
status = cli.main(["simulate", "--method", "sv", "--steps", "10", "--out", sys.argv[2]])
elapsed = time.perf_counter() - start
if status != 0:
    sys.exit(f"warm-up call exited with {status}")
from calibration import kernel_seconds  # noqa: E402

print(repr(elapsed), repr(sum(kernel_seconds() for _ in range(3)) / 3))
