"""Time one fresh-process set-up: import mospaces, then one warm-up op.

run.py starts this in a child process several times and reports the median
scaled CPU time, so every sample pays the full import.  Interpreter start-up
is not counted.  After the timed part the process runs the reference passes
of speed.py that scale its CPU time to the nominal machine speed.

Usage: python3 setup_probe.py SRC_DIR ARGV_JSON
Prints one JSON line: {"rc": <exit code of the op>, "setup_cpu_s": <seconds>,
"setup_wall_s": <seconds>, "reference_cpu_s": [<seconds of each pass>]}.
"""

import contextlib
import io
import json
import sys
import time

import speed


def main() -> int:
    src, argv = sys.argv[1], json.loads(sys.argv[2])
    c0, t0 = time.process_time(), time.perf_counter()
    sys.path.insert(0, src)
    from mospaces.cli import main as cli_main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli_main(argv)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    ref = [speed.reference_pass() for _ in range(speed.WINDOW)]
    print(json.dumps({"rc": rc, "setup_cpu_s": cpu, "setup_wall_s": wall, "reference_cpu_s": ref}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
