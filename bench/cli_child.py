"""One CLI command: ``python3 bench/cli_child.py <prefix> <0|1> <episafe args>``.

Starts a Speedometer, imports ``episafe.cli`` (timed), installs the tracer
when the second argument is 1, and runs ``episafe.cli.main`` on the
remaining arguments.  On the way out it writes its speed samples and the
import interval to <prefix>.speed.json and, when traced, its spans and
counters to <prefix>.trace.npz, then exits with main's code.  The cli_io
workload runs every command through this file.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import speed  # noqa: E402


def main() -> int:
    prefix, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    speedometer = speed.Speedometer()
    speedometer.start()
    t0 = time.perf_counter()
    import episafe.cli

    imported = [t0, time.perf_counter()]
    tr = None
    if traced:
        import tracer

        tr = tracer.Tracer()
        tr.install()
    try:
        return episafe.cli.main(argv)
    finally:
        if tr is not None:
            tr.uninstall()
            tr.save(Path(prefix + ".trace.npz"))
        speedometer.stop()
        speedometer.save(Path(prefix + ".speed.json"), imported=imported)


if __name__ == "__main__":
    sys.exit(main())
