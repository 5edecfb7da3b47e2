"""Set-up probe: ``python3 bench/setup_probe.py <workload> <seed>``.

Imports episafe, generates the workload's inputs from the seed, parses
every generated scenario document, then prints ``ready``.  The benchmark
times this process from spawn to that line, which is the set-up a fresh
interpreter pays before the first operation.  A second line carries the
probe's speed samples (speed.py) as JSON.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import speed  # noqa: E402


def main() -> None:
    speedometer = speed.Speedometer()
    speedometer.start()
    from episafe.scenarios import parse_scenario_text

    import workloads

    cycles = workloads.build(sys.argv[1], int(sys.argv[2]))
    for text in workloads.scenario_documents(cycles):
        parse_scenario_text(text)
    print("ready", flush=True)
    speedometer.stop()
    print(json.dumps({"t": list(speedometer.times), "v": list(speedometer.speeds)}))


if __name__ == "__main__":
    main()
