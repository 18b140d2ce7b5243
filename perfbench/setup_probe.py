"""Time what a fresh CLI process pays before any work: importing fluxloop
and parsing the workload's documents.  Only hostspeed (which needs nothing
but ``time``) is imported first, so the standard-library modules fluxloop
needs are part of the measurement.

    python3 perfbench/setup_probe.py SRC_DIR CONFIG_JSON [PROGRAM_JSON]

Prints the host seconds, corrected for host speed (hostspeed.py), and the
raw wall seconds, on its last stdout line.
"""

import sys

from hostspeed import Bracket

if __name__ == "__main__":
    src, config_path, *program_path = sys.argv[1:]
    sys.path.insert(0, src)
    with Bracket() as timing:
        import fluxloop
        import fluxloop.cli

        with open(config_path) as f:
            fluxloop.core.parse_config(f.read())
        for path in program_path:
            with open(path) as f:
                fluxloop.memory.parse_program(f.read())
    if not fluxloop.__file__.startswith(src):
        sys.exit(f"fluxloop was imported from {fluxloop.__file__}, not from {src}")
    print(timing.seconds, timing.wall)
