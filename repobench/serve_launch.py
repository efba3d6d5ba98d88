"""Start ``repro serve`` with the benchmark's wrappers installed.

Usage::

    python3 repobench/serve_launch.py trace SHIP_DIR [serve options...]
    python3 repobench/serve_launch.py probe PROBE_DIR [serve options...]

The wrappers go in before the daemon forks its warm workers, so every
worker has them.  With ``trace`` (the traced run) each worker ships its
layer totals to ``SHIP_DIR`` after every unit, and the daemon process
ships its own when it exits.  With ``probe`` (the untraced run) each
worker takes a host-speed slice before every unit and appends it to a
file in ``PROBE_DIR`` (see :func:`repobench.hostprobe.probing_workers`).
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def main(argv) -> int:
    from repro.__main__ import main as repro_main

    from repobench.hostprobe import probing_workers
    from repobench.layers import Recorder, traced

    mode, directory, serve_args = argv[0], argv[1], list(argv[2:])
    if mode == "probe":
        with probing_workers(directory):
            return repro_main(["serve"] + serve_args)
    recorder = Recorder(ship_dir=directory)
    with traced(recorder):
        code = repro_main(["serve"] + serve_args)
    recorder.ship()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
