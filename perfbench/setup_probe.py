"""Time ``import tensorgraphs`` plus the lazy one-time work of a workload.

Run in a fresh interpreter, as a CLI user would pay it:
``python3 setup_probe.py <src-dir> <workload>`` prints the CPU seconds,
calibrated for the host's speed (see calibrate.py), and then the raw ones.
"""

import sys
import time

import calibrate


def lazy_setup(workload: str, tg) -> None:
    """The package's cached one-time searches that the workload triggers."""
    if workload in ("invariants", "surgery"):
        tg.build("o")  # the distinguished-edge search behind qg, kg, qgbc
    if workload == "surgery":
        tg.build("tg", g=1)  # the gadget search behind tg and l
        tg.separator_p()


if __name__ == "__main__":
    src, workload = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    # The host's speed around the set-up: kernel runs before and after it.
    ticks = [calibrate.time_kernel() for _ in range(3)]
    start = time.process_time()  # CPU time, as for items (see run.py)
    import tensorgraphs
    import tensorgraphs.cli

    lazy_setup(workload, tensorgraphs)
    took = time.process_time() - start
    ticks += [calibrate.time_kernel() for _ in range(3)]
    slowdown = calibrate.median(ticks) / calibrate.REFERENCE_S
    print(repr(took / slowdown), repr(took))
