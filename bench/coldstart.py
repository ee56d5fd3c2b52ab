"""One cold set-up sample, and the machine-speed probe every time is scaled by.

    python3 bench/coldstart.py WORKLOAD SEED ROUNDS

Prints the seconds a fresh interpreter takes to import qhyper and make the
workload's inputs, scaled to nominal machine speed.  Before the clock starts
only `sys`, `os` and `time` are touched, all three loaded by interpreter
start-up, so every module qhyper imports, the standard library's included,
is paid inside the sample.  Interpreter start-up itself is not counted, and
neither is the import of the benchmark's own `workloads` module.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Median of `speed_probe()` on the reference machine (Python 3.11, 2 cores).
#: A shared host's speed can swing by a quarter within seconds, so every time
#: reported is scaled to the machine speed at which the probe takes this long.
PROBE_NOMINAL_S = 0.001

#: Probes run right after a set-up sample, to scale it.
SETUP_SCALE_PROBES = 5


def speed_probe() -> float:
    """Seconds for a fixed exact-rational quotient of q-Pochhammer products,
    the shape of qhyper's hot loops, with numerators that grow to about 4200 bits."""
    from fractions import Fraction  # after `import qhyper` in a cold sample

    t0 = time.perf_counter()
    q, aq, acc = Fraction(29, 47), Fraction(-5, 3), Fraction(1)
    for k in range(1, 40):
        acc = acc * (1 - aq) / (1 - q**k)
        aq *= q
    return time.perf_counter() - t0


def import_qhyper():
    if not os.path.isfile(os.path.join(SRC, "qhyper", "__init__.py")):
        raise SystemExit(f"qhyper sources not found under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    import qhyper
    import qhyper.cli  # noqa: F401  (cli is not imported by the package)

    return qhyper


def main(argv) -> int:
    workload, seed, rounds = argv[0], int(argv[1]), int(argv[2])
    t0 = time.perf_counter()
    import_qhyper()
    taken = time.perf_counter() - t0
    import workloads  # the script's own directory is on the path

    t0 = time.perf_counter()
    workloads.make_ops(workload, seed, rounds)
    taken += time.perf_counter() - t0
    probes = sorted(speed_probe() for _ in range(SETUP_SCALE_PROBES))
    print(repr(taken * PROBE_NOMINAL_S / probes[len(probes) // 2]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
