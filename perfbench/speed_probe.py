"""Fixed probe of the host's current speed.

    python perfbench/speed_probe.py

It does a fixed amount of the kind of work the workloads do: start the
interpreter, import numpy, then a loop of small-array numpy calls, float
arithmetic, small objects and ``repr`` formatting.  It does not import cfkit,
so no change to the program can move its time.  ``run.py`` runs it before
every timed workload run and scales every time metric by ``PROBE_REF_S``
over the probe's median CPU time; see README.md, "Speed normalisation".
"""

import numpy as np

ROUNDS = 30_000


def main():
    x = np.linspace(0.0, 1.0, 16)
    acc = 0.0
    lines = []
    for i in range(ROUNDS):
        y = np.minimum(x, x * 0.5 + (i % 97) * 1e-3)
        acc = (acc + float(y.sum()) * 1e-3) % 1.0
        row = {"i": i, "acc": acc, "pair": (acc, 1.0 - acc)}
        lines.append(f"{row['acc']!r},{row['pair'][1]!r},{row['i']}")
    if len("\n".join(lines)) <= ROUNDS:
        raise SystemExit("probe produced no output")


if __name__ == "__main__":
    main()
