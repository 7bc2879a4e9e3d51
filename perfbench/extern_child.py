"""Arithmetic-only child for the extern-spawn workload.

Speaks the extern_blackbox protocol: reads the static parameters, the time
grid and one row per input signal from standard input, and writes the
timestamps and one state row per timestamp.  The output
y = gain * (1 + u) - t / 40 uses only + - * /, so it does not depend on libm.
"""

import sys


def main() -> None:
    lines = sys.stdin.read().splitlines()
    (gain,) = [float(v) for v in lines[0].split()]
    times = [float(v) for v in lines[1].split()]
    signal = [float(v) for v in lines[2].split()]
    out = [" ".join(repr(t) for t in times)]
    out.extend(repr(gain * (1.0 + u) - t / 40.0) for t, u in zip(times, signal))
    sys.stdout.write("\n".join(out) + "\n")


if __name__ == "__main__":
    main()
