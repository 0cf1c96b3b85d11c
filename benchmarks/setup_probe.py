"""Set-up probe, run in a fresh interpreter by ``run.py``.

Usage: ``python3 setup_probe.py SRC_DIR "m,n;m,n;..."``.  Times the
import of ``derham`` from SRC_DIR and the building of the listed
elements, starting from cold ``lru_cache``s, and prints the seconds
scaled to the reference CPU speed (``speed.py``), then unscaled.
Interpreter start-up is not included.
"""

import sys
from time import perf_counter

import speed


def main() -> None:
    src, points = sys.argv[1], sys.argv[2]
    with speed.Sampler() as sampler:
        paused = sampler.paused
        started = perf_counter()
        sys.path.insert(0, src)
        from derham.element1d import build_element
        for point in points.split(";"):
            m, n = point.split(",")
            build_element(int(m), int(n))
        ended = perf_counter()
        paused = sampler.paused - paused
    raw = ended - started
    scaled = (raw - paused) * sampler.factor(started, ended)
    print(repr(scaled), repr(raw))


if __name__ == "__main__":
    main()
