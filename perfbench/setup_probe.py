"""Time one fresh interpreter's set-up: import spinsource, then load every config.

    python3 perfbench/setup_probe.py SRC_DIR CONFIG.json [CONFIG.json ...]

Loading is ``ExperimentConfig.from_json``: parse plus the dry build of
the source.  Prints the elapsed seconds.  A config that fails to load is
skipped here; the benchmark's own load counts it as failed.
"""

import sys
import time


def main(src: str, paths: list) -> float:
    start = time.perf_counter()
    sys.path.insert(0, src)
    from spinsource import ExperimentConfig

    for path in paths:
        try:
            ExperimentConfig.from_json(path)
        except Exception:  # judged by the benchmark process, not here
            pass
    return time.perf_counter() - start


if __name__ == "__main__":
    print(repr(main(sys.argv[1], sys.argv[2:])))
