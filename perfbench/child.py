"""Fresh-interpreter measurements: set-up time and peak memory.

    python3 perfbench/child.py SRC_DIR SCRIPT [SCRIPT ...]

Imports proofun from SRC_DIR, checks each script through the CLI code path
and prints one JSON object: `setup_s`, the time from before `import
proofun` to the end of the first script, the CLI result of every script,
`peak_rss_mb`, the process's maximum resident set size, and the median
speed-probe times measured before and after (speed.py).
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time

from checkrun import run_cli
from speed import probe

PROBES = 3


def main() -> None:
    src, paths = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, src)
    before = statistics.median(probe() for _ in range(PROBES))
    start = time.perf_counter()
    from proofun.repl import main as cli
    results, setup_s = [], 0.0
    for path in paths:
        code, out, err, _elapsed = run_cli(cli, path)
        if not results:
            setup_s = time.perf_counter() - start
        results.append([code, out, err])
    after = statistics.median(probe() for _ in range(PROBES))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(json.dumps({"setup_s": setup_s, "peak_rss_mb": peak_kb / 1024,
                      "probe_before_s": before, "probe_after_s": after,
                      "results": results}))


if __name__ == "__main__":
    main()
