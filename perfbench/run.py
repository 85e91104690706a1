#!/usr/bin/env python3
"""Build and run the EpicLab end-to-end benchmark (see README.md here).

Usage, from the repository root:

    python3 perfbench/run.py --workload fleet-detailed --seed 1 \
        --seconds 20 --trace 0

The first call configures and builds perfbench/ (which compiles the
library from src/) in Release under .bench_build/perfbench; later calls
only re-run the incremental build. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. The exit status is
the benchmark's: 0 when every output checked out, non-zero otherwise.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no EpicLab sources at %s\n"
                         % os.path.join(root, "src"))
        return 2
    build = os.path.join(root, ".bench_build", "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "-j", jobs])
    try:
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S).returncode != 0:
                sys.stderr.write("perfbench: build failed: %s\n"
                                 % " ".join(cmd))
                return 2
        exe = os.path.join(build, "epiclab_perfbench")
        out_dir = os.path.join(build, "out")
        os.makedirs(out_dir, exist_ok=True)
        sys.stdout.flush()
        return subprocess.run([exe, "--out-dir", out_dir] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired as e:
        sys.stderr.write("perfbench: timed out: %s\n" % " ".join(e.cmd))
        return 3


if __name__ == "__main__":
    sys.exit(main())
