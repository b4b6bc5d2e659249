#!/usr/bin/env python3
"""Build the release `tdq` binary and the benchmark, then run the benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload dup_warm --seed 1 --seconds 10 --trace 0

Workloads: dup_warm, cold_wp, batch_cold, session_churn (see
BENCHMARK.json). `--trace 0` prints the end-to-end metrics, `--trace 1` the
per-layer metrics of the traced in-process replay. The last stdout line is
the JSON result; the readable report goes to stderr.

Both binaries are built into $CARGO_TARGET_DIR (default `.bench_build`);
spans of traced runs are written to `<target dir>/perfbench-out/`.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A run (build excluded) must end within 180 s; stop it before that.
RUN_TIMEOUT_S = 170


def cargo_build(target_dir, args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    result = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if result.returncode != 0:
        sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("perfbench: no Cargo.toml at " + ROOT + "; run from a full checkout")
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    cargo_build(target_dir, ["--bin", "tdq"])
    cargo_build(target_dir, ["--manifest-path", os.path.join("perfbench", "Cargo.toml")])
    release = os.path.join(target_dir, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--tdq",
        os.path.join(release, "tdq"),
        "--out-dir",
        os.path.join(target_dir, "perfbench-out"),
    ]
    # Its own process group, so a timeout also stops the servers it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
