#!/usr/bin/env python3
"""Builds the perfbench harness and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It configures an optimized (Release)
build of the library and the harness under .bench_build/, never the
tier-1 build/, then runs the harness. Before the harness output it
prints a `# meta` line with the host and build; the last line of stdout
is the JSON result. Everything it writes stays under .bench_build/.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("ingest_bulk", "route_churn", "batch_solve")
HARNESS_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(env):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} does not hold the rescq sources (CMakeLists.txt, src/)")
    if (BUILD / "CMakeCache.txt").is_file() and \
            cache_value("CMAKE_HOME_DIRECTORY") != str(HERE):
        shutil.rmtree(BUILD)  # configured for another checkout
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_cmd = ["cmake", "--build", str(BUILD), "--target",
                   "rescq_perfbench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr, env=env).returncode:
        fail("build failed")
    return BUILD / "rescq_perfbench"


def cache_value(key):
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def source_revision():
    """The git commit when there is one, else a hash of the sources."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        if pathlib.Path(top.stdout.strip()).resolve() == ROOT:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, check=True)
            return sha.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def compiler():
    path = cache_value("CMAKE_CXX_COMPILER")
    try:
        out = subprocess.run([path, "--version"], capture_output=True,
                             text=True, check=True).stdout
        return out.splitlines()[0].strip()
    except (OSError, subprocess.CalledProcessError, IndexError):
        return path


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    work = ROOT / ".bench_build"
    data = work / "data"
    tmp = work / "tmp"
    data.mkdir(parents=True, exist_ok=True)
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    binary = build(env)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace == "1",
        "cores": os.cpu_count(),
        "compiler": compiler(),
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "revision": source_revision(),
    }
    print("# meta " + json.dumps(meta, sort_keys=True), flush=True)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--data-dir", str(data)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                             timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness did not finish within {HARNESS_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").splitlines()
    if run.returncode != 0 or not lines:
        fail(f"harness exited with {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("harness did not print a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("harness printed an unexpected result object")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
