#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload batch_curate --seed 1 --seconds 10 --trace 0

Run from the repository root. The script builds `perfbench/` (a Cargo
package of its own that uses the workspace crates through their public
APIs) into `$CARGO_TARGET_DIR` (default `.bench_build`), generates the
seed's inputs once into `.bench_work/` in a separate process, then runs
the measurement in a fresh process that only reads those files.

Standard output ends with three JSON lines: run metadata, the
benchmark's diagnostics, and the result object
`{"correct", "attempted", "failed", "metrics"}`. The exit code is
non-zero when the build fails, an input is missing, or any output check
fails. `--inject flip-feedback` flips one feedback judgement in the
replay (batch: in the last pipeline pass) to prove the gate catches it.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("batch_curate", "serve_explore", "serve_durable")
RUN_TIMEOUT_S = 170
# Bump when the generated input format changes, so cached inputs of an
# older layout are never read.
INPUTS_VERSION = "v1"


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_and_steal():
    """Load averages and /proc/stat steal ticks (all CPUs)."""
    try:
        with open("/proc/loadavg") as f:
            load = [float(x) for x in f.read().split()[:3]]
    except OSError:
        load = None
    steal = None
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        if fields and fields[0] == "cpu" and len(fields) > 8:
            steal = int(fields[8])
    except OSError:
        pass
    return {"loadavg": load, "steal_ticks": steal}


def filesystem(path):
    """Type of the filesystem holding `path`, from /proc/mounts."""
    real = os.path.realpath(path)
    best, fstype = "", None
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mnt = parts[1]
                inside = real == mnt or real.startswith(mnt.rstrip("/") + "/")
                if inside and len(mnt) >= len(best):
                    best, fstype = mnt, parts[2]
    except OSError:
        pass
    return fstype


def capture(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def commit():
    """The commit under test: from git when the checkout is a repository,
    else from `BENCH_COMMIT`, else unknown."""
    from_git = capture(["git", "rev-parse", "HEAD"]) if os.path.exists(".git") else None
    return from_git or os.environ.get("BENCH_COMMIT", "unknown")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--inject", choices=("flip-feedback",))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    for needed in ("perfbench/Cargo.toml", "crates", "vendor"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"{needed} not found: run from the repository root")

    env = dict(os.environ)
    # Untraced runs must not pay for the program's own tracing, and the
    # traced run records only the benchmark's spans.
    env.pop("ALEX_TRACE", None)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(root, env["CARGO_TARGET_DIR"])

    build = subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    exe = os.path.join(target, "release", "alexbench")

    work_root = os.path.join(root, ".bench_work")
    data = os.path.join(work_root, f"data-{INPUTS_VERSION}-s{args.seed}-t{args.seconds}")
    if not os.path.exists(os.path.join(data, "complete")):
        tmp = f"{data}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        gen = subprocess.run(
            [exe, "gen", "--seed", str(args.seed), "--seconds", str(args.seconds), "--dir", tmp],
            env=env,
            stdout=sys.stderr,
            timeout=RUN_TIMEOUT_S,
        )
        if gen.returncode != 0:
            shutil.rmtree(tmp, ignore_errors=True)
            fail("input generation failed")
        open(os.path.join(tmp, "complete"), "w").close()
        shutil.rmtree(data, ignore_errors=True)
        try:
            os.rename(tmp, data)
        except OSError:
            # Another run generated the same seed's inputs meanwhile.
            shutil.rmtree(tmp, ignore_errors=True)
            if not os.path.exists(os.path.join(data, "complete")):
                fail("could not place the generated inputs")

    work = os.path.join(work_root, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [
        exe, "run",
        "--workload", args.workload,
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--dir", data,
        "--work", work,
    ]
    if args.inject:
        cmd += ["--inject", args.inject]

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "rustc": capture(["rustc", "--version"]),
        "work_fs": filesystem(work),
        "alex_threads": os.environ.get("ALEX_THREADS"),
        "before": load_and_steal(),
    }
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work, ignore_errors=True)
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        meta["after"] = load_and_steal()
        meta["wall_s"] = time.monotonic() - started
    shutil.rmtree(work, ignore_errors=True)

    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        fail(f"measurement printed no result (exit {proc.returncode})")
    print(json.dumps({"meta": meta}))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(proc.returncode or 1)


if __name__ == "__main__":
    main()
