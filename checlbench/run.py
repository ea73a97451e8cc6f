#!/usr/bin/env python3
"""checlbench runner: builds CheCL and the benchmark from source, runs one
workload against a forked checl_proxyd, and prints the result.

    python3 checlbench/run.py --workload fig4-slice --seed 1 --seconds 10 --trace 0

Run it from the repository root.  The build goes to .bench_build/checlbench;
every file a run writes lives in a fresh directory under .bench_build/runs
that is removed when the run ends.  A traced run (--trace 1) also leaves a
Chrome trace-event file in .bench_build/traces/ (open it in Perfetto or
chrome://tracing).  The last line of stdout is the JSON result:
{"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "checlbench")
WORKLOADS = ("fig4-slice", "api-chatty", "ckpt-cycle")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark and checl_proxyd."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # The Makefile appears only once a configure succeeded.
        if not os.path.exists(os.path.join(BUILD, "Makefile")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           check=True, stdout=sys.stderr)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                        "checlbench", "checl_proxyd"],
                       check=True, stdout=sys.stderr)


def cache_value(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def stamp():
    commit = "unknown"
    try:
        # Never climb out of the checkout into some enclosing repository.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            commit = r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    compiler = cache_value("CMAKE_CXX_COMPILER")
    try:
        r = subprocess.run([compiler, "--version"], capture_output=True,
                           text=True, timeout=10)
        compiler = r.stdout.splitlines()[0] if r.stdout else compiler
    except (OSError, subprocess.SubprocessError):
        pass
    return {"commit": commit, "nproc": os.cpu_count(),
            "build_type": cache_value("CMAKE_BUILD_TYPE"),
            "compiler": compiler}


def expected_metrics(trace):
    """The metric names BENCHMARK.json promises for this mode."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_binary(args, run_dir, st):
    env = dict(os.environ)
    env["CHECL_PROXYD"] = os.path.join(BUILD, "checl", "proxy", "checl_proxyd")
    env["TMPDIR"] = run_dir
    cmd = [os.path.join(BUILD, "checlbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--dir", run_dir,
           "--stamp", json.dumps(st)]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    # Own process group: a timeout takes the proxies down with the benchmark.
    p = subprocess.Popen(cmd, env=env, cwd=run_dir, stdout=subprocess.PIPE,
                         text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        log("timed out after %d s" % RUN_TIMEOUT_S)
        return None
    finally:
        try:  # nothing of the run may outlive it
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if p.returncode != 0:
        log("checlbench exited with %d" % p.returncode)
        return None
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 1
    st = stamp()
    print("stamp " + json.dumps(st, sort_keys=True), flush=True)

    os.makedirs(os.path.join(BUILD_ROOT, "runs"), exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(BUILD_ROOT, "runs"))
    try:
        result = run_binary(args, run_dir, st)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if result is None:
        return 1

    want = expected_metrics(args.trace)
    got = list(result["metrics"])
    if want is not None and sorted(want) != sorted(got):
        log("metric set differs from BENCHMARK.json: missing %s, extra %s"
            % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
        return 1
    for name, m in result["metrics"].items():
        log("%-28s %16.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
