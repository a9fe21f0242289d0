#!/usr/bin/env python3
"""The repository benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root (any checkout of it). Every call configures
and builds the program and the benchmark runner from source (incrementally)
into a directory of this checkout's own under .bench_build/ (or
$CARGO_TARGET_DIR). Workloads, metrics and bounds are defined in
BENCHMARK.json; perfbench/README.md explains them.

Output: one "name value unit" line per metric, then, as the last line, one
JSON object {"correct", "attempted", "failed", "metrics"} holding every
end-to-end metric (--trace 0) or every per-layer metric (--trace 1). The
full report, with provenance, goes to .bench_out/. Exit code 0 when the
run completed and every output check passed, 1 when an output check
failed, 2 when the benchmark could not run, 3 when the run's measurement
is not valid (no result line; the report says why).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("nl_library", "serve_cold", "library_ingest")
# What the build reads, for the reported source digest.
SOURCE_DIRS = ("src", "tools", "bench", "tests", "examples", "scripts", "perfbench/src")
SOURCE_FILES = ("CMakeLists.txt", "perfbench/CMakeLists.txt")
RUNNER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    """A build directory of this checkout's own, also when $CARGO_TARGET_DIR
    is shared between checkouts."""
    key = hashlib.sha256(str(ROOT).encode()).hexdigest()[:12]
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / f"perfbench-{key}"


def source_files():
    files = [ROOT / f for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        files += [p for p in (ROOT / d).rglob("*") if p.is_file()]
    return sorted(files)


def build():
    """Configure and build the benchmark package; both steps are
    incremental, so an up-to-date tree costs a few seconds."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail("run from a checkout of the repository: src/ and CMakeLists.txt are missing")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    with open(log, "w") as f:
        for cmd in (["cmake", "-S", str(HERE), "-B", str(out)],
                    ["cmake", "--build", str(out), "-j", "4", "--target", "perfbench"]):
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail("build failed (log: %s)" % log)
    return out


def provenance(out, args):
    def git(*cmd):
        try:
            r = subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True, text=True, timeout=20)
            return r.stdout.strip() if r.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            return None

    commit = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    dirty = None
    if commit is not None:
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    digest = hashlib.sha256()
    for p in source_files():
        digest.update(str(p.relative_to(ROOT)).encode())
        digest.update(p.read_bytes())
    cpu = "unknown"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    info = json.loads((out / "build_info.json").read_text())
    flags = " ".join([info.get("cxx_flags", ""), info.get("compile_options", "").replace(";", " ")])
    march = [f for f in flags.split() if f.startswith("-march=")]
    return {
        "commit": commit,
        "dirty": dirty,
        "source_sha256": digest.hexdigest(),
        "build": info,
        "march": march[-1] if march else "none (compiler default)",
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "hardware_threads": os.cpu_count(),
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
    }


def selftest():
    out = build()
    return subprocess.run([str(out / "perfbench_selftest")]).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true", help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json is missing")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out = build()
    results = ROOT / ".bench_out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = results / f"work-{tag}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    report_path = workdir / "report.json"
    cmd = [str(out / "perfbench_runner"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", str(workdir),
           "--serve-bin", str(out / "repo" / "tools" / "chatpattern_serve"), "--report", str(report_path)]
    t0 = time.monotonic()
    with open(workdir / "runner.log", "w") as log:
        try:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, timeout=RUNNER_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            fail(f"{args.workload} did not finish in {RUNNER_TIMEOUT_S} s (log: {workdir / 'runner.log'})")
    if rc != 0 or not report_path.exists():
        sys.stderr.write((workdir / "runner.log").read_text()[-4000:])
        fail(f"{args.workload} failed (exit {rc})")
    report = json.loads(report_path.read_text())
    measured = report["metrics"]

    metrics = {}
    for m in wanted:
        if m["name"] in measured:
            value = measured[m["name"]]
        elif args.trace:
            value = 0.0  # a layer this workload does not exercise
        else:
            fail(f"{args.workload} did not measure end-to-end metric {m['name']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    report["provenance"] = provenance(out, args)
    report["workload"] = args.workload
    report["wall_s"] = time.monotonic() - t0
    if args.trace:
        shutil.copy(workdir / "spans.json", results / f"{tag}-spans.json")
    (results / f"{tag}.json").write_text(json.dumps(report, indent=2) + "\n")
    shutil.rmtree(workdir, ignore_errors=True)

    if report["correct"] and report["invalid"]:
        print(f"perfbench: invalid run, no metrics reported: {report['invalid']} "
              f"(report: {results / (tag + '.json')})", file=sys.stderr)
        return 3
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    for failure in report["check_failures"]:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({"correct": bool(report["correct"]), "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]), "metrics": metrics}))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
