#!/usr/bin/env python3
"""Builds `cosched` and the benchmark, runs one workload, stamps the result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout of the repository. Build output
goes to stderr and to `$CARGO_TARGET_DIR` (default `.bench_build` at the
root of the checkout). The last line of stdout is the JSON result. Every
result is also written, with its provenance (cores, git revision, source
digest, rustc version, date, workload and seed), under
`$CARGO_TARGET_DIR/perfbench-results/`. See perfbench/README.md.
"""

import argparse
import datetime
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["lockstep_small", "solve_large", "churn_durable"]
# The benchmark itself must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def target_dir():
    configured = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(configured)
    return path if path.is_absolute() else (Path.cwd() / path).resolve()


def build(target):
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "experiments").is_dir():
        fail(f"{ROOT} holds no repository sources to build the server from")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "experiments", "--bin", "cosched"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def output_of(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the server and benchmark are built from,
    so a result is tied to its code even outside a git checkout."""
    digest = hashlib.sha256()
    roots = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", ROOT / "src", ROOT / "crates", ROOT / "perfbench"]
    files = []
    for root in roots:
        if root.is_file():
            files.append(root)
        elif root.is_dir():
            files.extend(
                p for p in root.rglob("*")
                if p.is_file() and "target" not in p.relative_to(ROOT).parts
            )
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, workload):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": output_of(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
        "rustc": output_of(["rustc", "--version"]),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_one(args, target, workload):
    """Runs the benchmark binary once; returns (result, table lines)."""
    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--cosched", str(target / "release" / "cosched"),
        "--work-dir", str(target / "perfbench-work" / workload),
    ]
    # A session of its own, so a timeout can stop the server child too.
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = out.splitlines()
    if child.returncode != 0 or not lines:
        fail(f"{workload}: benchmark exited with code {child.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: last line is not a JSON result: {lines[-1]!r}")
    return result, lines[:-1]


def record(args, target, workload, result, table):
    stamp = provenance(args, workload)
    results = target / "perfbench-results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{stamp['date'].replace(':', '')}-{workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(
        json.dumps({"provenance": stamp, "result": result, "table": table}, indent=1) + "\n"
    )
    print("\n".join(table))
    print("# provenance " + json.dumps(stamp, sort_keys=True))
    print(f"# record {results / name}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    target = target_dir()
    build(target)
    if args.workload != "all":
        result, table = run_one(args, target, args.workload)
        record(args, target, args.workload, result, table)
        print(json.dumps(result))
        return

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    summary = []
    for workload in WORKLOADS:
        result, table = run_one(args, target, workload)
        record(args, target, workload, result, table)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        error_ratio = result["failed"] / max(result["attempted"], 1)
        summary.append((workload, "error_ratio", error_ratio, "ratio"))
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
            summary.append((workload, name, metric["value"], metric["unit"]))
    print(f"# {'workload':<16} {'metric':<34} {'value':>16}  unit")
    for workload, name, value, unit in summary:
        print(f"# {workload:<16} {name:<34} {value:>16.4f}  {unit}")
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
