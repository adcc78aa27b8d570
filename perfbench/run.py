#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The library and the benchmark
binary are built from source into $CARGO_TARGET_DIR (default .bench_build)
on first use. The last line of stdout is the result: one JSON object with
the keys correct, attempted, failed and metrics, whose metric names and
units are checked against BENCHMARK.json before it is printed. Reports,
traces and per-layer tables land in <build dir>/out.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(targets):
    """Configures once, then (re)builds `targets`; output goes to stderr."""
    out = build_dir()
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} not found next to perfbench/: not a source checkout", 3)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=False, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", *targets],
                            check=False, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail("build failed", 3)
    return out


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_digest():
    """SHA-256 over the build inputs, for checkouts that are not git trees."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in listed}, [w["name"] for w in spec["workloads"]]


def check_result(line, want):
    """Returns the problems with the result line (empty when it is valid);
    `want` maps every metric the line must carry to its unit."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return [f"last line is not JSON: {e}"]
    if not isinstance(result, dict):
        return ["last line is not a JSON object"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not isinstance(result.get("correct"), bool):
        problems.append("correct must be true or false")
    for key, low in (("attempted", 1), ("failed", 0)):
        value = result.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < low:
            problems.append(f"{key} must be a whole number >= {low}")
    if not isinstance(result.get("metrics"), dict):
        return problems + ["metrics must be an object"]
    if not all(isinstance(m, dict) for m in result["metrics"].values()):
        return problems + ["every metric must be an object"]
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        problems.append(f"metrics differ from BENCHMARK.json: missing {missing}, "
                        f"extra {extra}, wrong unit {wrong}")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"}:
            problems.append(f"metric {name} has keys {sorted(m)}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"metric {name} has no numeric value")
        if not NAME.fullmatch(name):
            problems.append(f"metric name {name!r} is invalid")
        if not UNIT.fullmatch(str(m.get("unit"))):
            problems.append(f"unit {m.get('unit')!r} of {name} is invalid")
    return problems


# What harness_test renders into $PERFBENCH_RESULT_SAMPLE.
SAMPLE = {"correct": True, "attempted": 12345, "failed": 0, "metrics": {
    "latency_ms": (1.2034567890123456, "ms"), "setup_s": (0.8127, "s"),
    "knn_qps": (4321.5, "queries/s"), "serve.failed": (0, "count"),
    "nn.phase_coverage": (0.97, "ratio")}}


def check_sample(line):
    """Round trip: the rendered line passes check_result and reads back as
    SAMPLE, every digit included. Returns the problems."""
    want = {name: unit for name, (_, unit) in SAMPLE["metrics"].items()}
    problems = check_result(line, want)
    if problems:
        return problems
    result = json.loads(line)
    for key in ("correct", "attempted", "failed"):
        if result[key] != SAMPLE[key] or type(result[key]) is not type(SAMPLE[key]):
            problems.append(f"{key} read back as {result[key]!r}")
    for name, (value, _) in SAMPLE["metrics"].items():
        if result["metrics"][name]["value"] != value:
            problems.append(f"{name} read back as {result['metrics'][name]['value']!r}")
    return problems


def selftest():
    """The helpers' unit tests, then the result-schema round trip."""
    out = build(["perfbench_harness_test"])
    sample = os.path.join(out, "result_sample.json")
    if os.path.exists(sample):
        os.remove(sample)
    env = dict(os.environ, PERFBENCH_RESULT_SAMPLE=sample)
    code = subprocess.run([os.path.join(out, "perfbench_harness_test")], env=env).returncode
    if not os.path.isfile(sample):
        fail("harness_test wrote no result sample")
    with open(sample) as f:
        problems = check_sample(f.read().strip())
    rejected = [
        "", "[]", "{}",
        '{"correct": true, "attempted": 1, "failed": 0}',
        '{"correct": true, "attempted": 1, "failed": 0, "metrics": {}, "extra": 1}',
        '{"correct": 1, "attempted": 1, "failed": 0, "metrics": {}}',
        '{"correct": true, "attempted": 0, "failed": 0, "metrics": {}}',
        '{"correct": true, "attempted": 1.5, "failed": 0, "metrics": {}}',
        '{"correct": true, "attempted": 1, "failed": -1, "metrics": {}}',
        '{"correct": true, "attempted": 1, "failed": 0, "metrics": '
        '{"bad name": {"value": 1, "unit": "s"}}}',
        '{"correct": true, "attempted": 1, "failed": 0, "metrics": '
        '{"x": {"value": 1, "unit": "per second"}}}',
        '{"correct": true, "attempted": 1, "failed": 0, "metrics": {"x": {"value": 1}}}',
        '{"correct": true, "attempted": 1, "failed": 0, "metrics": '
        '{"x": {"value": null, "unit": "s"}}}',
        '{"correct": true, "attempted": 1, "failed": 0, "metrics": '
        '{"x": {"value": 1, "unit": "s", "more": 2}}}',
        '{"correct": true, "attempted": 1, "failed": 0, "metrics": {}} trailing',
    ]
    for bad in rejected:
        if not check_result(bad, {}) or not check_result(bad, {"x": "s"}):
            problems.append(f"check_result accepted {bad!r}")
    for problem in problems:
        print(f"result schema: {problem}", file=sys.stderr)
    print(f"result schema round trip: {'FAILED' if problems else 'OK'}")
    sys.exit(code or (1 if problems else 0))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        selftest()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        fail("BENCHMARK.json not found at the checkout root", 3)
    _, workloads = expected_metrics(args.trace)
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload}; one of {workloads}")

    out = build(["coane_perfbench"])
    results = os.path.join(out, "out")
    os.makedirs(results, exist_ok=True)
    command = [os.path.join(out, "coane_perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--out", results,
               "--git-sha", git_sha(), "--source-digest", source_digest()]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {run.returncode}")
    want, _ = expected_metrics(args.trace)
    problems = check_result(lines[-1], want)
    if problems:
        fail("; ".join(problems))
    print("\n".join(lines))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
