#!/usr/bin/env python3
"""Build the daemons and the benchmark runner from source, then run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Cargo builds into $CARGO_TARGET_DIR
(default .bench_build); build output goes to stderr, so the runner's
result JSON stays the last line of stdout. Run files (durable data
directories, span files) go to .bench_run/. --self-test runs every
workload of BENCHMARK.json at a tiny size, checks the metric names and
units it prints, and checks that a deliberately corrupted result fails
the run. It also covers the unscored `linearroad` workload (see NOTES.md).
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# runnable but not in BENCHMARK.json: too noisy on the reference machine
UNSCORED = ["linearroad"]
ROOT = os.path.dirname(HERE)


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        # the shipped daemons, from the repository workspace
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "dcserver", "--bin", "datacelld", "-p", "dccluster", "--bin", "dccluster"],
        # the runner, a workspace of its own
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL)
        if r.returncode != 0:
            sys.exit(f"run.py: build failed: {' '.join(cmd)}")
    return os.path.join(target, "release")


def runner(bin_dir, args, stderr=None):
    cmd = [os.path.join(bin_dir, "perfbench"), "--bin-dir", bin_dir,
           "--run-dir", os.path.join(ROOT, ".bench_run")] + args
    return subprocess.run(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          stderr=stderr, text=True)


def self_test(bin_dir):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    want = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for name in [w["name"] for w in bench["workloads"]] + UNSCORED:
        for trace in ("0", "1"):
            for corrupt in (False, True):
                args = ["--workload", name, "--seed", "7", "--seconds", "1",
                        "--trace", trace, "--tiny"] + (["--corrupt"] if corrupt else [])
                r = runner(bin_dir, args, stderr=subprocess.PIPE)
                tag = f"{name} trace={trace}{' corrupt' if corrupt else ''}"
                if r.returncode != 0 or not r.stdout.strip():
                    problems.append(f"{tag}: exit {r.returncode}: {r.stderr[-2000:]}")
                    continue
                res = json.loads(r.stdout.strip().splitlines()[-1])
                if corrupt:
                    if res["correct"] or res["failed"] == 0:
                        problems.append(f"{tag}: corrupted result was not caught")
                    continue
                if not res["correct"] or res["failed"] != 0:
                    problems.append(f"{tag}: output check failed ({res['failed']} failed)")
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if got != want[trace]:
                    missing = sorted(set(want[trace]) - set(got))
                    extra = sorted(set(got) - set(want[trace]))
                    wrong = sorted(k for k in got if k in want[trace] and got[k] != want[trace][k])
                    problems.append(f"{tag}: metrics differ: missing {missing} extra {extra} wrong unit {wrong}")
                print(f"self-test: {tag}: ok", file=sys.stderr)
    for p in problems:
        print(f"self-test: FAIL {p}", file=sys.stderr)
    print(json.dumps({"self_test": "pass" if not problems else "fail", "problems": len(problems)}))
    return 0 if not problems else 1


def main():
    bin_dir = build()
    if sys.argv[1:] == ["--self-test"]:
        return self_test(bin_dir)
    r = runner(bin_dir, sys.argv[1:])
    sys.stdout.write(r.stdout)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
