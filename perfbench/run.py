#!/usr/bin/env python3
"""Benchmark of the yardstick CLI, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --record-digests 0-63,1009

Run from the root of a yardstick checkout. The first call builds the CLI
and the two helpers (Release) into $CARGO_TARGET_DIR, default .bench_build.

--trace 0 times the `yardstick` binary: one child process per invocation,
one at a time, each with --threads 2, for about S seconds, and reports
setup_s (median set-up repetition) and wall_s (median invocation), each
scaled by a calibration loop timed next to it, and peak_rss_mb (largest
per-child ru_maxrss). Every invocation is checked: exit code 0, no
"truncated" flag, and the digest of its normalised JSON equal to the one
recorded in digests.json for the workload and seed.

--trace 1 runs perfbench_layers, which makes the CLI's library calls in
process, each in its own span, and reports the per-layer metrics.

The last line of stdout is the JSON result; see README.md for the method.
"""
import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREADS = "2"
SPEC = "{spec}"
MIN_INVOCATIONS = 3
CHILD_TIMEOUT_S = 120
HARD_LIMIT_S = 140
# The calibration loop's time on a fast vCPU of the machine the bounds were
# set on. Timings are reported at that speed; see README.md, Steadiness.
REFERENCE_PROBE_S = 0.010

# Why each workload exists and which layer it bypasses: README.md.
WORKLOADS = {
    "snapshot-review": {
        "args": ["fattree", "--k", "16", "--suite", "final", "--json", "--threads", THREADS],
        "setup_reps": 6,
    },
    "failure-sweep": {
        "args": ["scenarios", "regional", "--datacenters", "2", "--pods", "2", "--tors", "8",
                 "--acl", "--transforms", "2", "--suite", "final", "--scenario-spec", SPEC,
                 "--json", "--threads", THREADS],
        "scenarios": 4,
        "setup_reps": 10,
    },
    "suite-optimize": {
        "args": ["optimize", "fattree", "--k", "10", "--suite", "fattree", "--minimize",
                 "--gap-report", "--json", "--threads", THREADS],
        "setup_reps": 15,
    },
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "routing.bgp_s": "s", "routing.bgp_rounds": "count", "routing.fib_s": "s",
    "routing.rules": "count", "routing.bytes_per_rule": "B",
    "dataplane.index_s": "s", "dataplane.index_nodes": "count",
    "nettest.run_s": "s", "nettest.checks": "count", "nettest.trace_rules": "count",
    "nettest.trace_locations": "count",
    "engine.match_sets_s": "s", "engine.covered_sets_s": "s", "engine.merge_s": "s",
    "engine.worker_wait_s": "s", "bdd.arena_nodes": "count", "bdd.imported_nodes": "count",
    "bdd.cache_hit_rate": "ratio", "engine.rss_mb": "MB",
    "report.report_s": "s", "report.metrics_s": "s", "report.render_s": "s",
    "report.rss_mb": "MB",
    "scenario.eval_s": "s", "scenario.routing_s": "s", "scenario.self_s": "s",
    "scenario.rules_lost": "count", "scenario.unreachable_atus": "count",
    "optimize.matrix_s": "s", "optimize.matrix_wait_s": "s", "optimize.rerun_s": "s",
    "optimize.gap_report_s": "s", "optimize.kept_tests": "count",
    "optimize.uncovered_rules": "count",
    "obs.overhead_pct": "%", "obs.unattributed_s": "s",
}


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


class Tools:
    """Builds (incrementally) and locates the CLI and the helpers."""

    def __init__(self, targets):
        self.cmake = build_dir() / "cmake"
        self.cmake.mkdir(parents=True, exist_ok=True)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps = [["cmake", "--build", str(self.cmake), "--target", *targets, "-j", jobs]]
        if not (self.cmake / "CMakeCache.txt").exists():
            steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(self.cmake),
                             "-DCMAKE_BUILD_TYPE=Release"])
        log = build_dir() / "build.log"
        with open(log, "w") as out:
            for cmd in steps:
                if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                    fail(f"build failed: {' '.join(cmd)}\n{log.read_text()[-4000:]}")
        self.cli = self.cmake / "yardstick" / "tools" / "yardstick"
        self.setup = self.cmake / "perfbench_setup"
        self.layers = self.cmake / "perfbench_layers"


def work_dir(sub):
    path = build_dir() / sub
    path.mkdir(parents=True, exist_ok=True)
    return path


def helper(cmd):
    proc = subprocess.run([str(c) for c in cmd], capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        fail(f"{Path(str(cmd[0])).name} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def workload_args(name, seed, tools):
    """The CLI arguments of a workload; failure-sweep's spec is drawn from the seed."""
    w = WORKLOADS[name]
    if SPEC not in w["args"]:
        return list(w["args"])
    spec = work_dir("inputs") / f"{name}-seed{seed}.spec"
    args = [str(spec) if a == SPEC else a for a in w["args"]]
    helper([tools.setup, "spec", seed, w["scenarios"], spec, "--", *args])
    return args


def invoke(cmd, out_path):
    """Runs one CLI child; returns (wall seconds, peak RSS MB, exit code)."""
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        child = subprocess.Popen([str(c) for c in cmd], stdout=out, stderr=subprocess.DEVNULL)
        timer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
        timer.start()
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        timer.cancel()
    child.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, child.returncode


def truncated(node):
    if isinstance(node, dict):
        return node.get("truncated") is True or any(truncated(v) for v in node.values())
    if isinstance(node, list):
        return any(truncated(v) for v in node)
    return False


def digest(data):
    """SHA-256 of the JSON normalised as CI does: no coverage.timings, every
    per-test "seconds" zeroed, keys sorted."""
    data = json.loads(json.dumps(data))
    if isinstance(data.get("coverage"), dict):
        data["coverage"].pop("timings", None)
    for test in data.get("tests", []):
        if "seconds" in test:
            test["seconds"] = 0.0
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def output_json(path):
    """The JSON document the CLI printed, or None when there is none."""
    raw = Path(path).read_text()
    try:
        return json.loads(raw[raw.index("{"):])
    except ValueError:
        return None


def check(out_path, code, expected):
    """None when the invocation is correct, else what went wrong."""
    if code != 0:
        return f"exit code {code}"
    data = output_json(out_path)
    if data is None:
        return "output is not JSON"
    if truncated(data):
        return "a truncated flag is set"
    got = digest(data)
    if got != expected:
        return f"digest {got[:16]} differs from the expected {expected[:16]}"
    return None


def load_digests():
    return json.loads((HERE / "digests.json").read_text())


def expected_digest(name, seed, args, tools):
    """The recorded digest for (workload, seed); for a seed never recorded,
    the digest of the same invocation at one thread, since yardstick's output
    is identical at any thread count."""
    recorded = load_digests()["workloads"].get(name, {})
    for key in ("any", str(seed)):
        if key in recorded:
            return recorded[key], "recorded"
    out = work_dir("inputs") / f"{name}-seed{seed}.reference.json"
    return reference_digest(args, "1", out, tools), "one-thread reference run"


def reference_digest(args, threads, out, tools):
    """The digest of one invocation of `args` at `threads` threads, which
    must succeed."""
    run = list(args)
    run[run.index("--threads") + 1] = threads
    _, _, code = invoke([tools.cli, *run], out)
    data = output_json(out) if code == 0 else None
    if data is None or truncated(data):
        fail(f"cannot take the digest of {' '.join(run)}: exit code {code}")
    return digest(data)


def machine(tools):
    """What every result is stored with: cores, compiler, build type, sources."""
    compiler, build_type = "unknown", "unknown"
    for path in (tools.cmake / "CMakeFiles").glob("*/CMakeCXXCompiler.cmake"):
        text = path.read_text()
        found = [re.search(rf'set\(CMAKE_CXX_COMPILER_{k} "([^"]*)"\)', text) for k in ("ID", "VERSION")]
        compiler = " ".join(m.group(1) for m in found if m)
    cache = (tools.cmake / "CMakeCache.txt").read_text()
    match = re.search(r"^CMAKE_BUILD_TYPE:STRING=(.*)$", cache, re.M)
    if match:
        build_type = match.group(1)
    sources = hashlib.sha256()
    for path in sorted([ROOT / "CMakeLists.txt", *ROOT.glob("src/**/*"), *ROOT.glob("tools/**/*")]):
        if path.is_file():
            sources.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "compiler": compiler, "build_type": build_type,
            "git_sha": sha, "source_sha256": sources.hexdigest()[:16], "threads": int(THREADS)}


def setup_batch(reps, args, tools):
    """`reps` set-up repetitions between two calibration loops."""
    return json.loads(helper([tools.setup, "setup", reps, "--", *args]).splitlines()[-1])


def timed_run(name, seed, seconds, tools):
    args = workload_args(name, seed, tools)
    expected, source = expected_digest(name, seed, args, tools)
    reps = WORKLOADS[name]["setup_reps"]
    out = work_dir("outputs") / f"{name}-seed{seed}.json"
    # Set-up batches run between the invocations, so a slow phase of the
    # machine cannot hold all set-up repetitions. Each timing is kept with
    # the calibration-loop time next to it: a set-up repetition with the mean
    # of its batch's two loops, an invocation with the mean of the loops that
    # end the batch before it and start the batch after it.
    walls, failed_walls, peaks, setups, problems = [], [], [], [], []
    start = time.perf_counter()
    batch = setup_batch(reps, args, tools)
    setups += [(s, sum(batch["probe_s"]) / 2) for s in batch["setup_s"]]
    while True:
        began = time.perf_counter()
        wall, peak, code = invoke([tools.cli, *args], out)
        problem = check(out, code, expected)
        peaks.append(peak)
        after = setup_batch(reps, args, tools)
        sample = (wall, (batch["probe_s"][1] + after["probe_s"][0]) / 2)
        if problem:
            problems.append(problem)
            failed_walls.append(sample)
        else:
            walls.append(sample)
        batch = after
        setups += [(s, sum(batch["probe_s"]) / 2) for s in batch["setup_s"]]
        elapsed = time.perf_counter() - start
        attempted = len(walls) + len(problems)
        if attempted >= MIN_INVOCATIONS and elapsed + (time.perf_counter() - began) > seconds:
            break
        if elapsed > HARD_LIMIT_S:
            break
    for problem in sorted(set(problems)):
        print(f"{name} seed {seed}: invocation failed: {problem}", file=sys.stderr)
    # When every invocation failed the result is marked incorrect; its wall_s
    # still has to be a number.
    timed = walls or failed_walls
    metrics = {
        "setup_s": scaled_median(setups),
        "wall_s": scaled_median(timed),
        "peak_rss_mb": max(peaks),
    }
    attempted = len(walls) + len(problems)
    probes = [p for _, p in timed]
    summary = (f"{name} seed {seed}: setup_s {metrics['setup_s']:.6f} s (scaled median of "
               f"{len(setups)}; fastest unscaled {min(s for s, _ in setups):.6f} s), "
               f"wall_s {metrics['wall_s']:.6f} s (scaled median of {len(timed)}; unscaled median "
               f"{statistics.median(w for w, _ in timed):.6f} s, fastest {min(w for w, _ in timed):.6f} s), "
               f"calibration loop {min(probes) * 1e3:.2f}-{max(probes) * 1e3:.2f} ms, "
               f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB (largest of {len(peaks)}), "
               f"error_rate {len(problems) / attempted:.3f} ratio "
               f"({len(problems)}/{attempted} failed; expected digest: {source})")
    samples = {"setup_s": setups, "wall_s": walls, "peak_rss_mb": peaks, "problems": problems,
               "reference_probe_s": REFERENCE_PROBE_S}
    return metrics, attempted, len(problems), summary, samples


def scaled_median(samples):
    """The median of (time, calibration-loop time) samples, each time scaled
    to the reference speed: time × REFERENCE_PROBE_S ÷ loop time."""
    return statistics.median(t * REFERENCE_PROBE_S / p for t, p in samples)


def traced_run(name, seed, seconds, tools):
    args = workload_args(name, seed, tools)
    expected, source = expected_digest(name, seed, args, tools)
    out_dir = work_dir("trace")
    runs, problems = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        tag = f"{name}-seed{seed}-r{len(runs) + len(problems)}"
        proc = subprocess.run([str(tools.layers), str(out_dir), tag, "--", *args],
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        problem = (f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"
                   if proc.returncode != 0 else check(out_dir / f"{tag}.output.json", 0, expected))
        if problem:
            problems.append(problem)
        else:
            runs.append((tag, json.loads(proc.stdout.strip().splitlines()[-1])))
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - began) > seconds or elapsed > HARD_LIMIT_S:
            break
    for problem in problems:
        print(f"{name} seed {seed}: traced run failed: {problem}", file=sys.stderr)
    if not runs:
        fail("no traced run succeeded")
    # The whole timeline of the fastest traced run, so differences between
    # its layers stay coherent.
    tag, best = min(runs, key=lambda run: run[1]["traced_s"])
    print((out_dir / f"{tag}.layers.txt").read_text())
    # Fastest traced pass against fastest untraced pass, over the same runs:
    # taking both from the run picked for its fast traced pass would bias it.
    traced = min(r["traced_s"] for _, r in runs)
    untraced = min(r["untraced_s"] for _, r in runs)
    measured = {**best["metrics"], "obs.overhead_pct": (traced - untraced) / untraced * 100.0}
    metrics = {}
    for key in PER_LAYER:
        if key not in measured:
            print(f"warning: the traced run measured no {key}", file=sys.stderr)
        metrics[key] = measured.get(key, 0.0)
    probed = set(best["probed"])
    pass_times = sorted(((v, k) for k, v in metrics.items()
                         if PER_LAYER[k] == "s" and k not in probed and not k.startswith("obs.")),
                        reverse=True)
    summary = (f"{name} seed {seed}: fastest of {len(runs)} traced run(s), artifacts "
               f"{out_dir}/{tag}.{{trace.json,layers.txt}}; largest layer times in the pass: "
               + ", ".join(f"{k} {v:.4f} s" for v, k in pass_times[:3])
               + f"; obs.overhead_pct {metrics['obs.overhead_pct']:.2f} % over {len(runs)} run(s)"
               + f"; expected digest: {source}")
    samples = {"runs": [r for _, r in runs], "problems": problems}
    return metrics, len(runs) + len(problems), len(problems), summary, samples


def run_workload(name, seed, seconds, trace, tools):
    measure = traced_run if trace else timed_run
    metrics, attempted, failed, summary, samples = measure(name, seed, seconds, tools)
    units = PER_LAYER if trace else END_TO_END
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine(tools), "result": result, "samples": samples}
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = work_dir("results") / f"{name}-seed{seed}-trace{trace}-{stamp}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"# machine {json.dumps(record['machine'])}")
    print(f"# {summary}")
    return result


def record_digests(spec, tools):
    """Rewrites digests.json from the current program's outputs. Every digest
    is taken at --threads 2 and confirmed at --threads 1."""
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    table = load_digests()
    out = work_dir("inputs") / "record.json"

    def one(args):
        got = [reference_digest(args, threads, out, tools) for threads in ("2", "1")]
        if got[0] != got[1]:
            fail(f"output differs between 2 threads and 1: {' '.join(args)}")
        return got[0]

    for name in WORKLOADS:
        if SPEC in WORKLOADS[name]["args"]:
            table["workloads"][name] = {str(s): one(workload_args(name, s, tools)) for s in seeds}
        else:
            table["workloads"][name] = {"any": one(workload_args(name, 0, tools))}
        print(f"recorded {name}", file=sys.stderr)
    (HERE / "digests.json").write_text(json.dumps(table, indent=1) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", metavar="SEEDS",
                        help="rewrite digests.json for these failure-sweep seeds, e.g. 0-63,1009")
    opts = parser.parse_args()
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "tools" / "yardstick_cli.cpp").is_file():
        fail(f"{ROOT} is not a yardstick checkout: run this from the root of one")
    if not opts.record_digests and not opts.workload:
        parser.error("--workload is required")
    targets = ["yardstick", "perfbench_setup"] + (["perfbench_layers"] if opts.trace else [])
    tools = Tools(targets)
    if opts.record_digests:
        record_digests(opts.record_digests, tools)
        return
    names = list(WORKLOADS) if opts.workload == "all" else [opts.workload]
    results = {name: run_workload(name, opts.seed, opts.seconds, opts.trace, tools)
               for name in names}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))


if __name__ == "__main__":
    main()
