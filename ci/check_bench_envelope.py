#!/usr/bin/env python3
"""Checks a BENCH_*.json envelope the bench harness (bench/bench_util.hpp)
wrote: the machine block is filled, its git_sha is the checkout's HEAD, and
every gate passed.

Usage: python3 ci/check_bench_envelope.py BENCH_name.json
"""
import json
import subprocess
import sys


def main(path):
    envelope = json.load(open(path))
    machine = envelope["machine"]
    for field in ("cores", "compiler", "build_type", "git_sha"):
        assert machine.get(field), f"{path}: machine.{field} is empty: {machine}"
    head = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                          check=True).stdout.strip()
    assert machine["git_sha"] == head, f"{path}: git_sha {machine['git_sha']} is not HEAD {head}"
    assert envelope["configs"], f"{path}: no configs"
    failed = [gate for gate in envelope["gates"] if not gate["passed"]]
    assert not failed, f"{path}: failed gates: {failed}"
    print(f"{path}: {len(envelope['configs'])} configs, all {len(envelope['gates'])} gates "
          f"passed, at {head[:12]}")


if __name__ == "__main__":
    main(sys.argv[1])
