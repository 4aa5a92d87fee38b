"""Self-tests for the benchmark: its checkers and its command.

    python3 psnbench/selftest.py

Each checker must pass the program's real answer and reject a deliberately
corrupted one.  Then every workload makes a short run through the same
command the benchmark is run with, untraced and traced, and the command must
refuse to run in a directory holding only the benchmark.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import workloads  # noqa: E402
from refs import CheckFailure  # noqa: E402
from pseudospace import words as W  # noqa: E402


def rejects(check, answer) -> bool:
    try:
        check(answer)
    except CheckFailure:
        return True
    return False


def test_reduct_with_absorbed_letter_put_back():
    ops = workloads.Words(0).round(0)
    for kind in ("reduce-n3-800", "concat_reduce"):
        op = next(op for op in ops if op.kind == kind and len(op.call()) > 0)
        good = op.call()
        op.check(good)
        letters = good.letters
        bad = W.Word(letters[:1] + letters[:1] + letters[1:], good.n)
        assert rejects(op.check, bad), kind


def test_path_word_with_one_letter_changed():
    ops = workloads.Flags(0).round(0)
    op = next(op for op in ops if op.kind.startswith("flag_path") and len(op.call().word) > 0)
    good = op.call()
    op.check(good)
    s = good.word.letters[0]
    changed = W.Letter(s.lo, s.hi + 1) if s.hi < good.word.n else W.Letter(s.lo - 1, s.hi)
    bad = dataclasses.replace(good, word=W.Word((changed,) + good.word.letters[1:], good.word.n))
    assert rejects(op.check, bad)


def test_report_with_no_cases():
    op = workloads.Verify(0).round(0)[0]
    good = op.call()
    op.check(good)
    assert rejects(op.check, dataclasses.replace(good, cases_run=0))


def test_reloaded_space_with_one_edge_moved():
    ops = workloads.Build(0).round(0)
    for op in ops[:3]:  # from_script, to_json, from_json of the first script
        result = op.call()
        op.check(result)
    space = result
    a, b = space.edges()[-1]
    c = next(v for v in space.vertices if v not in (a, b) and space.level(v) == space.level(b))
    space._adj[a].discard(b)
    space._adj[b].discard(a)
    space._adj[a].add(c)
    space._adj[c].add(a)
    assert rejects(ops[2].check, space)


def run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join("psnbench", "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def test_every_workload_runs_through_the_command():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, w["name"], trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert result["correct"], (w["name"], proc.stderr)
            expected_failed = result["attempted"] // 16 if w["name"] == "build" else 0
            assert result["failed"] == expected_failed, (w["name"], result["failed"])
            names = {m["name"]: m["unit"] for m in spec[section]}
            assert {k: v["unit"] for k, v in result["metrics"].items()} == names, w["name"]


def test_refuses_to_run_without_the_program():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "psnbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run(bare, "words", 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as exc:  # report every test, then fail
            failures += 1
            print(f"FAIL {name}: {exc!r}")
        else:
            print(f"ok   {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
