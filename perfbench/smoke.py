"""Smoke test of the benchmark itself.

Usage, from the root of a checkout: python3 perfbench/smoke.py

1. Runs every workload at minimal size (one second, traced and untraced)
   and checks that the result line carries every metric BENCHMARK.json
   names, with its unit.
2. Runs one operation of every workload in process, checks that its
   oracle accepts it, then corrupts one output row and checks that the
   oracle counts the corrupted result as a failure.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def check_metric_names(bench) -> list[str]:
    problems = []
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w["name"],
                   "--seed", "7", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                problems.append(f"{w['name']} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{w['name']} trace={trace}: keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{w['name']} trace={trace}: {result['correct']=} {result['attempted']=}")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{w['name']} trace={trace}: metrics differ: "
                                f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
            print(f"metrics ok: {w['name']} trace={trace}" if got == want else
                  f"metrics BAD: {w['name']} trace={trace}")
    return problems


def _corrupt_digit(line: str) -> str:
    """Change one significant digit of the last number on a line."""
    head, sep, last = line.rpartition(",")
    for i, ch in enumerate(last):
        if ch in "123456789":
            last = last[:i] + ("1" if ch != "1" else "2") + last[i + 1:]
            break
    return head + sep + last


def corruption_cases(workdir):
    """(label, op, good result, corrupt) per workload; corrupt() returns a bad result."""
    cases = []
    cli = workloads.CliOneshot(3, ROOT, workdir)
    for kind in ("amplitude-sweep", "tc-params", "tc-sweep", "fb-sweep"):
        op = cli._make(kind, "csv", cli.rng)
        rc, out, err = op.run()

        def corrupt(rc=rc, out=out, err=err):
            lines = out.splitlines()
            i = min(2, len(lines) - 1)
            lines[i] = _corrupt_digit(lines[i])
            return rc, "\n".join(lines) + "\n", err
        cases.append((f"cli-oneshot {kind}", op, (rc, out, err), corrupt))

    sweep = workloads.SweepTable(3, ROOT, workdir)
    for kind in ("amplitude-log", "feshbach-si"):
        sweep.out_path = os.path.join(workdir, f"{kind}.csv")
        op = sweep._make(kind, sweep.rng, 300, 2)
        rc = op.run()

        def corrupt(rc=rc, path=sweep.out_path):
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            lines[150] = _corrupt_digit(lines[150])
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            return rc
        cases.append((f"sweep-table {kind}", op, rc, corrupt))

    scan = workloads.ResonanceScan(3, ROOT, workdir)
    one = scan._one_channel(np.random.default_rng(5))
    states, residuals, products = one.run()
    moved = [dataclasses.replace(states[0], q=states[0].q * (1.0 + 1e-6))] + states[1:]
    cases.append(("resonance-scan one-channel", one, (states, residuals, products),
                  lambda: (moved, residuals, products)))
    rng = np.random.default_rng(6)
    while True:
        two = scan._two_channel(rng)
        result = two.run()
        if not isinstance(result[3], BaseException):
            break
    p, a_eps, r_eps, state, report = result
    bad_state = dataclasses.replace(state, beta2=state.beta2 * (1.0 + 1e-5))
    cases.append(("resonance-scan two-channel", two, result,
                  lambda: (p, a_eps, r_eps, bad_state, report)))

    battery = workloads.VerifyBattery(3, ROOT, workdir)
    op = battery.next_op()
    results = op.run()
    bad = copy.deepcopy(results)
    bad[4].passed = False
    cases.append(("verify-battery", op, results, lambda: bad))
    return cases


def check_corruption() -> list[str]:
    problems = []
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        for label, op, good, corrupt in corruption_cases(workdir):
            ok_fails = op.check(good, None)
            bad = corrupt()
            bad_fails = op.check(bad, None)
            if ok_fails:
                problems.append(f"{label}: correct output rejected: {ok_fails}")
            if not bad_fails:
                problems.append(f"{label}: corrupted output accepted")
            elif op.defect(bad_fails, bad, None) is not None:
                problems.append(f"{label}: corrupted output taken for a known defect")
            print(f"{label}: good {'accepted' if not ok_fails else 'REJECTED'}, "
                  f"corrupted {'rejected' if bad_fails else 'ACCEPTED'}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = check_corruption() + check_metric_names(bench)
    for p in problems:
        print("FAIL:", p)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
