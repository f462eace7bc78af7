#!/usr/bin/env python3
"""Regenerate bench/pins.json: the expected exit code, output digest and key
numbers of every benchmark job.

    python3 bench/make_pins.py

Every job runs once in each of several fresh processes, each with another
PYTHONHASHSEED and another ``--seed``.  The pins are written only when all
runs agree; otherwise the differing jobs and fields are printed as findings
and nothing is written.  Run it only when the program's output is meant to
change, and say why in the change that commits the new pins.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

RUNS = ((0, 0), (1, 1), (2, 7))  # (PYTHONHASHSEED, --seed)


def collect(seed):
    sys.path.insert(0, str(run.SRC))
    import topraag.cli as cli

    os.chdir(run.ROOT)
    (run.BENCH / "_work").mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="pins-", dir=run.BENCH / "_work")
    try:
        (Path(work) / "st.json").write_text(json.dumps(run.TREE_GRAPH), encoding="utf-8")
        records = {}
        for jobs in run.WORKLOADS.values():
            for job in jobs:
                _, record, error = run.run_job(cli.main, job, work, seed)
                records[job] = record if record is not None else {"error": error}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(records))


def main():
    results = []
    for hash_seed, seed in RUNS:
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        done = subprocess.run(
            [sys.executable, __file__, "--collect", str(seed)],
            env=env, capture_output=True, text=True, check=True, timeout=900,
        )
        results.append(json.loads(done.stdout.splitlines()[-1]))
    first = results[0]
    findings = []
    for job, record in first.items():
        if "error" in record:
            findings.append(f"{job}: {record['error']}")
            continue
        for other, (hash_seed, seed) in zip(results[1:], RUNS[1:]):
            for field in ("exit", "digest", "key"):
                if other[job].get(field) != record[field]:
                    findings.append(f"{job}: {field} differs at PYTHONHASHSEED={hash_seed} --seed {seed}")
    if findings:
        print("outputs are not reproducible; pins not written:", *findings, sep="\n  ")
        return 1
    run.PINS.write_text(json.dumps(first, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {len(first)} jobs in {run.PINS}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--collect"]:
        collect(int(sys.argv[2]))
    else:
        sys.exit(main())
