"""Regenerate reference.json: the digest of every task's result.

    python3 perfbench/make_reference.py

Runs every workload's tasks once per instance (0..15), at both sizes, on
the current sources and records (exit code, digest) per task; the file is
always rewritten whole.  Only do this when a change is meant to alter
results; a performance change must leave the reference untouched.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import run

SIZES = ("full", "tiny")


def dumps(doc) -> str:
    """Indented JSON with each [code, digest] pair on its task's line."""
    text = json.dumps(doc, indent=1, sort_keys=True)
    return re.sub(r'\[\s+(-?\d+),\s+("[0-9a-f]+")\s+\]', r"[\1, \2]", text)


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    run.bootstrap()
    from workloads import WORKLOADS

    doc = {"pool": run.POOL, "digests": {}}
    run.OUT.mkdir(exist_ok=True)
    for size in SIZES:
        for name, wl in WORKLOADS.items():
            per_instance = {}
            for instance in range(run.POOL):
                state = wl.setup(wl.inputs(instance, size), run.OUT)
                outcomes = []
                run.run_round(wl.tasks(state), lambda *outcome: outcomes.append(outcome))
                entries = {}
                for task, raw, err in outcomes:
                    if err is not None:
                        raise SystemExit(f"{name}/{instance} {task.id}: {err}")
                    outcome = task.post(raw)
                    if task.verify is not None and outcome.block is not None:
                        msg = task.verify(outcome.block)
                        if msg:
                            raise SystemExit(f"{name}/{instance} {task.id}: {msg}")
                    entries[task.id] = [outcome.code, task.digest(outcome)]
                per_instance[str(instance)] = entries
                print(f"{size} {name} instance {instance}: {len(entries)} tasks", flush=True)
            doc["digests"].setdefault(size, {})[name] = per_instance
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
