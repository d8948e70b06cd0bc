"""Regenerate the committed reference outputs in benchmarks/refs/.

    python3 benchmarks/make_refs.py [verify_all] [dem_ladder] [past_cap]

With no argument it regenerates the references of all three workloads.

- verify_fixed.csv, verify_seeded.tsv: the ``demkit verify --suite all``
  report of every verify seed in the pool, split into the rows all seeds
  share and the rows of each seed (``<verify seed>\\t<csv row>``); the
  benchmark rebuilds each report byte for byte from them.
- dem_ladder.json, past_cap.json: ``(dem, witness)`` of every instance; the
  seeded instances for workload seeds 0..REF_SEEDS-1, with a digest of the
  drawn edges.

What this writes is what every later run is checked against, so run it only
at a commit whose outputs are known to be right. Every witness it records is
first confirmed by the independent checker.
"""

from __future__ import annotations

import json
import subprocess
import sys

import checker
import workloads
from workloads import REFS, REF_SEEDS, VERIFY_SEED_POOL


def verify_refs() -> None:
    w = workloads.VerifyWorkload()
    reports = {}
    for v in range(VERIFY_SEED_POOL):
        proc = subprocess.run(
            w.command(v), cwd=workloads.ROOT, env=workloads.verify_env(),
            capture_output=True, check=False,
        )
        if proc.returncode != 1 or proc.stderr:
            raise SystemExit(f"verify --seed {v}: status {proc.returncode}, {proc.stderr!r}")
        reports[v] = proc.stdout.decode()
    lines = {v: text.splitlines(keepends=True) for v, text in reports.items()}
    header = lines[0][0]
    shared = set.intersection(*(set(rows[1:]) for rows in lines.values()))
    fixed = [row for row in lines[0][1:] if row in shared]
    (REFS / "verify_fixed.csv").write_text(header + "".join(fixed))
    with open(REFS / "verify_seeded.tsv", "w") as fh:
        for v, rows in lines.items():
            fh.writelines(f"{v}\t{row}" for row in rows[1:] if row not in shared)
    for v, text in reports.items():
        if w.expected_csv(v) != text.encode():
            raise SystemExit(f"verify --seed {v}: the split references do not rebuild the report")
    print(f"verify: {len(fixed)} shared rows, {VERIFY_SEED_POOL} seeds")


def _answer(demkit, w, inst) -> list:
    r = demkit.dem_number(demkit.Graph(inst.n, inst.edges), max_n=w.max_n)
    problem = checker.witness_error(inst.n, inst.edges, r.value, r.witness)
    if problem:
        raise SystemExit(f"{w.name} {inst.name}: {problem}")
    return [r.value, list(r.witness)]


def dem_refs(name: str) -> None:
    w = workloads.WORKLOADS[name]()
    demkit = workloads.import_demkit()
    fixed = {
        inst.name: _answer(demkit, w, inst) for inst in w.inputs(0) if not inst.seeded
    }
    seeded = {}
    for seed in range(REF_SEEDS):
        seeded[str(seed)] = {
            inst.name: _answer(demkit, w, inst) + [workloads.digest(inst.key())]
            for inst in w.inputs(seed)
            if inst.seeded
        }
    body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in seeded.items())
    (REFS / f"{name}.json").write_text(
        "{\n"
        f'"max_n": {w.max_n},\n'
        f'"fixed": {json.dumps(fixed, indent=1)},\n'
        f'"seeded": {{\n{body}\n}}\n'
        "}\n"
    )
    print(f"{name}: {len(fixed)} fixed instances, {REF_SEEDS} seeds")


if __name__ == "__main__":
    REFS.mkdir(exist_ok=True)
    for name in sys.argv[1:] or list(workloads.WORKLOADS):
        verify_refs() if name == "verify_all" else dem_refs(name)
