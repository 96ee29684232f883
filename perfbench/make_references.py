"""Regenerate perfbench/references.json from the package in ./src.

    python3 perfbench/make_references.py [--size full|toy] [--workload NAME]

Runs each op once per stored input seed and stores its result. The stored
results are the expected outputs that every later run is checked against, so
regenerate them only for a deliberate change to the benchmark or to the
program's numbers, and say so in CHANGES.md. A result that breaks an invariant
(exit code, zero skips, the dense oracle) is refused.
"""

import argparse
import json
import os
import sys

import run  # pins every thread count before numpy loads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", choices=["full", "toy"], action="append")
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    run.import_program()
    import workloads

    path = run.HERE / "references.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    run.OUT.mkdir(exist_ok=True)
    for size in args.size or ["toy", "full"]:
        for name in args.workload or list(workloads.WORKLOADS):
            wl = workloads.WORKLOADS[name]
            table = refs.setdefault(size, {}).setdefault(name, {})
            for seed in range(workloads.N_REF_SEEDS):
                state = wl.setup(workloads.SIZES[size][name], seed, run.OUT)
                out = json.loads(json.dumps(wl.op(state)))
                if "csv" in state:
                    os.unlink(state["csv"])
                problems = wl.invariants(state, out)
                if problems:
                    sys.exit(f"{size} {name} seed {seed}: {problems}")
                table[str(seed)] = out
                print(f"{size} {name} seed {seed}", file=sys.stderr, flush=True)
            path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
