"""Write reference.json: the output digests the benchmark checks against.

    python3 perfbench/make_reference.py

For every workload it runs one pass per workload seed 0..REFERENCE_SEEDS-1
(run.py) with the program of this checkout and records the sha256 of every
output at seed 0, plus one digest over the whole ladder's outputs at every
seed.  A pass whose commands fail their exit-code, verdict or oracle checks
aborts the script, so a reference only ever holds outputs that passed those
checks.  Re-run it only when a change to the program is meant to change its
output bytes.
"""

import json
import shutil
import sys

import run
from ladders import build_ladder


def reference_for(name, workload, work):
    cli = run._fresh_cli()
    out = work / "out"
    ref = {"outputs": {}, "ladders": {}}
    for seed in range(run.REFERENCE_SEEDS):
        ladder = build_ladder(workload.rungs, seed)
        files = run.write_ladder(ladder, work)
        gate = run.Gate(workload, seed, ladder, {})
        run.run_pass(cli, workload, files, out, gate)
        if workload.oracle:
            gate.oracle(cli)
        if gate.failed:
            sys.exit("%s seed %d: %s" % (name, seed, gate.reasons))
        digests = [(i.name, gate.first[i.name]) for i in ladder]
        if seed == 0:
            ref["outputs"] = dict(digests)
        ref["ladders"][str(seed)] = run.ladder_digest(digests)
        print(name, seed, len(ladder), flush=True)
    return ref


def main():
    sys.path.insert(0, str(run.ROOT / "src"))
    work = run.HERE / "_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        doc = {"workloads": {name: reference_for(name, workload, work)
                             for name, workload in sorted(
                                 run.WORKLOADS.items())}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # a benchmark run still uses it
            pass
    doc["program"] = run._git_commit()
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
