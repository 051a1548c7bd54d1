"""Record the CSV error columns that run.py checks every run against.

    python3 perfbench/record_references.py [FIRST_SEED LAST_SEED]

Runs every workload, at full and at smoke size, once per seed (default 0..19)
on an empty cache, and writes perfbench/references.json. Re-record only with a
change that is meant to move the error columns, and say why in that change.
"""

import json
import shutil
import sys
import time

from run import REFERENCES, WORK, WORKLOADS, run_child, sdwave_argv


def main(argv):
    first, last = (int(a) for a in argv) if argv else (0, 19)
    workdir = WORK / "references"
    table = {}
    try:
        for name, (config, _, smoke_config) in WORKLOADS.items():
            for key, cfg in ((name, config), (name + ":smoke", smoke_config)):
                table[key] = {}
                for seed in range(first, last + 1):
                    shutil.rmtree(workdir, ignore_errors=True)
                    workdir.mkdir(parents=True)
                    out = run_child(sdwave_argv(cfg, seed, workdir, workdir / "cache"),
                                    workdir, False, time.monotonic() + 600.0)
                    if out.get("error"):
                        sys.exit("%s seed %d: %s" % (key, seed, out["error"]))
                    table[key][str(seed)] = [[list(k), list(v)]
                                             for k, v in sorted(out["rows"].items())]
                    print(key, seed, out["rows"], file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCES, "w") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
