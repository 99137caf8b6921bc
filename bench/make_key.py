"""Write the answer key from the current source tree.

    python3 bench/make_key.py

Runs every job of every workload on its sparse input once, and each
dense twin's original job, and records exit code, stdout sha256 and
basis-free lines in bench/answer_key.json.  The committed key was made
this way at the commit that introduced the benchmark; rerun it only when
a change to the CLI output is intended.
"""

from __future__ import annotations

import json
import os
import tempfile

from worker import argv_for, run_cli, setup

import gate
from workloads import WORKLOADS


def main():
    ids = gate.keyed_ids(WORKLOADS)
    jobs = [tuple(i.split(" ")) for i in ids]
    key = {}
    with tempfile.TemporaryDirectory(dir=os.path.dirname(gate.KEY_PATH)) as work:
        paths, _ = setup(jobs, "key", work)
        for i, job in zip(ids, jobs):
            code, stdout, err = run_cli(argv_for(job, paths))
            if code is None or code == 3:
                raise SystemExit("%s failed: %s" % (i, err))
            key[i] = gate.key_entry(code, stdout)
    with open(gate.KEY_PATH, "w", encoding="utf-8") as fh:
        json.dump(key, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("%d entries written to %s" % (len(key), gate.KEY_PATH))


if __name__ == "__main__":
    main()
