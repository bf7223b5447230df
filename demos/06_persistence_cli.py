"""
Snapshots and the command-line lifecycle
========================================

A store is one directory with one canonical JSON snapshot: saves are
byte-identical for identical state, loads reproduce every vector
bit-for-bit, and every load re-validates config ranges, referential
integrity, and DAG validity. The same lifecycle is scriptable through
the `memstrata` CLI.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stdout

import numpy as np

from memstrata import MemoryStore
from memstrata.cli import run_cli

workspace = tempfile.TemporaryDirectory(prefix="memstrata-demo-")
workdir = workspace.name
store_dir = os.path.join(workdir, "store")
obs_path = os.path.join(os.path.dirname(__file__), "..", "tests", "data",
                        "fruit_salad.jsonl")


def cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run_cli(["--store", store_dir, *argv])
    return code, buf.getvalue()


# ---------------------------------------------------------------
# 1. ingest -> distill -> update through the CLI
# ---------------------------------------------------------------
code, out = cli("ingest", obs_path)
print(out.splitlines()[1])
code, out = cli("distill")
print(out.splitlines()[1])

update_path = os.path.join(workdir, "update.jsonl")
with open(update_path, "w") as fh:
    fh.write(json.dumps({"version": 1}) + "\n")
    fh.write(json.dumps({
        "id": 100, "video": "sunday", "t": 0.0,
        "descriptions": ["chop the fruit", "mix the fruit", "serve the salad"],
    }) + "\n")
cli("ingest", update_path)
code, out = cli("update", update_path)
print(out.splitlines()[-1])

# ---------------------------------------------------------------
# 2. Queries against the persisted store
# ---------------------------------------------------------------
code, out = cli("proc", "--goal", "procedure: chop_fruit → mix_fruit → serve_salad")
print("\n" + out, end="")
code, out = cli("stats")
print("\nstats:", {l.split(": ")[0]: l.split(": ")[1]
                   for l in out.splitlines()[1:]})
code, out = cli("check")
print(out.splitlines()[-1])

# ---------------------------------------------------------------
# 3. Snapshot determinism and bit-exact round trips
# ---------------------------------------------------------------
snap = os.path.join(store_dir, "snapshot.json")
store = MemoryStore.load(snap)
again = os.path.join(workdir, "again.json")
store.save(again)
print("\nsave(load(snapshot)) byte-identical:",
      open(snap, "rb").read() == open(again, "rb").read())

reloaded = MemoryStore.load(again)
node_a, node_b = store.logic[1], reloaded.logic[1]
print("EMA'd index vectors bit-equal:",
      np.array_equal(node_a.i_goal, node_b.i_goal))

workspace.cleanup()
