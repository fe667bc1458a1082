#!/usr/bin/env python3
"""Write the references the workloads check their answers against.

    python3 perfbench/make_reference.py [--scale 0.02] [--out-dir DIR]

Builds the benchmark's fixed deployment and runs every replayable query
through the engine alone (no runtime, no cache, no feedback), keeping one
type-normalised row-multiset digest per (user, sql): ``replay_cold.json``,
which ``rest_zipf`` checks its set-up against too.  Then runs one ingest
history on a durable platform and keeps the figures every history must
repeat: ``ingest_history.json``.  Run it only when the deployment itself
is meant to change.
"""

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from repro.synth.driver import replayable_queries  # noqa: E402


def _write(path, scale, body):
    body = dict(body, scale=scale, history_seed=workloads.HISTORY_SEED)
    with open(path, "w") as handle:
        json.dump(body, handle, indent=0, sort_keys=True)
        handle.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=workloads.SCALE)
    parser.add_argument("--out-dir", default=os.path.join(HERE, "reference"))
    parser.add_argument("--work-dir", default=".perfbench",
                        help="the ingest history's data dir goes here")
    args = parser.parse_args(argv)
    os.makedirs(args.out_dir, exist_ok=True)

    platform = workloads.generate_history(
        args.scale, workloads.OpTimer()).platform
    digests = {}
    for owner, sql in replayable_queries(platform):
        rows = platform.db.execute(sql).rows
        digests[workloads.query_key(owner, sql)] = workloads.rows_digest(rows)
    _write(os.path.join(args.out_dir, "replay_cold.json"), args.scale,
           {"digests": digests})

    data_dir = os.path.join(args.work_dir, "reference-history")
    shutil.rmtree(data_dir, ignore_errors=True)
    platform, manager = workloads.open_durable(data_dir)
    timer = workloads.OpTimer()
    try:
        generator = workloads.generate_history(args.scale, timer,
                                               platform=platform)
    finally:
        manager.close()
        shutil.rmtree(data_dir, ignore_errors=True)
    figures = workloads.history_figures(
        generator, timer, workloads.canonical_state(platform))
    _write(os.path.join(args.out_dir, "ingest_history.json"), args.scale,
           figures)
    print("%d digests, %d history calls -> %s"
          % (len(digests), sum(figures["calls"].values()), args.out_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
