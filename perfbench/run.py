#!/usr/bin/env python3
"""Run one benchmark workload against ``src/repro`` and print its metrics.

    python3 perfbench/run.py --workload replay_cold --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Prints a readable report, then, as the
last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones from the
ledger (see ``ledger.py``) and the spans are written to
``.perfbench/spans-<workload>.jsonl``.  ``failed`` counts operations that
failed unexpectedly or returned wrong rows.  Exits 2 without a result when
``src/repro`` cannot be imported.
"""

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_REFERENCES = os.path.join(HERE, "reference")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("replay_cold", "rest_zipf", "ingest_history"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time; whole units run until it is reached")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=None,
                        help="deployment scale (default: the benchmark's fixed "
                             "scale; smaller values are for the tests)")
    parser.add_argument("--reference-dir", default=DEFAULT_REFERENCES,
                        help="committed row digests and history figures, "
                             "used when taken at the same scale")
    parser.add_argument("--work-dir", default=".perfbench",
                        help="spans and ingest data dirs go here")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
    except ImportError as error:
        print("perfbench: cannot import repro from %s: %s" % (src, error),
              file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print("perfbench: repro was imported from %s, not from %s"
              % (repro.__file__, src), file=sys.stderr)
        return 2
    from ledger import Ledger, layer_metrics, ledger_balances
    import workloads

    scale = workloads.SCALE if args.scale is None else args.scale
    os.makedirs(args.work_dir, exist_ok=True)
    ledger = Ledger() if args.trace else None
    reference = workloads.load_reference(os.path.join(
        args.reference_dir, workloads.REFERENCE_FILES[args.workload]), scale)
    result = workloads.WORKLOADS[args.workload](
        seconds=args.seconds, seed=args.seed, scale=scale, ledger=ledger,
        reference=reference, work_dir=os.path.abspath(args.work_dir))

    checks = list(result.checks)
    if args.trace:
        extra = dict(result.layer_extra, trace_overhead=result.trace_overhead())
        metrics, totals = layer_metrics(ledger, extra)
        ops, wall = result.traced_ops()
        checks.append(("ledger holds every traced operation and sums to "
                       "its measured wall time",
                       ledger_balances(totals, ops, wall)))
        ledger.write_spans(os.path.join(
            args.work_dir, "spans-%s.jsonl" % args.workload))
    else:
        metrics = result.end_to_end()
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    correct = result.failed == 0 and all(passed for _name, passed in checks)

    print("workload %s  seed %d  seconds %g  trace %d  scale %g"
          % (args.workload, args.seed, args.seconds, args.trace, scale))
    for name in sorted(metrics):
        value, unit = metrics[name]
        print("  %-44s %14.6g %s" % (name, value, unit))
    print("  %-44s %14d" % ("samples", result.samples()))
    print("  %-44s %14d" % ("units", len(result.units)))
    print("  %-44s %14s" % ("reference", "checked" if reference else "none"))
    print("  %-44s %14.6g" % ("failed_frac",
                              result.failed / float(max(result.attempted, 1))))
    for name in sorted(result.notes):
        print("  %-44s %14s" % (name, result.notes[name]))
    for name, passed in checks:
        print("  check: %s: %s" % (name, "ok" if passed else "FAILED"))
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
