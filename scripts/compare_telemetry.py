#!/usr/bin/env python3
"""Gate CI on the corpus quality-telemetry snapshot staying healthy.

Compares a freshly produced telemetry snapshot (seminal_corpus stdout,
or DIR/telemetry_snapshot.json under --telemetry=DIR) against the
committed bench/BASELINE_telemetry.json.

Every gated field is deterministic in (scale, seed) -- the corpus is
seeded and the search is deterministic -- so the gate is EXACT equality,
not a tolerance band: running the sweep twice on the same commit
produces zero drift, and any difference against the baseline means
message quality, ranking, or search effort actually changed. Gated
fields:

  * the Figure-5 bucket distribution (buckets 1-5 + unknown) and the
    derived headline percentages (ours better / checker better /
    no worse / triage helped);
  * the quality distributions of all three message producers
    (checker, ours, ours-no-triage);
  * rank-of-true-fix: how many files had the true fix ranked, and the
    p50/p95/max of its rank;
  * per-layer win counts (which search layer produced the top-ranked
    suggestion) and the no-suggestion count;
  * search-effort totals: oracle calls, inference runs, cache hits,
    files sliced.

wall_seconds is carried in the snapshot for trend plots but never gated
(it is the one hardware-dependent field). The "config" label is
informational: a snapshot produced under a degraded configuration (e.g.
seminal_corpus --no-triage) is still *compared*, so quality drift is
reported as a regression (exit 1) rather than hidden behind an identity
mismatch -- this is exactly how the gate itself is tested in CI.

Snapshots whose schema_version differs are refused (exit 2): the
RunReport compatibility rule (DESIGN.md section 10) says consumers must
not guess across versions.

Shares scripts/gate_common.py with check_bench_regression.py; same exit
codes: 0 = healthy, 1 = drift/regression, 2 = bad invocation/inputs.
"""

import sys

from gate_common import (check_exact, finish, load_snapshot, make_parser,
                         require_kind, require_same_identity)

#: Scalar top-level fields gated by exact equality.
EXACT_FIELDS = (
    "files",
    "unknown_bucket",
    "ours_better_pct",
    "checker_better_pct",
    "no_worse_pct",
    "triage_helped_pct",
    "no_suggestion",
    "oracle_calls",
    "inference_runs",
    "cache_hits",
    "files_sliced",
)


def check_dict(failures, label, fresh, base):
    """Exact comparison of a {name: count} object, key-by-key so the
    failure report names the drifted entry."""
    for key in sorted(set(base) | set(fresh)):
        check_exact(failures, f"{label}[{key}]", fresh.get(key),
                    base.get(key))


def check_telemetry(base, fresh):
    failures = []

    check_dict(failures, "buckets", fresh.get("buckets", {}),
               base.get("buckets", {}))
    for producer in sorted(set(base.get("quality", {})) |
                           set(fresh.get("quality", {}))):
        check_dict(failures, f"quality[{producer}]",
                   fresh.get("quality", {}).get(producer, {}),
                   base.get("quality", {}).get(producer, {}))
    check_dict(failures, "layer_wins", fresh.get("layer_wins", {}),
               base.get("layer_wins", {}))
    check_dict(failures, "rank_of_true_fix",
               fresh.get("rank_of_true_fix", {}),
               base.get("rank_of_true_fix", {}))

    for key in EXACT_FIELDS:
        check_exact(failures, key, fresh.get(key), base.get(key))

    return failures


def main():
    parser = make_parser(
        description=__doc__,
        epilog="examples:\n"
               "  build/examples/seminal_corpus --scale=0.5 > fresh.json\n"
               "  compare_telemetry.py bench/BASELINE_telemetry.json "
               "fresh.json\n")
    args = parser.parse_args()

    base = load_snapshot(args.baseline)
    fresh = load_snapshot(args.fresh)

    require_kind(base, args.baseline, ("telemetry",))
    require_kind(fresh, args.fresh, ("telemetry",))
    if base.get("schema_version") != fresh.get("schema_version"):
        print(f"error: schema_version {fresh.get('schema_version')!r} does "
              f"not match baseline {base.get('schema_version')!r}; "
              f"re-generate the baseline for the new schema",
              file=sys.stderr)
        sys.exit(2)
    require_same_identity(base, fresh)
    if base.get("config") != fresh.get("config"):
        # Informational by design: the comparison proceeds so quality
        # drift surfaces as exit 1 (see module docstring).
        print(f"note: comparing config {fresh.get('config')!r} against "
              f"baseline config {base.get('config')!r}", file=sys.stderr)

    print(f"files {fresh.get('files')}, ours better "
          f"{fresh.get('ours_better_pct')}%, no worse "
          f"{fresh.get('no_worse_pct')}% (baseline "
          f"{base.get('ours_better_pct')}% / {base.get('no_worse_pct')}%)")
    finish(check_telemetry(base, fresh), "telemetry gate")


if __name__ == "__main__":
    main()
