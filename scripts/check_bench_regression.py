#!/usr/bin/env python3
"""Gate CI on the benchmark snapshots staying healthy.

Compares a freshly produced BENCH_*.json against its committed baseline
(bench/BASELINE_*.json). The snapshot's "bench" field selects the gate:

oracle_calls_accel (bench_oracle_calls):
  * Deterministic counters must match the baseline exactly: the corpus is
    seeded, so logical-call totals and suggestion divergences are
    hardware-independent. Any drift means search behavior changed.
  * The within-run acceleration speedup (accelerated vs unaccelerated
    wall-clock, both measured on the same machine in the same process)
    must stay above REGRESSION_FRACTION of the baseline's ratio. Absolute
    wall-clock across CI runners is far noisier than 10%, but the *ratio*
    cancels the hardware out; losing more than 10% of it means the
    acceleration layer (or the tracing-disabled fast path it sits on)
    regressed.

micro_allocs (bench_micro --json):
  * Each scenario's allocation count (measured by the counting
    operator-new interposer) is deterministic for a given libstdc++, but
    not across toolchains, so it is gated with a 1.25x tolerance rather
    than exact equality: enough slack for container implementation
    drift, tight enough to catch reintroduced per-candidate clone or
    intern traffic (search-figure2, one search), copies of the unedited
    declarations (oneshot-check-corpus, the mean one-shot check over a
    corpus cohort) or per-token and per-node copies in the front end
    (parse-corpus, the mean parseProgram over the same cohort).

slice_ablation (bench_slice_ablation):
  * slice-guided must have produced byte-identical suggestion lists to
    slice-ranked on every file (pruning soundness).
  * All deterministic call counters (logical / issued / pruned per
    configuration) must match the baseline exactly.
  * The slice-guided oracle-call reduction must stay at or above the
    driver's floor (min_reduction_pct, currently 25%): the slice has to
    keep paying for itself.

server (bench_server):
  * Warm responses must be byte-identical to cold one-shot runs
    (suggestion_mismatches pinned to zero) and every deterministic
    warm-reuse counter (prefix hits, seed adoptions, conv-memo hits,
    inference runs) must match the baseline exactly.
  * The warm/cold p50 ratio (within-run, hardware-independent) must stay
    above max(10x, 50% of the baseline ratio): 10x is the daemon's
    edit-resubmit contract, the relative bound tracks the trajectory.
    The fraction is looser than the others because warm requests are
    sub-millisecond and jitter accordingly.

obs (bench_obs):
  * The profiler's priced overhead (per-primitive micro-costs times the
    measured spans-per-check of the warm workload, over the
    registry-only CPU per check -- all within-run, so hardware cancels)
    must stay within the DESIGN.md section 16 budget: <=1% with the
    hooks compiled but idle, <=3% sampling at the default 99 Hz with
    exact phase-CPU stamping.

The quality-telemetry snapshot ("bench": "telemetry") has its own gate,
scripts/compare_telemetry.py; both scripts share scripts/gate_common.py
and its exit-code protocol: 0 = healthy, 1 = regression, 2 = bad
invocation/inputs.
"""

import sys

from gate_common import (check_exact, check_floor, finish, load_snapshot,
                         make_parser, require_kind, require_same_identity)

REGRESSION_FRACTION = 0.9  # fail if speedup drops below 90% of baseline


def config_rows(failures, base, fresh):
    """Pairs up the per-configuration rows, flagging set changes."""
    base_rows = {r["name"]: r for r in base["configs"]}
    fresh_rows = {r["name"]: r for r in fresh["configs"]}
    if set(base_rows) != set(fresh_rows):
        failures.append(
            f"configuration set changed: {sorted(base_rows)} vs "
            f"{sorted(fresh_rows)}")
    return [(name, base_rows[name], fresh_rows[name])
            for name in sorted(set(base_rows) & set(fresh_rows))]


def check_oracle_calls(base, fresh):
    failures = []
    for name, b, f in config_rows(failures, base, fresh):
        check_exact(failures, f"[{name}] logical_calls",
                    f["logical_calls"], b["logical_calls"],
                    "search behavior changed")
        if f["suggestion_mismatches"] != 0 or f["call_count_mismatches"] != 0:
            failures.append(
                f"[{name}] diverged from its in-run baseline: "
                f"{f['suggestion_mismatches']} suggestion / "
                f"{f['call_count_mismatches']} call-count mismatches")

    base_speedup = base.get("speedup_wall", 0.0)
    fresh_speedup = fresh.get("speedup_wall", 0.0)
    floor = base_speedup * REGRESSION_FRACTION
    check_floor(failures, "speedup_wall", fresh_speedup, floor,
                "acceleration or the tracing-disabled fast path "
                "regressed >10%")
    print(f"baseline speedup {base_speedup:.2f}x, fresh "
          f"{fresh_speedup:.2f}x (floor {floor:.2f}x)")
    return failures


ALLOC_COUNT_TOLERANCE = 1.25  # per-scenario alloc-count drift allowance


def check_micro_allocs(base, fresh):
    failures = []
    base_rows = {r["name"]: r for r in base["scenarios"]}
    fresh_rows = {r["name"]: r for r in fresh["scenarios"]}
    if set(base_rows) != set(fresh_rows):
        failures.append(
            f"scenario set changed: {sorted(base_rows)} vs "
            f"{sorted(fresh_rows)}")

    for name in sorted(set(base_rows) & set(fresh_rows)):
        ceiling = base_rows[name]["allocs"] * ALLOC_COUNT_TOLERANCE
        allocs = fresh_rows[name]["allocs"]
        if allocs > ceiling:
            failures.append(
                f"[{name}] allocs {allocs} exceeds {ceiling:.0f} "
                f"({ALLOC_COUNT_TOLERANCE}x baseline "
                f"{base_rows[name]['allocs']})")
        print(f"[{name}] allocs {allocs} (ceiling {ceiling:.0f})")
    return failures


def check_slice_ablation(base, fresh):
    failures = []
    for name, b, f in config_rows(failures, base, fresh):
        for key in ("logical_calls", "issued_calls", "pruned_calls",
                    "files_sliced"):
            check_exact(failures, f"[{name}] {key}", f[key], b[key],
                        "slice or search behavior changed")
        if f["suggestion_mismatches"] != 0:
            failures.append(
                f"[{name}] {f['suggestion_mismatches']} suggestion "
                f"mismatches vs slice-ranked -- pruning is unsound")

    floor = fresh.get("min_reduction_pct", base.get("min_reduction_pct",
                                                    25.0))
    reduction = fresh.get("reduction_pct", 0.0)
    check_floor(failures, "slice-guided reduction_pct", reduction, floor)
    print(f"baseline reduction {base.get('reduction_pct', 0.0):.1f}%, fresh "
          f"{reduction:.1f}% (floor {floor:.0f}%)")
    return failures


SERVER_SPEEDUP_HARD_FLOOR = 10.0  # the daemon's warm-resubmit contract
SERVER_SPEEDUP_FRACTION = 0.5     # warm p50 is sub-millisecond, so the
                                  # ratio jitters more than the others;
                                  # the hard floor carries the contract


def check_server(base, fresh):
    failures = []
    # Scenario shape and everything the search actually did are
    # deterministic in (scale, seed): same program, same localization
    # probes, same candidates, same warm reuse. Exact equality.
    for key in ("decls", "iterations", "cold_inference_runs",
                "warm_inference_runs", "warm_prefix_hits",
                "warm_seed_adoptions", "warm_conv_memo_hits"):
        check_exact(failures, key, fresh.get(key), base.get(key),
                    "server warm-reuse behavior changed")
    check_exact(failures, "suggestion_mismatches",
                fresh.get("suggestion_mismatches"), 0,
                "warm responses diverged from cold one-shot runs")

    base_speedup = base.get("speedup_warm", 0.0)
    fresh_speedup = fresh.get("speedup_warm", 0.0)
    floor = max(SERVER_SPEEDUP_HARD_FLOOR,
                base_speedup * SERVER_SPEEDUP_FRACTION)
    check_floor(failures, "speedup_warm", fresh_speedup, floor,
                "warm edit-resubmits stopped paying for themselves")
    print(f"baseline warm speedup {base_speedup:.1f}x, fresh "
          f"{fresh_speedup:.1f}x (floor {floor:.1f}x)")
    return failures


PROFILER_OFF_MAX_PCT = 1.0   # hooks compiled in, profiler not running
PROFILER_99HZ_MAX_PCT = 3.0  # sampler at the default 99 Hz + CPU stamps


def check_obs(base, fresh):
    """Observability overhead budgets (bench_obs). Gates the *priced*
    profiler overheads -- per-primitive micro-costs times the measured
    spans-per-check, against the registry-only CPU per check -- because
    the DESIGN.md section 16 budgets (1% / 3%) sit below the end-to-end
    noise floor of a ~1ms workload on shared runners. The end-to-end
    config rows are still checked for set drift so a silently dropped
    measurement cannot pass."""
    failures = []
    config_rows(failures, base, fresh)  # flags config-set drift
    for key, ceiling in (("profiler_off_overhead_pct",
                          PROFILER_OFF_MAX_PCT),
                         ("profiler_99hz_overhead_pct",
                          PROFILER_99HZ_MAX_PCT)):
        pct = fresh.get(key)
        if pct is None:
            failures.append(f"snapshot is missing {key}")
            continue
        if pct > ceiling:
            failures.append(
                f"{key} = {pct:.3f}% exceeds the {ceiling:.0f}% budget")
        print(f"{key}: {pct:+.3f}% (budget {ceiling:.0f}%)")
    return failures


GATES = {
    "oracle_calls_accel": check_oracle_calls,
    "micro_allocs": check_micro_allocs,
    "slice_ablation": check_slice_ablation,
    "server": check_server,
    "obs": check_obs,
}


def main():
    parser = make_parser(
        description=__doc__,
        epilog="examples:\n"
               "  check_bench_regression.py bench/BASELINE_oracle_calls.json"
               " BENCH_oracle_calls.json\n"
               "  check_bench_regression.py "
               "bench/BASELINE_slice_ablation.json "
               "BENCH_slice_ablation.json\n")
    args = parser.parse_args()

    base = load_snapshot(args.baseline)
    fresh = load_snapshot(args.fresh)

    kind = require_kind(base, args.baseline, GATES)
    if fresh.get("bench") != kind:
        print(f"error: {args.fresh} is a {fresh.get('bench')!r} snapshot, "
              f"baseline is {kind!r}", file=sys.stderr)
        sys.exit(2)
    require_same_identity(base, fresh)

    finish(GATES[kind](base, fresh), "bench regression gate")


if __name__ == "__main__":
    main()
