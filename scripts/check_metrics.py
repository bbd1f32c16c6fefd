#!/usr/bin/env python3
"""Gate the daemon's scrape endpoint and its cross-instrument invariants.

Run against a live, idle seminal_serverd started with both --socket and
--metrics-port. Three checks, all on the same daemon at the same time:

  1. /healthz answers {"ok": true}.
  2. /metrics is valid Prometheus text exposition 0.0.4: every
     non-comment line is `name[{labels}] value`, names match
     [a-zA-Z_:][a-zA-Z0-9_:]*, every sample sits under a # TYPE
     declaration for its family, and the required seminal_* families
     are all present.
  3. Instruments that count the same requests in different ways agree:
     the per-state latency counts and the request-CPU histogram count
     sum to the check count, the per-shard request counters to checks
     plus resets, the per-shard CPU to the total CPU. The registry is
     the daemon's only store of counters, and the `stats` verb renders
     from it, so the verb supplies the shard layout and the check count
     for --expect-checks.

Exit codes follow the other gate scripts: 0 healthy, 1 violation
(details on stderr prefixed REGRESSION:), 2 bad invocation / daemon
unreachable.
"""

import argparse
import json
import re
import socket
import sys
import urllib.request

METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r" (?P<value>[0-9eE.+-]+|NaN|[+-]Inf)$")

# Families the server engine always registers (src/server/Server.cpp);
# a missing one means the exposition path silently lost instruments.
REQUIRED_FAMILIES = [
    "seminal_requests_total",
    "seminal_checks_total",
    "seminal_resets_total",
    "seminal_pings_total",
    "seminal_malformed_total",
    "seminal_sessions_created_total",
    "seminal_evictions_total",
    "seminal_replays_total",
    "seminal_oracle_calls_total",
    "seminal_inference_runs_total",
    "seminal_warm_hits_total",
    "seminal_slow_traces_total",
    "seminal_sessions",
    "seminal_arena_bytes",
    "seminal_request_latency_us",
    "seminal_oracle_calls_per_request",
    "seminal_shard_requests_total",
    "seminal_shard_busy_us_total",
    "seminal_shard_queue_depth",
    "seminal_shard_queue_wait_us",
    # Cost ledger + SLO layer (see reconcile_ledger below).
    "seminal_cost_cpu_us_total",
    "seminal_cost_wall_us_total",
    "seminal_cost_verdict_cache_hits_total",
    "seminal_cost_arena_nodes",
    "seminal_cost_arena_bytes",
    "seminal_request_cpu_us",
    "seminal_shard_cpu_us_total",
    "seminal_slo_burn_rate_milli",
    "seminal_slowest_request_latency_us",
    "seminal_slowest_request_info",
]

failures = []


def fail(msg):
    failures.append(msg)
    print(f"REGRESSION: {msg}", file=sys.stderr)


def fetch(port, path):
    url = f"http://127.0.0.1:{port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=10) as r:
            return r.status, r.read().decode("utf-8")
    except OSError as e:
        print(f"error: cannot fetch {url}: {e}", file=sys.stderr)
        sys.exit(2)


def stats_verb(socket_path):
    """One stats request over the daemon's JSONL Unix socket."""
    try:
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.settimeout(10)
        s.connect(socket_path)
        s.sendall(b'{"method":"stats","id":"gate"}\n')
        reply = json.loads(s.makefile().readline())
        s.close()
    except (OSError, ValueError) as e:
        print(f"error: stats verb on {socket_path} failed: {e}",
              file=sys.stderr)
        sys.exit(2)
    if not reply.get("ok"):
        print(f"error: stats verb returned {reply}", file=sys.stderr)
        sys.exit(2)
    return reply


def parse_exposition(text):
    """Validates the text format; returns {name: {labels_str: value}}."""
    samples = {}
    typed = {}
    current_family = None
    if not text.endswith("\n"):
        fail("exposition does not end with a newline")
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            fail(f"line {lineno}: blank line in exposition")
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) < 4 and line.startswith("# TYPE "):
                fail(f"line {lineno}: malformed TYPE line: {line!r}")
                continue
            name = parts[2]
            if not METRIC_NAME.match(name):
                fail(f"line {lineno}: bad family name {name!r}")
            if line.startswith("# TYPE "):
                kind = parts[3]
                if kind not in ("counter", "gauge", "summary", "histogram",
                                "untyped"):
                    fail(f"line {lineno}: unknown metric type {kind!r}")
                if name in typed:
                    fail(f"line {lineno}: duplicate TYPE for {name}")
                typed[name] = kind
                current_family = name
            continue
        if line.startswith("#"):
            fail(f"line {lineno}: unknown comment form: {line!r}")
            continue
        m = SAMPLE_LINE.match(line)
        if not m:
            fail(f"line {lineno}: unparseable sample line: {line!r}")
            continue
        name = m.group("name")
        base = name
        for suffix in ("_sum", "_count", "_bucket"):
            if name.endswith(suffix) and name[:-len(suffix)] in typed:
                base = name[:-len(suffix)]
        if base not in typed:
            fail(f"line {lineno}: sample {name} has no TYPE declaration")
        elif base != current_family:
            fail(f"line {lineno}: sample {name} outside its TYPE block "
                 f"(current family: {current_family})")
        samples.setdefault(name, {})[m.group("labels") or ""] = \
            float(m.group("value"))
    return samples


def single_value(samples, name):
    series = samples.get(name, {})
    if len(series) != 1:
        fail(f"{name}: expected exactly one unlabeled sample, got {series}")
        return None
    return next(iter(series.values()))


def reconcile(samples, stats):
    """Request counts that different instruments keep must agree."""
    checks = single_value(samples, "seminal_checks_total")
    resets = single_value(samples, "seminal_resets_total")

    # Every check lands in exactly one latency series.
    latency_counts = samples.get("seminal_request_latency_us_count", {})
    latency_total = sum(latency_counts.values())
    if latency_total != checks:
        fail(f"latency counts {latency_counts} sum to {latency_total}, "
             f"expected seminal_checks_total = {checks}")
    for state in ('{state="cold"}', '{state="warm"}'):
        if state not in latency_counts:
            fail(f"seminal_request_latency_us_count missing {state} series")

    # One shard series per shard, and the shards ran every check and
    # reset.
    shards = stats.get("shards", [])
    if len(shards) != stats.get("shard_count"):
        fail(f"stats.shards has {len(shards)} entries, shard_count says "
             f"{stats.get('shard_count')}")
    shard_requests = samples.get("seminal_shard_requests_total", {})
    if len(shard_requests) != len(shards):
        fail(f"seminal_shard_requests_total has {len(shard_requests)} "
             f"series for {len(shards)} shards")
    if checks is not None and resets is not None and \
            sum(shard_requests.values()) != checks + resets:
        fail(f"shard requests {shard_requests} do not sum to checks "
             f"{checks} + resets {resets}")


def reconcile_ledger(samples):
    """The cost ledger's instruments agree with the check count and with
    each other."""
    checks = single_value(samples, "seminal_checks_total")

    # Every check lands one sample in the per-request CPU histogram,
    # and the per-shard CPU split covers the whole scrape total.
    cpu_count = sum(samples.get("seminal_request_cpu_us_count", {}).values())
    if cpu_count != checks:
        fail(f"seminal_request_cpu_us_count sums to {cpu_count}, expected "
             f"seminal_checks_total = {checks}")
    shard_cpu = sum(samples.get("seminal_shard_cpu_us_total", {}).values())
    total_cpu = single_value(samples, "seminal_cost_cpu_us_total")
    if total_cpu is not None and shard_cpu != total_cpu:
        fail(f"seminal_shard_cpu_us_total sums to {shard_cpu} but "
             f"seminal_cost_cpu_us_total = {total_cpu}")

    # Burn-rate gauges exist for both windows and are finite and
    # non-negative; the actual value depends on live traffic.
    burn = samples.get("seminal_slo_burn_rate_milli", {})
    for window in ('{window="fast"}', '{window="slow"}'):
        if window not in burn:
            fail(f"seminal_slo_burn_rate_milli missing {window} series")
        elif not (burn[window] >= 0):
            fail(f"seminal_slo_burn_rate_milli{window} = {burn[window]}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--port", type=int, required=True,
                    help="the daemon's --metrics-port")
    ap.add_argument("--socket", required=True,
                    help="the daemon's --socket path (for the stats verb)")
    ap.add_argument("--expect-checks", type=int, default=None,
                    help="assert the daemon served exactly N checks")
    args = ap.parse_args()

    status, health = fetch(args.port, "/healthz")
    if status != 200 or json.loads(health) != {"ok": True}:
        fail(f"/healthz returned {status}: {health!r}")

    status, text = fetch(args.port, "/metrics")
    if status != 200:
        fail(f"/metrics returned {status}")
    samples = parse_exposition(text)

    for family in REQUIRED_FAMILIES:
        present = any(name == family or name.startswith(family + "_")
                      for name in samples)
        if not present:
            fail(f"required family {family} missing from /metrics")

    stats = stats_verb(args.socket)
    reconcile(samples, stats)
    reconcile_ledger(samples)

    if args.expect_checks is not None and \
            stats.get("checks") != args.expect_checks:
        fail(f"stats.checks = {stats.get('checks')}, expected "
             f"{args.expect_checks}")

    if failures:
        print(f"{len(failures)} metric gate violation(s)", file=sys.stderr)
        return 1
    print(f"metrics gate: OK ({len(samples)} sample series, "
          f"{stats.get('checks')} checks reconciled)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
