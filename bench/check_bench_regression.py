#!/usr/bin/env python3
"""Fail when a bench_scheduler_perf case regresses against the committed baseline.

Usage:
    check_bench_regression.py <baseline.json> <current.json> <case-name> [<case-name>...]
    check_bench_regression.py --selftest

Gates per named engine case, all on the same fixed trace (the row's job
count must match the baseline's — wall time is only comparable on the
same workload, so a mismatch fails):

  * `wall_seconds` — seconds per replay of the case's trace (jobs/sec is
    its reciprocal times `jobs`); fails when the current value rises more
    than the tolerance above the baseline's.
  * `sched_us_per_round` — wall time inside the scheduler per round; fails
    when it rises more than the tolerance above the baseline's, or when
    the current row drops a field the baseline has. Skipped with a note
    when the baseline row has no such field (federation sweep rows).
  * allocations per job (`allocs / jobs`) — fails when the current value
    rises more than the tolerance above the baseline's. Allocation counts
    come from the counting allocator in bench_alloc_hooks.cc and are
    deterministic modulo allocator-internal noise, so a >20% jump is a
    real leak of per-job work back onto the heap (the arena/SoA refactor
    is what the gate protects). Skipped with a note when either file
    lacks the `allocs` field.

`events_per_sec` is printed beside them for information only and never
gated: engine events include no-op completion checks, so a rate of events
rewards work that does nothing, and a per-event allocation ratio falls
when no-op events multiply. Hence wall time per replay and allocs per job.

Each bench JSON file carries a top-level `machine` fingerprint (nproc,
CPU model, compiler, build type). When the baseline's differs from the
current run's, the check prints a warning: wall-time gates across
different machines measure the machines, not the change.

Cases named `quality_*` are approximation-quality rows (the incremental
fast path replayed against the exact mode on the same trace) and are gated
against fixed envelopes instead of the baseline file:

  * `cost_delta` <= EVA_QUALITY_COST_TOL (default 0.10): the incremental
    run's provisioning cost may not exceed exact by more than 10%.
  * `jct_delta` <= EVA_QUALITY_JCT_TOL (default 0.05): average JCT may not
    degrade by more than 5%.
  * `jobs_completed_incremental` must equal `jobs_completed_exact`: the
    approximation must not lose jobs.

Quality rows are judged on the current run alone — divergence is a property
of this commit, not a trajectory — so they need no baseline entry.

Cases named `fault_*` are fault-injection rows (the same trace replayed with
the deterministic fault model on) and are likewise judged on the current run
alone:

  * `jobs_completed` must equal `jobs_completed_fault_free`: faults destroy
    in-flight work and delay jobs, they must never lose one.
  * `goodput_ratio` >= EVA_FAULT_GOODPUT_FLOOR (default 0.50): recovery
    overhead (re-executed work after kills) may not eat more than half the
    executed compute under the default fault regime.

Independent of the named gates, every row in the *current* file must carry
`schema_version` == EXPECTED_SCHEMA_VERSION (baseline files are exempt —
committed baselines may predate the field and are not regenerated), and any
row embedding a `telemetry` object must match the registry export schema:
known groups only (counters/gauges/histograms/series), dot-namespaced
metric names, sorted within each group, no empty groups. A producer that
drifts from the registry's serialization contract fails here rather than
corrupting downstream tooling silently.

The perf tolerance is EVA_BENCH_TOLERANCE (default 0.20 = 20%, the margin
CI grants for runner variance). A case missing from either file is an
error: a silently dropped case must not read as a pass.

Cases listed in WARN_ONLY are compared and reported but never fail the
check — the observation period for newly added sweep cases before they earn
a gate. (Currently none.)

`--selftest` runs the gates against built-in fixtures that must fail (and
one that must pass) — the negative test CI runs so a broken gate cannot
silently wave regressions through.
"""

import json
import os
import sys

# Cases in their observation period: reported, never failing.
WARN_ONLY = frozenset()

# Bench-row protocol version stamped by BenchJsonWriter::kSchemaVersion.
# Bump both together when the row layout changes.
EXPECTED_SCHEMA_VERSION = 2

# The registry export groups, in the order TelemetryRegistry::ToJson emits
# them. Empty groups are omitted from the export, never serialized as {}.
TELEMETRY_GROUPS = ("counters", "gauges", "histograms", "series")


# The machine fingerprint keys every bench JSON file records.
FINGERPRINT_KEYS = ("nproc", "cpu_model", "compiler", "build_type")


def load_payload(path):
    """(cases by name, machine fingerprint or None) of one bench JSON file."""
    with open(path) as handle:
        payload = json.load(handle)
    cases = {case["name"]: case for case in payload.get("cases", [])}
    return cases, payload.get("machine")


def check_fingerprint(base_machine, cur_machine):
    """Warns when the two runs' machines differ. Never fails the check."""
    if not base_machine or not cur_machine:
        missing = "baseline" if not base_machine else "current run"
        print(f"WARNING: {missing} carries no machine fingerprint; "
              "wall-time gates assume the same machine")
        return
    differing = [key for key in FINGERPRINT_KEYS
                 if base_machine.get(key) != cur_machine.get(key)]
    for key in differing:
        print(f"WARNING: machine {key} differs: baseline "
              f"{base_machine.get(key)!r} vs current {cur_machine.get(key)!r}")
    if not differing:
        print("OK: baseline and current run share a machine fingerprint")


def workload_jobs(case):
    """Jobs replayed by a row: `jobs`, or tenants x jobs_per_tenant."""
    if "jobs" in case:
        return case["jobs"]
    if "tenants" in case and "jobs_per_tenant" in case:
        return case["tenants"] * case["jobs_per_tenant"]
    return None


def allocs_per_job(case):
    """allocs/job for a case, or None when the row lacks the field."""
    allocs = case.get("allocs")
    jobs = workload_jobs(case)
    if allocs is None or not jobs:
        return None
    return allocs / jobs


def telemetry_schema_errors(telemetry):
    """Schema violations in an embedded registry export, [] when clean."""
    if not isinstance(telemetry, dict):
        return ["telemetry is not an object"]
    errors = []
    for group in telemetry:
        if group not in TELEMETRY_GROUPS:
            errors.append(f"unknown telemetry group '{group}'")
    for group in TELEMETRY_GROUPS:
        if group not in telemetry:
            continue
        metrics = telemetry[group]
        if not isinstance(metrics, dict):
            errors.append(f"telemetry group '{group}' is not an object")
            continue
        if not metrics:
            errors.append(f"telemetry group '{group}' is empty (must be omitted)")
        names = list(metrics)
        if names != sorted(names):
            errors.append(f"telemetry group '{group}' keys are not sorted")
        for metric in names:
            if "." not in metric:
                errors.append(
                    f"telemetry metric '{metric}' in '{group}' lacks a "
                    "dot namespace"
                )
        if group == "counters":
            for metric, value in metrics.items():
                if not isinstance(value, int) or value < 0:
                    errors.append(
                        f"counter '{metric}' is not a non-negative integer"
                    )
    return errors


def check_current_schema(current):
    """schema_version + telemetry schema for every current row. Returns failed."""
    failed = False
    for name in sorted(current):
        case = current[name]
        version = case.get("schema_version")
        if version != EXPECTED_SCHEMA_VERSION:
            print(
                f"FAIL: {name}: schema_version {version!r} "
                f"(expected {EXPECTED_SCHEMA_VERSION})"
            )
            failed = True
        if "telemetry" in case:
            errors = telemetry_schema_errors(case["telemetry"])
            for error in errors:
                print(f"FAIL: {name}: {error}")
            failed = failed or bool(errors)
    if not failed:
        print(
            f"OK: {len(current)} current rows at schema_version "
            f"{EXPECTED_SCHEMA_VERSION}, embedded telemetry well-formed"
        )
    return failed


def ceiling_verdict(name, label, cur, base, tolerance, warn_only, fmt):
    """One lower-is-better gate: cur may not exceed (1 + tolerance) x base."""
    if base > 0:
        ratio = cur / base
    else:
        ratio = float("inf") if cur > 0 else 1.0
    above = ratio > 1.0 + tolerance
    verdict = ("WARN" if warn_only else "FAIL") if above else "OK"
    print(
        f"{verdict}: {name}: {label} {cur:{fmt}} vs baseline {base:{fmt}} "
        f"(ratio {ratio:.3f}, ceiling {1.0 + tolerance:.2f})"
    )
    return verdict == "FAIL"


def check_perf_case(name, base, cur, tolerance, warn_only):
    """Wall time, per-round latency and allocs/job gates for one engine case.

    Returns failed.
    """
    fail_verdict = "WARN" if warn_only else "FAIL"
    base_jobs = workload_jobs(base)
    cur_jobs = workload_jobs(cur)
    if base_jobs is None or base_jobs != cur_jobs:
        print(
            f"{fail_verdict}: {name}: workload differs ({cur_jobs} jobs vs "
            f"baseline {base_jobs}); wall time compares only on the same trace"
        )
        return fail_verdict == "FAIL"

    # Gate 1: seconds per replay of the fixed trace.
    failed = ceiling_verdict(name, "wall_seconds", cur["wall_seconds"],
                             base["wall_seconds"], tolerance, warn_only, ".3f")
    jobs_per_sec = cur_jobs / cur["wall_seconds"] if cur["wall_seconds"] > 0 else 0.0
    base_eps = base.get("events_per_sec")
    cur_eps = cur.get("events_per_sec")
    if base_eps is not None and cur_eps is not None:
        print(f"INFO: {name}: {jobs_per_sec:,.0f} jobs/sec; events/sec "
              f"{cur_eps:,.0f} vs baseline {base_eps:,.0f} (not gated)")

    # Gate 2: scheduler wall time per round.
    if "sched_us_per_round" not in base:
        print(f"NOTE: {name}: sched_us_per_round not gated (no baseline field)")
    elif "sched_us_per_round" not in cur:
        print(f"{fail_verdict}: {name}: sched_us_per_round missing from current run")
        failed = failed or fail_verdict == "FAIL"
    else:
        failed |= ceiling_verdict(name, "sched_us_per_round", cur["sched_us_per_round"],
                                  base["sched_us_per_round"], tolerance, warn_only,
                                  ".2f")

    # Gate 3: allocations per job.
    base_apj = allocs_per_job(base)
    cur_apj = allocs_per_job(cur)
    if base_apj is None or cur_apj is None:
        print(f"NOTE: {name}: allocs/job not gated (field missing from a file)")
        return failed
    return ceiling_verdict(name, "allocs/job", cur_apj, base_apj, tolerance,
                           warn_only, ".2f") or failed


def check_quality_case(name, cur, cost_tol, jct_tol, warn_only):
    """Approximation-quality envelope for one quality_* row. Returns failed."""
    fail_verdict = "WARN" if warn_only else "FAIL"
    failed = False

    cost_delta = cur["cost_delta"]
    verdict = fail_verdict if cost_delta > cost_tol else "OK"
    print(
        f"{verdict}: {name}: cost delta {cost_delta:+.4f} "
        f"(incremental {cur.get('cost_incremental', 0.0):,.2f} vs exact "
        f"{cur.get('cost_exact', 0.0):,.2f}, ceiling +{cost_tol:.2f})"
    )
    failed = failed or verdict == "FAIL"

    jct_delta = cur["jct_delta"]
    verdict = fail_verdict if jct_delta > jct_tol else "OK"
    print(
        f"{verdict}: {name}: JCT delta {jct_delta:+.4f} "
        f"(incremental {cur.get('jct_incremental_hours', 0.0):.4f}h vs exact "
        f"{cur.get('jct_exact_hours', 0.0):.4f}h, ceiling +{jct_tol:.2f})"
    )
    failed = failed or verdict == "FAIL"

    done_exact = cur.get("jobs_completed_exact")
    done_inc = cur.get("jobs_completed_incremental")
    if done_exact is not None or done_inc is not None:
        verdict = "OK" if done_exact == done_inc else fail_verdict
        print(
            f"{verdict}: {name}: jobs completed {done_inc} incremental vs "
            f"{done_exact} exact"
        )
        failed = failed or verdict == "FAIL"
    return failed


def check_fault_case(name, cur, goodput_floor, warn_only):
    """Lost-jobs + goodput gates for one fault_* row. Returns failed."""
    fail_verdict = "WARN" if warn_only else "FAIL"
    failed = False

    done = cur.get("jobs_completed")
    done_fault_free = cur.get("jobs_completed_fault_free")
    verdict = "OK" if done == done_fault_free else fail_verdict
    print(
        f"{verdict}: {name}: jobs completed {done} under faults vs "
        f"{done_fault_free} fault-free"
    )
    failed = failed or verdict == "FAIL"

    goodput = cur["goodput_ratio"]
    verdict = fail_verdict if goodput < goodput_floor else "OK"
    print(
        f"{verdict}: {name}: goodput {goodput:.4f} "
        f"(lost work {cur.get('lost_work_hours', 0.0):.2f}h over "
        f"{cur.get('tasks_lost', 0)} tasks, floor {goodput_floor:.2f})"
    )
    return failed or verdict == "FAIL"


def run_checks(baseline, current, names, tolerance, cost_tol, jct_tol,
               goodput_floor=0.50, warn_only_names=WARN_ONLY):
    failed = check_current_schema(current)
    for name in names:
        warn_only = name in warn_only_names
        missing_verdict = "WARN" if warn_only else "FAIL"
        if name not in current:
            print(f"{missing_verdict}: case '{name}' missing from current run")
            failed = failed or not warn_only
            continue
        if name.startswith("quality_"):
            failed |= check_quality_case(name, current[name], cost_tol, jct_tol, warn_only)
            continue
        if name.startswith("fault_"):
            failed |= check_fault_case(name, current[name], goodput_floor, warn_only)
            continue
        if name not in baseline:
            print(f"{missing_verdict}: case '{name}' missing from baseline")
            failed = failed or not warn_only
            continue
        failed |= check_perf_case(name, baseline[name], current[name], tolerance, warn_only)
    return failed


def selftest():
    """The gates must fire on known-bad fixtures and stay green on good ones."""
    good_perf = {
        "name": "c",
        "schema_version": EXPECTED_SCHEMA_VERSION,
        "jobs": 100,
        "wall_seconds": 1.0,
        "sched_us_per_round": 10.0,
        "events": 1000,
        "events_per_sec": 1000.0,
        "allocs": 50,
    }
    good_sweep = {
        "name": "c",
        "schema_version": EXPECTED_SCHEMA_VERSION,
        "tenants": 10,
        "jobs_per_tenant": 4,
        "wall_seconds": 2.0,
        "events": 500,
        "events_per_sec": 250.0,
    }
    good_quality = {
        "name": "quality_c",
        "schema_version": EXPECTED_SCHEMA_VERSION,
        "cost_delta": 0.05,
        "jct_delta": -0.01,
        "jobs_completed_exact": 10,
        "jobs_completed_incremental": 10,
    }
    good_fault = {
        "name": "fault_c",
        "schema_version": EXPECTED_SCHEMA_VERSION,
        "jobs_completed": 10,
        "jobs_completed_fault_free": 10,
        "goodput_ratio": 0.85,
        "lost_work_hours": 12.5,
        "tasks_lost": 4,
    }
    good_telemetry = {
        "counters": {"sim.events_processed": 1000, "sim.jobs_completed": 10},
        "gauges": {"sim.total_cost": 12.5},
    }

    def variant(base, **overrides):
        """Copy of `base` with overrides applied; a None value deletes the key."""
        case = dict(base)
        for key, value in overrides.items():
            if value is None:
                case.pop(key, None)
            else:
                case[key] = value
        return case

    scenarios = [
        # (description, baseline case, current case, names, must_fail[,
        #  warn-only names])
        ("all gates green", good_perf, good_perf, ["c", "quality_c"], False),
        # Fewer events in the same wall time is not a regression.
        ("events/sec drop alone", good_perf,
         variant(good_perf, events=20, events_per_sec=20.0), ["c"], False),
        ("wall time rise", good_perf, variant(good_perf, wall_seconds=1.3),
         ["c"], True),
        ("sched us/round rise", good_perf,
         variant(good_perf, sched_us_per_round=12.5), ["c"], True),
        ("sched us/round dropped from current", good_perf,
         variant(good_perf, sched_us_per_round=None), ["c"], True),
        ("allocs/job jump", good_perf, variant(good_perf, allocs=500), ["c"], True),
        # allocs/job, not allocs/event: far fewer events must not read as a leak.
        ("allocs/job flat as events fall", good_perf,
         variant(good_perf, events=20), ["c"], False),
        # Same allocs/job and wall time on twice the jobs: only the workload
        # check can catch it.
        ("workload differs", good_perf, variant(good_perf, jobs=200, allocs=100),
         ["c"], True),
        ("sweep row green", good_sweep, good_sweep, ["c"], False),
        ("sweep wall time rise", good_sweep,
         variant(good_sweep, wall_seconds=2.6), ["c"], True),
        ("sweep workload differs", good_sweep,
         variant(good_sweep, jobs_per_tenant=2), ["c"], True),
        ("missing current case", good_perf, None, ["c"], True),
        # A warn-only case reports its regressions but never fails.
        ("warn-only wall time rise", good_sweep,
         variant(good_sweep, wall_seconds=2.6), ["c"], False, {"c"}),
        ("warn-only missing current case", good_perf, None, ["c"], False, {"c"}),
        ("cost delta over ceiling", None, variant(good_quality, cost_delta=0.25),
         ["quality_c"], True),
        ("jct delta over ceiling", None, variant(good_quality, jct_delta=0.10),
         ["quality_c"], True),
        ("lost jobs", None, variant(good_quality, jobs_completed_incremental=9),
         ["quality_c"], True),
        ("fault gates green", None, good_fault, ["fault_c"], False),
        ("fault lost jobs", None, variant(good_fault, jobs_completed=9),
         ["fault_c"], True),
        ("goodput below floor", None, variant(good_fault, goodput_ratio=0.30),
         ["fault_c"], True),
        ("missing schema_version", good_perf,
         variant(good_perf, schema_version=None), ["c"], True),
        ("stale schema_version", good_perf,
         variant(good_perf, schema_version=EXPECTED_SCHEMA_VERSION - 1),
         ["c"], True),
        ("well-formed telemetry", good_perf,
         variant(good_perf, telemetry=good_telemetry), ["c"], False),
        ("telemetry unknown group", good_perf,
         variant(good_perf, telemetry={"totals": {"sim.events": 1}}),
         ["c"], True),
        ("telemetry unsorted keys", good_perf,
         variant(good_perf, telemetry={
             "counters": {"sim.jobs_completed": 10, "sim.events_processed": 1000},
         }), ["c"], True),
        ("telemetry empty group", good_perf,
         variant(good_perf, telemetry={"counters": {}}), ["c"], True),
        ("telemetry non-namespaced metric", good_perf,
         variant(good_perf, telemetry={"gauges": {"cost": 1.0}}), ["c"], True),
    ]
    broken = False
    for description, base_case, cur_case, names, must_fail, *warn in scenarios:
        baseline = {"c": base_case} if base_case else {}
        current = {}
        if cur_case is not None:
            current[cur_case["name"]] = cur_case
        if "quality_c" in names and "quality_c" not in current:
            current["quality_c"] = good_quality
        if "c" in names and cur_case is None:
            pass  # "missing current case" scenario.
        elif "c" in names and "c" not in current:
            current["c"] = cur_case
        failed = run_checks(baseline, current, names, 0.20, 0.10, 0.05,
                            warn_only_names=warn[0] if warn else frozenset())
        ok = failed == must_fail
        print(f"{'PASS' if ok else 'BROKEN'}: selftest '{description}' "
              f"(expected {'failure' if must_fail else 'success'})")
        broken = broken or not ok
    return 1 if broken else 0


def main(argv):
    if len(argv) == 2 and argv[1] == "--selftest":
        return selftest()
    if len(argv) < 4:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    baseline_path, current_path = argv[1], argv[2]
    names = argv[3:]
    tolerance = float(os.environ.get("EVA_BENCH_TOLERANCE", "0.20"))
    cost_tol = float(os.environ.get("EVA_QUALITY_COST_TOL", "0.10"))
    jct_tol = float(os.environ.get("EVA_QUALITY_JCT_TOL", "0.05"))
    goodput_floor = float(os.environ.get("EVA_FAULT_GOODPUT_FLOOR", "0.50"))

    baseline, base_machine = load_payload(baseline_path)
    current, cur_machine = load_payload(current_path)
    check_fingerprint(base_machine, cur_machine)
    failed = run_checks(baseline, current, names, tolerance, cost_tol, jct_tol,
                        goodput_floor)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
