#!/usr/bin/env python3
"""Schema check for the bench-smoke JSON artifacts.

Usage: check_artifact.py <kind> <path>
       check_artifact.py --self-test
       (kind: smoke | pipeline | hotpath | durability | net | replication |
              htap | chaos | tpcc)

CI runs this against every figures artifact before uploading it, so a
silently-empty or truncated figures run (missing keys, zero transactions, no
throughput) fails the job instead of uploading a useless artifact. An
unknown schema kind is a hard error: a typo in the workflow must fail the
job, not skip the check. `--self-test` runs the checker against built-in
expect-pass/expect-fail fixtures (the lint job runs it on every PR).
"""

import json
import sys
import tempfile

NUMBER = (int, float)

SCHEMAS = {
    # `figures -- smoke --json`
    "smoke": {
        "required": {
            "schema": int,
            "workload": str,
            "strategy": str,
            "transactions": int,
            "committed": int,
            "aborted": int,
            "generation_ms": NUMBER,
            "execution_ms": NUMBER,
            "transfer_ms": NUMBER,
            "total_ms": NUMBER,
            "throughput_ktps": NUMBER,
            "wall_serial_ms": NUMBER,
            "wall_parallel4_ms": NUMBER,
        },
        # A smoke run that executed nothing is a failure, not a data point.
        "positive": ["transactions", "committed", "total_ms", "throughput_ktps"],
    },
    # `figures -- pipeline --json`
    "pipeline": {
        "required": {
            "schema": int,
            "experiment": str,
            "workload": str,
            "transactions": int,
            "committed": int,
            "aborted": int,
            "bulks": int,
            "throughput_tps": NUMBER,
            "p50_ms": NUMBER,
            "p99_ms": NUMBER,
            "occupancy_admission": NUMBER,
            "occupancy_grouping": NUMBER,
            "occupancy_execution": NUMBER,
            "occupancy_commit": NUMBER,
            "bottleneck": str,
        },
        "positive": ["transactions", "committed", "bulks", "throughput_tps", "p99_ms"],
    },
    # `figures -- hotpath --json`
    "hotpath": {
        "required": {
            "schema": int,
            "experiment": str,
            "transactions": int,
            "tm1_unplanned_ms": NUMBER,
            "tm1_planned_ms": NUMBER,
            "tm1_plan_build_ms": NUMBER,
            "tm1_speedup": NUMBER,
        },
        "positive": ["transactions", "tm1_unplanned_ms", "tm1_planned_ms", "tm1_speedup"],
    },
    # `figures -- durability --json`
    "durability": {
        "required": {
            "schema": int,
            "experiment": str,
            "transactions": int,
            "tm1_unlogged_tps": NUMBER,
            "tm1_perbulk_tps": NUMBER,
            "tm1_everyn8_tps": NUMBER,
            "tm1_async_tps": NUMBER,
            "tm1_wal_bytes": int,
            "tm1_recovery_ms": NUMBER,
            "tm1_replayed_bulks": int,
            "tpcb_unlogged_tps": NUMBER,
            "tpcb_perbulk_tps": NUMBER,
            "tpcb_everyn8_tps": NUMBER,
            "tpcb_async_tps": NUMBER,
            "tpcb_wal_bytes": int,
            "tpcb_recovery_ms": NUMBER,
            "tpcb_replayed_bulks": int,
        },
        # A durability run that logged nothing or recovered nothing proves
        # nothing — the figures binary also hard-asserts recovered == live.
        "positive": [
            "transactions",
            "tm1_unlogged_tps",
            "tm1_perbulk_tps",
            "tm1_wal_bytes",
            "tm1_replayed_bulks",
            "tpcb_unlogged_tps",
            "tpcb_perbulk_tps",
            "tpcb_wal_bytes",
            "tpcb_replayed_bulks",
        ],
    },
    # `figures -- net --json`
    "net": {
        "required": {
            "schema": int,
            "experiment": str,
            "workload": str,
            "mode": str,
            "connections": int,
            "elapsed_secs": NUMBER,
            "committed": int,
            "throughput_tps": NUMBER,
            "tpm": NUMBER,
            "submitted_total": int,
            "resolved_total": int,
            "unmatched_total": int,
            "per_type": list,
        },
        "positive": ["connections", "committed", "throughput_tps", "tpm"],
        # Each per_type element is a flat object with these keys; latency
        # percentiles may be 0 for types that never finished a transaction.
        "list_items": {
            "per_type": {
                "name": str,
                "committed": int,
                "aborted": int,
                "queue_full": int,
                "bulk_failed": int,
                "errors": int,
                "p50_us": int,
                "p95_us": int,
                "p99_us": int,
            }
        },
    },
    # `figures -- replication --json`
    "replication": {
        "required": {
            "schema": int,
            "experiment": str,
            "transactions": int,
            "bulks": int,
            "f0_tps": NUMBER,
            "f1_tps": NUMBER,
            "f2_tps": NUMBER,
            "f1_lag_p50_us": NUMBER,
            "f1_lag_p99_us": NUMBER,
            "f2_lag_p50_us": NUMBER,
            "f2_lag_p99_us": NUMBER,
            "records_shed": int,
        },
        # Lag percentiles may legitimately be 0 (sampler can observe the
        # apply before the primary stamps its commit), but a run that
        # committed nothing at any follower count proves nothing.
        "positive": ["transactions", "bulks", "f0_tps", "f1_tps", "f2_tps"],
    },
    # `figures -- htap --json`
    "htap": {
        "required": {
            "schema": int,
            "experiment": str,
            "tm1_txn_tps": NUMBER,
            "tm1_scans": int,
            "tm1_scan_p50_ms": NUMBER,
            "tm1_scan_p99_ms": NUMBER,
            "tm1_cut_p50_us": NUMBER,
            "tm1_cut_p99_us": NUMBER,
            "tpcb_txn_tps": NUMBER,
            "tpcb_scans": int,
            "tpcb_scan_p50_ms": NUMBER,
            "tpcb_scan_p99_ms": NUMBER,
            "tpcb_cut_p50_us": NUMBER,
            "tpcb_cut_p99_us": NUMBER,
            "replica_scan_ms": NUMBER,
            "consistent": bool,
        },
        # An HTAP run that committed nothing or never scanned proves
        # nothing; cut costs may round to 0 at clock resolution.
        "positive": ["tm1_txn_tps", "tm1_scans", "tpcb_txn_tps", "tpcb_scans"],
    },
    # `figures -- chaos --json`
    "chaos": {
        "required": {
            "schema": int,
            "experiment": str,
            "seeds": int,
            "transactions": int,
            "committed": int,
            "ambiguous": int,
            "faults_injected": int,
            "wal_heals": int,
            "client_reconnects": int,
            "replica_reconnects": int,
            "throughput_tps": NUMBER,
            "convergence": bool,
        },
        # A chaos run that injected no faults or committed nothing exercised
        # nothing; heal/reconnect counters may legitimately be 0 per seed but
        # the fault storm itself must have fired.
        "positive": ["seeds", "transactions", "committed", "faults_injected"],
    },
    # `figures -- tpcc --json`
    "tpcc": {
        "required": {
            "schema": int,
            "experiment": str,
            "workload": str,
            "warehouses": int,
            "connections": int,
            "elapsed_secs": NUMBER,
            "committed": int,
            "throughput_tps": NUMBER,
            "tpm": NUMBER,
            "tpm_c": NUMBER,
            "wire_decisions": int,
            "per_type": list,
            "ledger": dict,
        },
        # A TPC-C run that committed no NewOrders (tpm_c == 0) or made no
        # adaptive decisions on the wire path proves nothing.
        "positive": ["connections", "committed", "throughput_tps", "tpm_c", "wire_decisions"],
        "list_items": {
            "per_type": {
                "name": str,
                "committed": int,
                "aborted": int,
                "share": NUMBER,
            }
        },
    },
}


class SchemaError(Exception):
    """A schema violation; the message describes the first one found."""


def type_ok(value, expected) -> bool:
    """isinstance with JSON semantics: bool is only valid when the schema
    explicitly expects bool (Python's bool subclasses int, so a plain
    isinstance would let `true` pass for an int metric)."""
    if expected is bool:
        return isinstance(value, bool)
    return isinstance(value, expected) and not isinstance(value, bool)


def check(kind: str, path: str) -> str:
    """Validate one artifact; returns the OK message or raises SchemaError."""

    def fail(msg: str) -> None:
        raise SchemaError(msg)

    if kind not in SCHEMAS:
        fail(f"unknown schema kind '{kind}' (known: {', '.join(sorted(SCHEMAS))})")
    schema = SCHEMAS[kind]
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: cannot read/parse JSON: {e}")
    if not isinstance(data, dict):
        fail(f"{path}: top level must be an object, got {type(data).__name__}")
    for key, expected in schema["required"].items():
        if key not in data:
            fail(f"{path}: missing required key '{key}'")
        if not type_ok(data[key], expected):
            fail(
                f"{path}: key '{key}' has type {type(data[key]).__name__}, "
                f"expected {expected}"
            )
    for key in schema["positive"]:
        if not data[key] > 0:
            fail(f"{path}: key '{key}' must be > 0 (got {data[key]}) — empty run?")
    for key, item_schema in schema.get("list_items", {}).items():
        if not data[key]:
            fail(f"{path}: list '{key}' must not be empty — empty run?")
        for i, item in enumerate(data[key]):
            if not isinstance(item, dict):
                fail(f"{path}: {key}[{i}] must be an object")
            for ikey, expected in item_schema.items():
                if ikey not in item:
                    fail(f"{path}: {key}[{i}] missing required key '{ikey}'")
                if not type_ok(item[ikey], expected):
                    fail(
                        f"{path}: {key}[{i}].{ikey} has type "
                        f"{type(item[ikey]).__name__}, expected {expected}"
                    )
    if kind == "pipeline" and data["p99_ms"] < data["p50_ms"]:
        fail(f"{path}: p99 ({data['p99_ms']}) below p50 ({data['p50_ms']})")
    if kind == "net":
        if data["submitted_total"] != data["resolved_total"]:
            fail(
                f"{path}: submitted_total ({data['submitted_total']}) != "
                f"resolved_total ({data['resolved_total']}) — lost resolutions"
            )
        if data["unmatched_total"] != 0:
            fail(f"{path}: unmatched_total must be 0 (got {data['unmatched_total']})")
    if kind == "htap":
        for wl in ("tm1", "tpcb"):
            if data[f"{wl}_scan_p99_ms"] < data[f"{wl}_scan_p50_ms"]:
                fail(
                    f"{path}: {wl} scan p99 ({data[f'{wl}_scan_p99_ms']}) below "
                    f"p50 ({data[f'{wl}_scan_p50_ms']})"
                )
            if data[f"{wl}_cut_p99_us"] < data[f"{wl}_cut_p50_us"]:
                fail(
                    f"{path}: {wl} cut p99 ({data[f'{wl}_cut_p99_us']}) below "
                    f"p50 ({data[f'{wl}_cut_p50_us']})"
                )
        if data["consistent"] is not True:
            fail(f"{path}: 'consistent' must be true — a scan diverged from replay")
    if kind == "chaos":
        if data["convergence"] is not True:
            fail(f"{path}: 'convergence' must be true — a storm run diverged")
        # Engine commits and client-side ambiguous resolutions overlap (an
        # ambiguous submit may have committed), so each is bounded by the
        # submitted total but their sum is not.
        for key in ("committed", "ambiguous"):
            if data[key] > data["transactions"]:
                fail(
                    f"{path}: {key} ({data[key]}) exceeds transactions "
                    f"({data['transactions']}) — duplicated resolutions"
                )
    if kind == "tpcc":
        ledger = data["ledger"]
        ledger_schema = {
            "transactions": int,
            "committed": int,
            "bulks": int,
            "decisions": dict,
            "switches": int,
            "strategies_used": int,
        }
        for lkey, expected in ledger_schema.items():
            if lkey not in ledger:
                fail(f"{path}: ledger missing required key '{lkey}'")
            if not type_ok(ledger[lkey], expected):
                fail(
                    f"{path}: ledger.{lkey} has type {type(ledger[lkey]).__name__}, "
                    f"expected {expected}"
                )
        decisions = ledger["decisions"]
        for strategy in ("kset", "part", "tpl"):
            if not type_ok(decisions.get(strategy), int):
                fail(f"{path}: ledger.decisions.{strategy} must be an int")
        if ledger["bulks"] <= 0 or ledger["committed"] <= 0:
            fail(f"{path}: the ledger pass executed nothing — empty run?")
        total = sum(decisions[s] for s in ("kset", "part", "tpl"))
        if total != ledger["bulks"]:
            fail(
                f"{path}: ledger decisions sum to {total} but {ledger['bulks']} "
                f"bulks ran — unaccounted strategy decisions"
            )
        used = sum(1 for s in ("kset", "part", "tpl") if decisions[s] > 0)
        if used < 2 or ledger["strategies_used"] != used:
            fail(
                f"{path}: the ledger decision histogram must be non-degenerate "
                f"(>= 2 strategies; got {decisions}, strategies_used "
                f"{ledger['strategies_used']})"
            )
    return f"ARTIFACT-SCHEMA-OK: {path} matches the '{kind}' schema"


# --self-test fixtures: (name, kind, payload-or-None, expect_ok).
# payload None means "file is not JSON at all".
_VALID_HTAP = {
    "schema": 1,
    "experiment": "htap",
    "tm1_txn_tps": 50_000.0,
    "tm1_scans": 48,
    "tm1_scan_p50_ms": 0.5,
    "tm1_scan_p99_ms": 5.2,
    "tm1_cut_p50_us": 5.0,
    "tm1_cut_p99_us": 640.0,
    "tpcb_txn_tps": 180_000.0,
    "tpcb_scans": 23,
    "tpcb_scan_p50_ms": 0.9,
    "tpcb_scan_p99_ms": 1.8,
    "tpcb_cut_p50_us": 60.0,
    "tpcb_cut_p99_us": 130.0,
    "replica_scan_ms": 0.5,
    "consistent": True,
}

_VALID_CHAOS = {
    "schema": 1,
    "experiment": "chaos",
    "seeds": 2,
    "transactions": 2400,
    "committed": 725,
    "ambiguous": 2261,
    "faults_injected": 120,
    "wal_heals": 2,
    "client_reconnects": 17,
    "replica_reconnects": 2,
    "throughput_tps": 1168.4,
    "convergence": True,
}

_VALID_REPLICATION = {
    "schema": 1,
    "experiment": "replication",
    "transactions": 12288,
    "bulks": 48,
    "f0_tps": 1000.0,
    "f1_tps": 990.0,
    "f2_tps": 980.0,
    "f1_lag_p50_us": 10.0,
    "f1_lag_p99_us": 50.0,
    "f2_lag_p50_us": 12.0,
    "f2_lag_p99_us": 60.0,
    "records_shed": 0,
}


_VALID_HOTPATH = {
    "schema": 1,
    "experiment": "hotpath",
    "transactions": 65536,
    "tm1_unplanned_ms": 60.1,
    "tm1_planned_ms": 31.7,
    "tm1_plan_build_ms": 29.5,
    "tm1_speedup": 1.896,
}


_VALID_TPCC = {
    "schema": 1,
    "experiment": "tpcc",
    "workload": "tpcc",
    "warehouses": 2,
    "connections": 2,
    "elapsed_secs": 1.5,
    "committed": 83155,
    "throughput_tps": 55436.7,
    "tpm": 3326200.0,
    "tpm_c": 1510960.0,
    "wire_decisions": 2989,
    "per_type": [
        {"name": "NEW_ORDER", "committed": 37774, "aborted": 0, "share": 44.8},
        {"name": "PAYMENT", "committed": 36165, "aborted": 0, "share": 42.9},
    ],
    "ledger": {
        "transactions": 2048,
        "committed": 2048,
        "bulks": 8,
        "decisions": {"kset": 4, "part": 0, "tpl": 4},
        "switches": 7,
        "strategies_used": 2,
    },
}


def _tpcc_with_ledger(**overrides):
    fixture = dict(_VALID_TPCC)
    fixture["ledger"] = dict(_VALID_TPCC["ledger"], **overrides)
    return fixture


def _self_test_cases():
    inconsistent = dict(_VALID_HTAP, consistent=False)
    crossed = dict(_VALID_HTAP, tm1_scan_p50_ms=9.0)
    missing = {k: v for k, v in _VALID_HTAP.items() if k != "tm1_scans"}
    bool_for_int = dict(_VALID_REPLICATION, records_shed=True)
    string_flag = dict(_VALID_HTAP, consistent="true")
    zero_scans = dict(_VALID_HTAP, tpcb_scans=0)
    diverged = dict(_VALID_CHAOS, convergence=False)
    no_faults = dict(_VALID_CHAOS, faults_injected=0)
    dup_commits = dict(_VALID_CHAOS, committed=2401)
    zero_tpmc = dict(_VALID_TPCC, tpm_c=0.0)
    bad_decision_sum = _tpcc_with_ledger(decisions={"kset": 4, "part": 1, "tpl": 4})
    degenerate = _tpcc_with_ledger(decisions={"kset": 8, "part": 0, "tpl": 0}, strategies_used=1)
    miscounted_used = _tpcc_with_ledger(strategies_used=3)
    zero_planned = dict(_VALID_HOTPATH, tm1_planned_ms=0.0)
    return [
        ("hotpath-valid", "hotpath", _VALID_HOTPATH, True),
        ("hotpath-zero-planned", "hotpath", zero_planned, False),
        ("htap-valid", "htap", _VALID_HTAP, True),
        ("htap-inconsistent", "htap", inconsistent, False),
        ("htap-p50-above-p99", "htap", crossed, False),
        ("htap-missing-key", "htap", missing, False),
        ("htap-consistent-as-string", "htap", string_flag, False),
        ("htap-zero-scans", "htap", zero_scans, False),
        ("replication-valid", "replication", _VALID_REPLICATION, True),
        ("replication-bool-for-int", "replication", bool_for_int, False),
        ("chaos-valid", "chaos", _VALID_CHAOS, True),
        ("chaos-diverged", "chaos", diverged, False),
        ("chaos-no-faults", "chaos", no_faults, False),
        ("chaos-duplicated-commits", "chaos", dup_commits, False),
        ("tpcc-valid", "tpcc", _VALID_TPCC, True),
        ("tpcc-zero-tpmc", "tpcc", zero_tpmc, False),
        ("tpcc-decision-sum-mismatch", "tpcc", bad_decision_sum, False),
        ("tpcc-degenerate-histogram", "tpcc", degenerate, False),
        ("tpcc-miscounted-strategies-used", "tpcc", miscounted_used, False),
        ("unknown-kind", "nosuchschema", _VALID_HTAP, False),
        ("not-json", "htap", None, False),
    ]


def self_test() -> None:
    failures = []
    for name, kind, payload, expect_ok in _self_test_cases():
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
            f.write("{ not json" if payload is None else json.dumps(payload))
            path = f.name
        try:
            check(kind, path)
            ok = True
            detail = "accepted"
        except SchemaError as e:
            ok = False
            detail = str(e)
        if ok != expect_ok:
            failures.append(f"{name}: expected {'pass' if expect_ok else 'fail'}, got: {detail}")
    if failures:
        for failure in failures:
            print(f"ARTIFACT-SELFTEST-FAIL: {failure}", file=sys.stderr)
        sys.exit(1)
    print(f"ARTIFACT-SELFTEST-OK: {len(_self_test_cases())} cases behaved as expected")


def main() -> None:
    if len(sys.argv) == 2 and sys.argv[1] == "--self-test":
        self_test()
        return
    if len(sys.argv) != 3:
        print(
            f"ARTIFACT-SCHEMA-FAIL: usage: {sys.argv[0]} <{'|'.join(SCHEMAS)}> <path> "
            f"| {sys.argv[0]} --self-test",
            file=sys.stderr,
        )
        sys.exit(1)
    try:
        print(check(sys.argv[1], sys.argv[2]))
    except SchemaError as e:
        print(f"ARTIFACT-SCHEMA-FAIL: {e}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
