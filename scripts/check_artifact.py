#!/usr/bin/env python3
"""Schema check for the bench-smoke JSON artifacts.

Usage: check_artifact.py <kind> <path>
       check_artifact.py --self-test
       (kind: smoke | hotpath)

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
}


class SchemaError(Exception):
    """A schema violation; the message describes the first one found."""


def type_ok(value, expected) -> bool:
    """isinstance with JSON semantics: no schema expects a bool, and Python's
    bool subclasses int, so a plain isinstance would let `true` pass for an
    int metric."""
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
    return f"ARTIFACT-SCHEMA-OK: {path} matches the '{kind}' schema"


# --self-test fixtures: (name, kind, payload-or-None, expect_ok).
# payload None means "file is not JSON at all".
_VALID_SMOKE = {
    "schema": 1,
    "workload": "tm1",
    "strategy": "K-SET",
    "transactions": 4096,
    "committed": 4096,
    "aborted": 0,
    "generation_ms": 0.4,
    "execution_ms": 0.9,
    "transfer_ms": 0.2,
    "total_ms": 1.5,
    "throughput_ktps": 2730.7,
    "wall_serial_ms": 1.1,
    "wall_parallel4_ms": 0.6,
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


def _self_test_cases():
    zero_committed = dict(_VALID_SMOKE, committed=0)
    missing = {k: v for k, v in _VALID_SMOKE.items() if k != "throughput_ktps"}
    string_for_number = dict(_VALID_SMOKE, total_ms="1.5")
    bool_for_int = dict(_VALID_HOTPATH, transactions=True)
    zero_planned = dict(_VALID_HOTPATH, tm1_planned_ms=0.0)
    return [
        ("smoke-valid", "smoke", _VALID_SMOKE, True),
        ("smoke-zero-committed", "smoke", zero_committed, False),
        ("smoke-missing-key", "smoke", missing, False),
        ("smoke-number-as-string", "smoke", string_for_number, False),
        ("hotpath-valid", "hotpath", _VALID_HOTPATH, True),
        ("hotpath-bool-for-int", "hotpath", bool_for_int, False),
        ("hotpath-zero-planned", "hotpath", zero_planned, False),
        ("unknown-kind", "nosuchschema", _VALID_SMOKE, False),
        ("not-json", "smoke", None, False),
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
