#!/usr/bin/env python3
"""Baseline gate: holds a run's counters to the rows of BENCH_BASELINE.json.

    check_bench_baseline.py --baseline BENCH_BASELINE.json --group NAME INPUT
    check_bench_baseline.py --baseline BENCH_BASELINE.json --self-test

BENCH_BASELINE.json maps each group name to {"comment": ..., "rows": [...]}.
A row is {"key": K, "op": OP, "value": V} with OP one of ==, <= and >=; a
tolerance is written into V (a count allowed to grow 10% has V = 1.1 x the
pinned count, rounded down).

INPUT is either a Chrome trace, whose last run.final instant event
supplies the keys in its args (litmus_explorer --trace-out PATH,
atlas_report --trace-out PATH), or one JSON object (bench_* --json,
validate_client --bench-out), whose nested members are flattened to
dotted keys (memo.states_explored). A row whose key the input lacks fails,
and so does a trace without a run.final event.

--self-test checks the comparator: for every row of every group, a value
just past the row's bound must fail, and so must a missing key; it also
checks the input reader on a trace without run.final, a trace with two,
and a JSONL file.
"""

import argparse
import json
import operator
import os
import sys
import tempfile

OPS = {"==": operator.eq, "<=": operator.le, ">=": operator.ge}


def fail(msg):
    # Named after the running script: tools/bench_trend.py shares this.
    tool = os.path.splitext(os.path.basename(sys.argv[0]))[0]
    print(f"{tool}: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


class GateError(Exception):
    pass


def load_baseline(path):
    """Returns {group: rows}, failing on any row that is not {key, op,
    value} with a known op."""
    with open(path) as f:
        groups = json.load(f)
    out = {}
    for name, group in groups.items():
        if set(group) != {"comment", "rows"} or not group["rows"]:
            fail(f"{path}: group '{name}' needs a comment and rows")
        for row in group["rows"]:
            if set(row) != {"key", "op", "value"} or row["op"] not in OPS:
                fail(f"{path}: group '{name}': bad row {row}")
        out[name] = group["rows"]
    return out


def flatten(obj, prefix=""):
    out = {}
    for k, v in obj.items():
        if isinstance(v, dict):
            out.update(flatten(v, f"{prefix}{k}."))
        else:
            out[f"{prefix}{k}"] = v
    return out


def load_values(path):
    """The keys INPUT supplies: a Chrome trace's last run.final args, or a
    JSON object flattened."""
    with open(path) as f:
        text = f.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        obj = None
    if not isinstance(obj, dict) or "ev" in obj:
        raise GateError(f"{path}: neither a Chrome trace (--trace-out PATH) "
                        "nor one JSON object; a JSONL event stream is not "
                        "read")
    if "traceEvents" not in obj:
        return flatten(obj)
    finals = [e.get("args", {}) for e in obj["traceEvents"]
              if e.get("ph") == "i" and e.get("name") == "run.final"]
    if not finals:
        raise GateError(f"no run.final event in {path} (was the run traced?)")
    return finals[-1]


def check(rows, values):
    """Returns one message per row of rows that values violates."""
    failures = []
    for row in rows:
        key, op, want = row["key"], row["op"], row["value"]
        if key not in values:
            failures.append(f"{key} missing from the input")
        elif not OPS[op](values[key], want):
            failures.append(f"{key} = {values[key]}, want {op} {want}")
    return failures


def past(row):
    """A value just past the row's bound."""
    v, op = row["value"], row["op"]
    if isinstance(v, bool):
        return not v
    step = 1 if isinstance(v, int) else max(abs(v), 1.0) * 1e-6
    return v - step if op == ">=" else v + step


def self_test(groups):
    def expect(cond, what):
        if not cond:
            fail(f"self-test: {what}")

    tripped = 0
    for name, rows in groups.items():
        at_bound = {r["key"]: r["value"] for r in rows}
        expect(not check(rows, at_bound), f"{name}: the bounds themselves fail")
        for row in rows:
            values = dict(at_bound, **{row["key"]: past(row)})
            expect(check(rows, values),
                   f"{name}: {row['key']} = {past(row)} passed {row['op']} "
                   f"{row['value']}")
            values = dict(at_bound)
            del values[row["key"]]
            expect(check(rows, values), f"{name}: missing {row['key']} passed")
            tripped += 1

    with tempfile.TemporaryDirectory() as tmp:
        def write(name, lines):
            path = os.path.join(tmp, name)
            with open(path, "w") as f:
                f.write("".join(json.dumps(x) + "\n" for x in lines))
            return path

        def rejected(path):
            try:
                load_values(path)
            except GateError as e:
                return str(e)
            return None

        def instant(name, **args):
            return {"name": name, "ph": "i", "ts": 0, "pid": 1, "tid": 0,
                    "args": args}

        span = {"name": "psna.explore", "ph": "B", "ts": 0, "pid": 1,
                "tid": 0}
        no_final = write("no-final.json", [{"traceEvents": [
            span, instant("psna.explore", states=3)]}])
        expect(rejected(no_final), "a trace without run.final was accepted")
        trace = write("trace.json", [{"traceEvents": [
            instant("run.final", reason="deadline", **{"a.b": 1}), span,
            instant("run.final", reason="complete", **{"a.b": 2})]}])
        expect(load_values(trace)["a.b"] == 2, "not the last run.final read")
        record = {"seq": 0, "ev": "run.final", "reason": "complete", "a.b": 2}
        for lines in (1, 2):
            msg = rejected(write("trace.jsonl", [record] * lines))
            expect(msg and "--trace-out" in msg,
                   f"a {lines}-line JSONL file was not rejected naming "
                   f"--trace-out ({msg})")
        obj = write("bench.json", [{"memo": {"enabled": True}, "jobs": 3}])
        expect(load_values(obj) == {"memo.enabled": True, "jobs": 3},
               "JSON object not flattened to dotted keys")

    print(f"check_bench_baseline: self-test OK: {tripped} rows in "
          f"{len(groups)} groups each failed past their bound and when "
          f"missing; a trace without run.final and a JSONL file failed, "
          f"and the last of two run.final events was read")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--baseline", required=True,
                    help="BENCH_BASELINE.json path")
    ap.add_argument("--group", help="the baseline group to check INPUT with")
    ap.add_argument("--self-test", action="store_true",
                    help="check the comparator against every baseline row")
    ap.add_argument("input", nargs="?",
                    help="Chrome trace (run.final) or JSON object")
    args = ap.parse_args()

    groups = load_baseline(args.baseline)
    if args.self_test:
        self_test(groups)
        return
    if not args.group or not args.input:
        ap.error("need --group NAME and INPUT (or --self-test)")
    if args.group not in groups:
        fail(f"no group '{args.group}' in {args.baseline} "
             f"(groups: {', '.join(sorted(groups))})")
    rows = groups[args.group]
    try:
        values = load_values(args.input)
    except (OSError, GateError) as e:
        fail(str(e))
    failures = check(rows, values)
    if failures:
        fail(f"group {args.group}: " + "; ".join(failures))
    print(f"check_bench_baseline: OK: group {args.group}: " +
          ", ".join(f"{r['key']}={values[r['key']]}" for r in rows))


if __name__ == "__main__":
    main()
