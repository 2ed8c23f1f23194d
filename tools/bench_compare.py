#!/usr/bin/env python3
"""Compare two merged benchmark baselines produced by tools/bench.sh.

Usage:
  tools/bench_compare.py BASELINE.json CURRENT.json [options]

Options:
  --threshold X    regression threshold as a ratio (default 1.25: fail if
                   current time > 1.25x baseline time on any benchmark)
  --metric NAME    time field to compare: real_time (default) or cpu_time.
                   cpu_time is the calling thread's CPU time, which for a
                   benchmark that hands work to a thread pool leaves out
                   the workers
  --counters       also print counter deltas (allocs_per_iter,
                   losing_side_visited, RuntimeMetrics counters, ...)
  --min-ns X       ignore benchmarks whose baseline time is below X ns
                   (micro-benchmarks under ~50ns are noise-dominated on a
                   loaded machine; default 0 = compare everything)

Exit status: 0 when no benchmark regressed beyond the threshold, 1
otherwise. Intended for local use and pre-merge checks; CI runs the
benches in smoke mode only (tools/ci.sh) and does not gate on thresholds.
"""

import argparse
import json
import sys


def load(path):
    """Load a merged baseline, exiting with a one-line diagnostic (no
    traceback) when the file is missing, unreadable, or not JSON."""
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        sys.exit(f"{path}: cannot read baseline: {e.strerror or e}")
    except json.JSONDecodeError as e:
        sys.exit(f"{path}: malformed JSON: {e} (regenerate with tools/bench.sh)")
    if not isinstance(data, dict) or data.get("schema") != "fearless-bench-v1":
        sys.exit(f"{path}: not a fearless-bench-v1 file (see tools/bench.sh)")
    entries = {}
    for bench, payload in data.get("benches", {}).items():
        if not isinstance(payload, dict):
            continue
        for bm in payload.get("benchmarks", []):
            # aggregate entries (mean/median/stddev) would double-count
            if not isinstance(bm, dict) or "name" not in bm:
                continue
            if bm.get("run_type") == "aggregate":
                continue
            entries[f"{bench}/{bm['name']}"] = bm
    return entries


def counter_rows(bc, cc):
    """Yield (key, base_val, cur_val) for every numeric counter in either
    run.

    A key present on only one side yields None for the missing value: a
    new or removed metric is an informational row, never a KeyError and
    never a regression. (Counters appear and disappear across PRs — e.g.
    a new elision counter exists only in the newer baseline.)
    """
    for k in sorted(set(bc) | set(cc)):
        if k in ("cpu_time", "real_time", "iterations"):
            continue
        b, c = bc.get(k), cc.get(k)
        if b is not None and not isinstance(b, (int, float)):
            continue
        if c is not None and not isinstance(c, (int, float)):
            continue
        yield k, b, c


def self_test():
    """Sanity-check counter_rows and load()'s one-line error handling."""
    bc = {"allocs_per_iter": 0, "gone": 7, "cpu_time": 12.5, "name": "x"}
    cc = {"allocs_per_iter": 1, "elided_checks": 3, "cpu_time": 11.0}
    rows = list(counter_rows(bc, cc))
    assert rows == [
        ("allocs_per_iter", 0, 1),
        ("elided_checks", None, 3),
        ("gone", 7, None),
    ], rows
    # No numeric counters at all: no rows, no exceptions.
    assert list(counter_rows({"name": "x"}, {})) == []

    # load() must exit with a one-line message — never a traceback — on
    # missing, malformed, wrong-schema, and wrong-shape inputs.
    import tempfile

    def expect_exit(path, needle):
        try:
            load(path)
        except SystemExit as e:
            msg = str(e.code)
            assert needle in msg, f"expected {needle!r} in {msg!r}"
            assert "Traceback" not in msg
            return
        raise AssertionError(f"load({path!r}) did not exit")

    expect_exit("/nonexistent/baseline.json", "cannot read baseline")
    cases = [
        ("{not json", "malformed JSON"),
        ('{"schema": "something-else"}', "not a fearless-bench-v1 file"),
        ('["fearless-bench-v1"]', "not a fearless-bench-v1 file"),
    ]
    for content, needle in cases:
        with tempfile.NamedTemporaryFile("w", suffix=".json") as f:
            f.write(content)
            f.flush()
            expect_exit(f.name, needle)
    # A valid file with degenerate entries loads without KeyError.
    with tempfile.NamedTemporaryFile("w", suffix=".json") as f:
        json.dump(
            {
                "schema": "fearless-bench-v1",
                "benches": {
                    "b": {"benchmarks": [{"run_type": "aggregate"}, {}, 3]},
                    "c": "not-a-dict",
                },
            },
            f,
        )
        f.flush()
        assert load(f.name) == {}

    # A benchmark deleted between the two runs is reported as removed,
    # never as a regression: the comparison still exits 0.
    import contextlib
    import io

    def baseline_file(names):
        f = tempfile.NamedTemporaryFile("w", suffix=".json")
        json.dump(
            {
                "schema": "fearless-bench-v1",
                "benches": {
                    "b": {"benchmarks": [{"name": n, "cpu_time": 10.0}
                                         for n in names]},
                },
            },
            f,
        )
        f.flush()
        return f

    def run_main(*args):
        out = io.StringIO()
        argv = sys.argv
        sys.argv = ["bench_compare.py", *args]
        try:
            with contextlib.redirect_stdout(out):
                status = main()
        finally:
            sys.argv = argv
        return status, out.getvalue()

    with baseline_file(["BM_Kept", "BM_Gone/64"]) as old, \
            baseline_file(["BM_Kept"]) as new:
        status, text = run_main(old.name, new.name)
        assert status == 0, text
        assert "removed: only in baseline (1):\n  b/BM_Gone/64" in text, text
        assert "0 regression(s)" in text, text

    def entries_file(entries):
        f = tempfile.NamedTemporaryFile("w", suffix=".json")
        json.dump({"schema": "fearless-bench-v1",
                   "benches": {"b": {"benchmarks": entries}}}, f)
        f.flush()
        return f

    # A millisecond entry prints in milliseconds, not as nanoseconds, and
    # its ratio is unit-independent.
    ms_old = {"name": "BM_FanIn/10000", "time_unit": "ms",
              "real_time": 3.2, "cpu_time": 3.2}
    ms_new = dict(ms_old, real_time=3.3, cpu_time=3.3)
    with entries_file([ms_old]) as old, entries_file([ms_new]) as new:
        status, text = run_main(old.name, new.name)
        assert status == 0, text
        assert "3.20 ms" in text and "3.30 ms" in text, text
        assert " ns" not in text, text
    # The same time in another unit compares equal.
    with entries_file([ms_old]) as old, \
            entries_file([dict(ms_old, time_unit="us", real_time=3200.0)]) \
            as new:
        status, text = run_main(old.name, new.name)
        assert status == 0 and "1.00x" in text, text

    # A pool benchmark: the main thread's cpu_time tripled while the wall
    # time held. The default (real_time) sees no regression; asking for
    # cpu_time still can.
    mt_old = {"name": "BM_Pool/threads:4", "time_unit": "us",
              "real_time": 100.0, "cpu_time": 5.0, "threads": 4}
    mt_new = dict(mt_old, real_time=102.0, cpu_time=15.0)
    with entries_file([mt_old]) as old, entries_file([mt_new]) as new:
        status, text = run_main(old.name, new.name)
        assert status == 0, text
        assert "on real_time" in text and "1.02x" in text, text
        status, text = run_main(old.name, new.name, "--metric", "cpu_time")
        assert status == 1 and "REGRESSION" in text, text
    print("bench_compare self-test: OK")
    return 0


# Google Benchmark reports each entry's times in its "time_unit".
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def entry_time(entry, metric):
    """(value, unit, value in ns) of an entry's metric; None when the
    entry has no such time or an unknown unit."""
    value = entry.get(metric)
    unit = entry.get("time_unit", "ns")
    if not isinstance(value, (int, float)) or unit not in NS_PER_UNIT:
        return None
    return value, unit, value * NS_PER_UNIT[unit]


def fmt_time(value, unit):
    return f"{value:10.2f} {unit:>2}"


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("baseline", nargs="?")
    ap.add_argument("current", nargs="?")
    ap.add_argument("--threshold", type=float, default=1.25)
    ap.add_argument("--metric", choices=("cpu_time", "real_time"),
                    default="real_time")
    ap.add_argument("--counters", action="store_true")
    ap.add_argument("--min-ns", type=float, default=0.0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if args.baseline is None or args.current is None:
        ap.error("baseline and current are required unless --self-test")

    base = load(args.baseline)
    cur = load(args.current)

    regressions, improvements, skipped = [], [], 0
    width = max((len(n) for n in base if n in cur), default=20)
    print(f"{'benchmark'.ljust(width)}  {'baseline':>13}  {'current':>13}  ratio")
    for name in sorted(base):
        if name not in cur:
            continue
        b = entry_time(base[name], args.metric)
        c = entry_time(cur[name], args.metric)
        if b is None or c is None or b[2] <= 0:
            continue
        if b[2] < args.min_ns:
            skipped += 1
            continue
        ratio = c[2] / b[2]
        flag = ""
        if ratio > args.threshold:
            flag = "  << REGRESSION"
            regressions.append((name, ratio))
        elif ratio < 1.0 / args.threshold:
            flag = "  improved"
            improvements.append((name, ratio))
        print(
            f"{name.ljust(width)}  {fmt_time(*b[:2])}  {fmt_time(*c[:2])}  "
            f"{ratio:5.2f}x{flag}"
        )
        if args.counters:
            bc = base[name].get("counters", base[name])
            cc = cur[name].get("counters", cur[name])
            for k, b_val, c_val in counter_rows(bc, cc):
                if b_val is None:
                    print(f"{''.ljust(width)}    {k}: (new) {c_val:g}")
                elif c_val is None:
                    print(f"{''.ljust(width)}    {k}: {b_val:g} (removed)")
                elif b_val != c_val:
                    print(f"{''.ljust(width)}    {k}: {b_val:g} -> {c_val:g}")

    only_base = sorted(set(base) - set(cur))
    only_cur = sorted(set(cur) - set(base))
    if only_base:
        print(f"\nremoved: only in baseline ({len(only_base)}):")
        for name in only_base:
            print(f"  {name}")
    if only_cur:
        print(f"\nnew: only in current ({len(only_cur)}):")
        for name in only_cur:
            print(f"  {name}")
    if skipped:
        print(f"\nskipped {skipped} sub-{args.min_ns:g}ns benchmarks")

    print(
        f"\n{len(regressions)} regression(s), {len(improvements)} improvement(s) "
        f"at threshold {args.threshold:g}x on {args.metric}"
    )
    if regressions:
        worst = max(regressions, key=lambda r: r[1])
        print(f"worst: {worst[0]} at {worst[1]:.2f}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
