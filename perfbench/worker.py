"""One benchmark repetition in a fresh interpreter.

    python3 worker.py ROOT MODE [SPANS]

MODE is ``setup`` (import ``verlinde`` and build the CLI parser, then stop),
``run`` (also run the cases read as JSON from stdin through
``verlinde.cli.main``, one after another, and check each output), or
``trace`` (the same with the layer tracer installed; the spans are written
to SPANS).  One JSON object goes to stdout; ``ready`` is the
CLOCK_MONOTONIC time at which set-up finished, so the launching process can
compute set-up time from its own launch time.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def _set_up(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import verlinde.cli

    verlinde.cli.build_parser()
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    package_dir = os.path.dirname(os.path.abspath(verlinde.cli.__file__))
    if os.path.dirname(package_dir) != os.path.abspath(src):
        sys.exit(f"verlinde was imported from {package_dir}, not from {src}")
    return verlinde.cli, ready


def main() -> int:
    root, mode = sys.argv[1], sys.argv[2]
    cli, ready = _set_up(root)
    result = {"ready": ready}
    if mode != "setup":
        cases = json.load(sys.stdin)
        tracer = None
        if mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        attempted, failures, clock = 0, [], time.perf_counter
        t0 = clock()
        for index, case in enumerate(cases):
            if tracer is not None:
                tracer.case_index = index
            n, failed = run_case(cli, case)
            attempted += n
            failures.extend(failed)
        wall = clock() - t0
        result.update(
            wall_s=wall,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            attempted=attempted,
            failed=len(failures),
            failures=failures,
        )
        if tracer is not None:
            result["layers"] = tracer.metrics()
            result["absent"] = sorted(tracer.absent)
            tracer.write(sys.argv[3])
    print(json.dumps(result))
    return 0


def run_case(cli, case):
    """Run one case through ``cli.main``; return (checks attempted, failure messages).

    ``cli.main`` is looked up on every call, so the tracer's wrapper is used."""
    label = " ".join(case["argv"])
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(case["argv"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed case, not a failed benchmark
        code = f"{type(exc).__name__}: {exc}"
    expect = case["expect"]
    if case["check"] == "suite":
        return check_suite(label, code, out.getvalue(), expect)
    if code != 0:
        return 1, [f"{label}: exit {code} {err.getvalue().strip()[-200:]} {out.getvalue().strip()[-200:]}"]
    try:
        record = json.loads(out.getvalue().strip().splitlines()[-1])
    except (ValueError, IndexError):
        return 1, [f"{label}: unreadable output {out.getvalue()[-200:]!r}"]
    if record.get("value") != expect:
        return 1, [f"{label}: got {record.get('value')}, expected {expect}"]
    return 1, []


def check_suite(label, code, output, expect):
    try:
        entries = json.loads(output)["entries"]
    except (ValueError, KeyError, TypeError):
        return len(expect), [f"{label}: exit {code}, unreadable report"] * len(expect)
    from workloads import suite_entry_key

    seen, failures = set(), []
    for entry in entries:
        key = suite_entry_key(entry["check_name"], entry["parameters"])
        seen.add(key)
        if key not in expect:
            failures.append(f"{label}: unexpected entry {key}")
        elif not entry["passed"] or entry["computed"] != expect[key]:
            failures.append(
                f"{label}: {key} computed {entry['computed']} passed={entry['passed']},"
                f" expected {expect[key]}"
            )
    failures.extend(f"{label}: missing entry {key}" for key in expect if key not in seen)
    return len(set(expect) | seen), failures


if __name__ == "__main__":
    sys.exit(main())
