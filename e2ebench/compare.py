#!/usr/bin/env python3
"""Compare two e2ebench result files, flagging results that are not comparable.

    python3 e2ebench/compare.py BASE.json NEW.json

Result files are written by every run to
`$CARGO_TARGET_DIR/e2ebench-results/<workload>-<scheme>-seed<N>-trace<T>.json`
and hold the run's metadata and result line. Two results are comparable only
when host, toolchain, GEMM kernel, build profile and run settings agree; a
difference in any of those is flagged and the exit code is 1. A different
revision is the point of a comparison and is only reported.
"""
import json
import sys

MUST_MATCH = ["workload", "scheme", "seconds", "trace", "panel_searches", "workers",
              "cores", "gemm_kernel", "profile", "rustc", "os_kernel"]
REVISION = ["git_revision", "source_sha256", "seed", "host_steal_frac"]


def main():
    if len(sys.argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    base, new = (json.load(open(p)) for p in sys.argv[1:])
    differ = [k for k in MUST_MATCH if base["meta"].get(k) != new["meta"].get(k)]
    for k in differ:
        print("NOT COMPARABLE: %s differs: %r vs %r" % (k, base["meta"].get(k), new["meta"].get(k)))
    for k in REVISION:
        if base["meta"].get(k) != new["meta"].get(k):
            print("%s: %s -> %s" % (k, base["meta"].get(k), new["meta"].get(k)))
    for side, r in (("base", base["result"]), ("new", new["result"])):
        print("%s: correct=%s attempted=%d failed=%d" % (side, r["correct"], r["attempted"], r["failed"]))
    bm, nm = base["result"]["metrics"], new["result"]["metrics"]
    for name in bm:
        if name not in nm:
            print("%-36s only in base" % name)
            continue
        a, b = bm[name]["value"], nm[name]["value"]
        ratio = ("%.4f" % (b / a)) if a else "-"
        print("%-36s %14.6g %14.6g  new/base %s %s" % (name, a, b, ratio, bm[name]["unit"]))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
