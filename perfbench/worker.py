"""One benchmark repetition in a fresh interpreter.

Started by ``run.py``; prints one JSON object on its last stdout line.  The
package is imported from the checkout's ``src`` tree and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("run", "trace", "setup"),
                        required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="CLOCK_MONOTONIC time the parent launched us")
    parser.add_argument("--root", required=True)
    parser.add_argument("--rep", type=int, default=0)
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root)
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import paulievo
    if not os.path.abspath(paulievo.__file__).startswith(src + os.sep):
        print(f"paulievo imported from {paulievo.__file__}, not {src}",
              file=sys.stderr)
        return 3

    from workloads import WORKLOADS, run_repetition

    tag = f"{args.workload}-seed{args.seed}-rep{args.rep}"
    result = run_repetition(
        WORKLOADS[args.workload], args.seed,
        traced=args.mode == "trace",
        spawned_at=args.spawned_at,
        work_dir=os.path.join(root, ".perfbench_work", f"{tag}-{os.getpid()}"),
        setup_only=args.mode == "setup",
    )
    spans = result.pop("spans", None)
    if spans is not None:
        out_dir = os.path.join(root, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"spans-{tag}.json"), "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": spans}, f)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
