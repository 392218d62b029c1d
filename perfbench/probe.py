"""Set-up probe: one fresh interpreter imports the CLI and prepares a scenario.

Usage: python probe.py OP.json

OP.json holds the workload's first operation that has a scenario.  The
probe imports ``pistonflow.cli``, parses the scenario (the INI text, when
the operation has one) and builds its initial state, then prints the phase
timings as JSON.  The parent times the whole child as the set-up wall.
"""

import json
import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    import pistonflow.cli  # noqa: F401  (the import is what is timed)
    t1 = time.perf_counter()

    import ops
    from scenarios import Op

    with open(sys.argv[1], encoding="utf-8") as fh:
        op = Op(**json.load(fh))
    t2 = time.perf_counter()
    if op.ini is not None:
        config = ops.pf_config.parse_config(op.ini)
        t3 = time.perf_counter()
        ops.initial_state(config)
    else:
        t3 = time.perf_counter()
        ops.fixed_point_problem(op.u_out)
    t4 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "parse_ms": 1e3 * (t3 - t2),
                      "build_ms": 1e3 * (t4 - t3)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
