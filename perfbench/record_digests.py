"""Record the sha256 of ``series.csv`` for the cli_sweep scenarios of seeds 0-31.

    python3 perfbench/record_digests.py

Writes reference_digests.json (scenario key -> digest).  The committed file
holds the digests of the commit that defined the benchmark; cli_sweep
reports differences from it as ``cli.series_digest_mismatches``.  Rerun
this only when a change is meant to move the bits of ``series.csv``, and
say why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys

from environment import PERFBENCH, SRC
from scenarios import make_pass

SEEDS = range(32)


def main() -> int:
    sys.path.insert(0, str(SRC))
    import pistonflow.cli

    from ops import op_key

    workdir = PERFBENCH / ".work" / "record_digests"
    workdir.mkdir(parents=True, exist_ok=True)
    digests = {}
    try:
        for seed in SEEDS:
            for op in make_pass("cli_sweep", seed):
                ini = workdir / "scenario.ini"
                ini.write_text(op.ini, encoding="utf-8")
                out = workdir / "out"
                with contextlib.redirect_stdout(io.StringIO()):
                    code = pistonflow.cli.main(
                        ["run", "--config", str(ini), "--out", str(out)])
                if code != 0:
                    raise SystemExit(f"seed {seed} {op.label}: exit code {code}")
                digests[op_key(op)] = hashlib.sha256(
                    (out / "series.csv").read_bytes()).hexdigest()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = PERFBENCH / "reference_digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(digests)} digests written to {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
