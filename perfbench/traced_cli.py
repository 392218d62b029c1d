"""``pistonflow run`` in a child process with the traced pass installed.

Usage: python traced_cli.py SPANS.json run --config FILE --out DIR

Records the import of ``pistonflow.cli`` and the ``main`` call as spans,
writes every span to SPANS.json when ``main`` returns, and exits with
``main``'s status, so the parent sees the same exit-code contract.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("pistonflow.import"):
        import pistonflow.cli
    with tracer.installed():
        with tracer.span("cli.main"):
            code = pistonflow.cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.export(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
