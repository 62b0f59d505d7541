"""Run the fuzzaut CLI under the span tracer.

    python3 bench/cli_trace.py LAYERS.json SPANS.tsv verify --group ...

Everything after the two output paths goes to ``fuzzaut.cli.main``.  The
per-layer metrics go to LAYERS.json and the raw spans to SPANS.tsv; the exit
code is the CLI's.
"""

import json
import sys
from pathlib import Path

import fuzzaut.cli
from spans import Tracer


def main() -> int:
    layers_path, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    code = fuzzaut.cli.main(argv)
    Path(layers_path).write_text(json.dumps(tracer.metrics()), encoding="utf-8")
    tracer.write_spans(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
