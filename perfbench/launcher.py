"""Run the ``repro`` CLI with the benchmark's timing wrappers installed.

Usage::

    python3 perfbench/launcher.py --spans-out SPANS.json -- serve --listen 127.0.0.1:0 ...

Everything after ``--`` is passed to ``repro.cli.main`` unchanged.  When the
command returns (a ``repro serve`` after its drain), the wrappers are
removed and every recorded span is written to ``--spans-out`` as a JSON
list.  The program's source must be importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True, type=Path)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    import layers
    import repro.cli
    from tracer import Tracer

    tracer = Tracer()
    layers.install(tracer)
    try:
        return repro.cli.main(command)
    finally:
        tracer.uninstall()
        partial = args.spans_out.with_suffix(".partial")
        partial.write_text(json.dumps([span.to_dict() for span in tracer.finished()]) + "\n")
        os.replace(partial, args.spans_out)


if __name__ == "__main__":
    sys.exit(main())
