"""Run the ctxkb CLI under the tracer and write its spans out at exit.

    PERFBENCH_SPANS=spans.json python3 perfbench/traced_cli.py project KB --plan ...
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import ctxkb.bench  # noqa: E402,F401  (every module that binds a traced name)
import ctxkb.cli  # noqa: E402
import ctxkb.oracle  # noqa: E402,F401
from tracer import Tracer  # noqa: E402


def main():
    tracer = Tracer()
    tracer.install()
    code = 0
    try:
        ctxkb.cli.main(args=sys.argv[1:], prog_name="ctxkb")
    except SystemExit as e:
        code = e.code
    finally:
        tracer.uninstall()
        Path(os.environ["PERFBENCH_SPANS"]).write_text(json.dumps(tracer.dump()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
