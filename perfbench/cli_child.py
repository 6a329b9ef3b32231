"""Traced ``ocametrics`` CLI run in a fresh interpreter.

    python perfbench/cli_child.py SPANS_JSON run --panel ... --weights ... --output-dir ...

Times ``import ocametrics.cli``, installs the span recorder, runs the CLI
with the remaining arguments and writes the import time and the spans to
SPANS_JSON.  Exits with the CLI's exit code.
"""

import json
import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import ocametrics.cli
    import_s = time.perf_counter() - t0

    from tracer import Tracer

    spans_path, cli_args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    code = 0
    try:
        ocametrics.cli.main.main(args=cli_args, prog_name="ocametrics", standalone_mode=False)
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": tracer.to_json()}, fh)
    sys.exit(code)
