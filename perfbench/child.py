"""Traced stand-in for `python -m heunkummer.cli ARGV...`.

Times the numpy import and the package import, wraps the traced entry
points plus the CLI's subcommand runners and renderers, calls
`cli.main(argv)` and writes the spans as JSON to $PERFBENCH_TRACE_OUT.
stdout is left to the CLI, so it stays byte-identical to a plain run.
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
import numpy  # noqa: E402,F401  (timed on its own)

t1 = time.perf_counter()
import heunkummer.cli as cli  # noqa: E402

t2 = time.perf_counter()

import tracing  # noqa: E402  (stdlib only; sits next to this file)


def main() -> int:
    tracer = tracing.Tracer()
    tracing.install(tracer)
    for name, spec in list(cli.COMMANDS.items()):
        cli.COMMANDS[name] = spec._replace(runner=tracer.spanned("cli.runner", spec.runner))
    cli.render_json = tracer.spanned("cli.render", cli.render_json)
    cli.render_csv = tracer.spanned("cli.render", cli.render_csv)
    try:
        return cli.main(sys.argv[1:])
    finally:
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
            json.dump({"numpy_import_s": t1 - t0, "import_s": t2 - t0,
                       "trace": tracer.export()}, fh)


if __name__ == "__main__":
    sys.exit(main())
