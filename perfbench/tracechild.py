"""Run one sgdecomp CLI invocation with the benchmark's tracer installed.

    python3 perfbench/tracechild.py TRACE_OUT.json <sgdecomp arguments...>

Standard output and the exit code are the CLI's own.  TRACE_OUT.json gets
the import time of ``sgdecomp.cli``, the span summary, the FieldCtx call
counts, the wrapper fire counts and any missing names.
"""

import json
import sys
import time
from pathlib import Path

import spans


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import sgdecomp.cli
    import_s = time.perf_counter() - start
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = sgdecomp.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s,
                       "spans": spans.summarise(tracer.spans),
                       "counts": tracer.counts, "fires": tracer.fires,
                       "missing": tracer.missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
