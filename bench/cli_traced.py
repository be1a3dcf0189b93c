"""Run the qidlab CLI with per-layer spans.

    python bench/cli_traced.py TRACE_JSON <qidlab arguments>

Times the cold `import qidlab.cli` and the in-process `main`, and writes
both with the spans of the run to TRACE_JSON.
"""

import json
import sys
import time

t0 = time.perf_counter()
import qidlab.cli  # noqa: E402
import_s = time.perf_counter() - t0

from tracer import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
t1 = time.perf_counter()
try:
    code = qidlab.cli.main(sys.argv[2:])
finally:
    main_s = time.perf_counter() - t1
    tracer.uninstall()
    with open(sys.argv[1], "w") as fh:
        json.dump({"import_s": import_s, "main_s": main_s, "spans": tracer.spans}, fh)
sys.exit(code)
