"""Time one cold start of cuspforge and print it as a JSON line.

    PYTHONPATH=src python3 perfbench/setup_probe.py [--trace]

The clock starts at this file's first statement, so interpreter start-up
is left out, and stops after the first build_cutoff(6.0, (1.0, 5.0)) that
follows `import cuspforge.cli`.  Reference samples taken right after it
give the host's speed at the time (see speed.py).  With --trace the
package's entry points are traced from the import on, to split the cold
start by layer.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import cuspforge.cli  # noqa: E402,F401

T_IMPORT = time.perf_counter()

tracer = None
if "--trace" in sys.argv[1:]:
    import tracer as tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)

from cuspforge.profile import build_cutoff  # noqa: E402

build_cutoff(6.0, (1.0, 5.0))
T_END = time.perf_counter()

import speed  # noqa: E402

REFERENCE_SAMPLES = 5
result = {
    "setup_s": T_END - T0,
    "import_s": T_IMPORT - T0,
    "reference_s": [speed.reference_s() for _ in range(REFERENCE_SAMPLES)],
}
if tracer is not None:
    result["first_call_s"] = tracer.first_s["smoothstep.step"]
print(json.dumps(result))
