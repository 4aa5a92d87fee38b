"""The names ``psnbench`` reads from the package still exist.

The benchmark wraps library functions by name (``psnbench/tracer.py``),
prints ``pseudospace.BACKEND`` in its run header, and reads fields of the
results it gets back (``Tracer.observe`` and the checks in
``psnbench/workloads.py``), but the pytest suite does not run the benchmark.
So a deletion that breaks it would pass here unless this test reads the same
tables: it imports ``tracer.py`` by path and checks each owner and attribute
the way ``Tracer.install`` looks them up, and it checks that each result
class still declares the fields the benchmark reads.
"""

import dataclasses
import importlib.util
from pathlib import Path

import pseudospace
from pseudospace.oracle import SuiteReport
from pseudospace.words import DivisionResult, StrongReductionResult

TRACER = Path(__file__).resolve().parents[1] / "psnbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("psnbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_names_the_benchmark_reads_exist():
    tracer = _tracer()
    assert len(tracer.SPANS) > 20 and tracer.CREATED
    missing = [name for owner, attr, name in tracer.SPANS if attr not in vars(owner)]
    assert missing == []
    assert [cls for cls, _ in tracer.CREATED if "__post_init__" not in vars(cls)] == []
    assert isinstance(pseudospace.BACKEND, str)


RESULT_FIELDS = {
    DivisionResult: {"witness", "conclusive", "explored"},
    StrongReductionResult: {"words", "exhausted", "steps"},
    SuiteReport: {"suite", "cases_run", "failures", "elapsed"},
}


def test_result_fields_the_benchmark_reads_exist():
    missing = {
        cls.__name__: read - {f.name for f in dataclasses.fields(cls)}
        for cls, read in RESULT_FIELDS.items()
    }
    assert missing == {cls.__name__: set() for cls in RESULT_FIELDS}
