"""The benchmark's tracer still finds and sizes the functions it wraps.

``perfbench/tracer.py`` reads sizes off return values and turns a missing
attribute into 0, so an API change in ``src/`` could zero a per-layer
figure without any error.  The tracer is loaded from its file, unchanged.
"""

import importlib.util
from pathlib import Path

from ctxkb import answer_query, load_kb

from conftest import data_path, session_for

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# spans whose functions are gone from src/ on purpose; the tracer reports them as missing
STALE = {"logic.ground_context_program", "relevance.discharge_contexts_detailed", "relevance.restrict_rpb"}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sizes_a_cardiac_query():
    kb = load_kb(data_path("cardiac.ckb"))
    vs = session_for(kb, context="epi(john, 0). epi(john, 2). dfib(john, 2).",
                     evidence="rhythm(john, 0, vf).", lo=0, hi=3, query="rhythm(john, 3, V)")
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        [(_, vec)] = answer_query(kb, vs).instances
    finally:
        tracer.uninstall()
    assert len(vec.probabilities) == len(kb.val("rhythm"))
    assert set(tracer.missing) <= STALE
    for name in ("relevance.compute_ras", "relevance.combine_rpb", "netbuild.assemble_net", "infer.multiply"):
        assert tracer.sizes.get(name, 0) > 0, name
