"""Run one benchmark job in a fresh interpreter and print its result.

Usage: python3 benchmarks/worker.py '<job spec as JSON>'

The address-space limit is set before higherop is imported, so an
allocation past it raises MemoryError instead of reaching the machine.
Only the call into higherop is timed; the answer is summarised after
the clock stops and checked by run.py.  The last line of standard output
is one JSON object.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import sys
import time

MODULES = ("ordinals", "operads", "freeop", "symmetrize", "topology", "cli")


def classifier_job(spec):
    from higherop import topology

    def call():
        return topology.classifier_homology(spec["n"], spec["k"], spec["dmax"])
    return call, lambda payload: payload


def _operad(spec):
    from higherop import operads

    if spec["operad"] == "ass":
        return operads.make_ass(operads.OrdBase(spec["n"]), spec["K"])
    end = operads.endomorphism_operad(tuple(range(spec["x_size"])), spec["K"])
    return operads.desymmetrize(end, spec["n"])


def _corrupt_unit_entry(A, rng):
    """A copy of A, over Ord(n), with one entry read by the unit diagrams
    changed."""
    from higherop import operads, ordinals

    u = A.unit_index()
    entries = []
    for T in A.base.objects(A.K):
        ident = A.base.identity(T)
        bang = ordinals.to_terminal(T)
        for a in range(len(A.components[T])):
            entries.append((ident, (a,) + (u,) * A.base.size(T)))
            if bang != ident:
                entries.append((bang, (u, a)))
    sigma, idx = rng.choice(entries)
    table = A.mult[sigma].copy()
    old = int(table[idx])
    table[idx] = rng.choice([v for v in range(len(A.components[sigma.source])) if v != old])
    mult = dict(A.mult)
    mult[sigma] = table
    copy = operads.OperadTable(A.base, A.K, A.components, A.unit, mult, A.name)
    return copy, f"{sigma.map} at {idx}: {old} -> {int(table[idx])}"


def axioms_job(spec):
    from higherop import operads

    def call():
        A = _operad(spec)
        return A, operads.check_operad_axioms(A)

    def answer(result):
        A, rep = result
        sizes = {}
        for T, labels in A.components.items():
            sizes.setdefault(str(A.base.size(T)), set()).add(len(labels))
        out = {
            "ok": rep.ok,
            "violations": rep.violations[:3],
            "assoc_pairs": rep.assoc_pairs,
            "assoc_instances": rep.assoc_instances,
            "component_sizes": {m: s.pop() if len(s) == 1 else sorted(s)
                                for m, s in sizes.items()},
        }
        if spec["corrupt"]:
            copy, entry = _corrupt_unit_entry(A, random.Random(spec["seed"]))
            out["corrupted"] = {"entry": entry,
                                "ok": operads.check_operad_axioms(copy, units_only=True).ok}
        return out
    return call, answer


def cli_job(spec):
    from higherop import cli

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code, _ = cli.run(spec["argv"])
        return code, buf.getvalue()
    return call, lambda result: {"code": result[0], "stdout": result[1]}


JOBS = {"classifier": classifier_job, "axioms": axioms_job, "cli": cli_job}


def run_job(spec) -> dict:
    call, answer = JOBS[spec["call"]](spec)
    start = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # the job failed; record how far it got
        return {"solve_s": time.perf_counter() - start,
                "error": f"{type(exc).__name__}: {str(exc)[:200]}"}
    solve_s = time.perf_counter() - start
    return {"solve_s": solve_s, "answer": answer(result)}


def main() -> int:
    spec = json.loads(sys.argv[1])
    resource.setrlimit(resource.RLIMIT_AS, (spec["address_limit"],) * 2)
    import higherop
    from higherop import cli, freeop, operads, ordinals, symmetrize, topology  # noqa: F401

    out = {"setup_s": time.monotonic() - spec["spawned"]}
    expected = os.path.join(spec["src"], "higherop")
    if os.path.dirname(os.path.realpath(higherop.__file__)) != os.path.realpath(expected):
        print(f"higherop imported from {higherop.__file__}, not {expected}", file=sys.stderr)
        return 3
    if spec["call"] != "setup":
        tracer = None
        if spec["trace"]:
            import spans
            tracer = spans.Tracer()
            spans.install(tracer, {m: sys.modules[f"higherop.{m}"] for m in MODULES},
                          spans.wrappers())
        out.update(run_job(spec))
        if tracer is not None:
            out["layers"] = spans.layer_figures(tracer)
            out["paths"] = tracer.paths()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
