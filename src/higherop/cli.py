"""Command line front end: enumeration, verification suites, exports.

Reports are JSON-stable: payload keys are emitted sorted, wall-clock
and cache information live under the "timing" key so byte-level
comparisons of repeated runs can drop exactly that field.  Exit codes:
0 for success, 1 for a verification failure, 2 for usage or budget
errors and for running out of memory or recursion depth, 130 for an
interrupt.  Homology pipelines cache their payloads on disk, keyed by a
content hash of the request, written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass

from . import freeop, operads, symmetrize as symm, topology
from .ordinals import (
    NOrdinal,
    empty_ordinal,
    enumerate_morphisms,
    enumerate_ordinals,
    ordinal_to_json,
    relations,
    render,
    suspend_inf,
    suspend_p,
)

SCHEMA_VERSION = 1
CACHE_ENV = "HIGHEROP_CACHE"


@dataclass
class Report:
    command: str
    status: str  # pass | fail | ok | partial
    data: dict
    timing: dict

    def to_json(self) -> str:
        body = {
            "command": self.command,
            "status": self.status,
            "data": self.data,
            "timing": self.timing,
        }
        return json.dumps(body, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# cache


def cache_key(key_obj: dict) -> str:
    canon = json.dumps(key_obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def cache_store(cache_dir: str, key_obj: dict, payload: dict) -> str:
    """Atomic content-addressed store: write a temp file, then rename."""
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, cache_key(key_obj) + ".json")
    blob = json.dumps(
        {"schema": SCHEMA_VERSION, "key": key_obj, "payload": payload},
        sort_keys=True,
    )
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def cache_lookup(cache_dir: str, key_obj: dict):
    """Payload for the key, or None; corrupt or stale entries are misses."""
    path = os.path.join(cache_dir, cache_key(key_obj) + ".json")
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            blob = json.load(fh)
        if blob.get("schema") != SCHEMA_VERSION:
            print(f"warning: stale cache schema in {path}", file=sys.stderr)
            return None
        return blob["payload"]
    except (json.JSONDecodeError, KeyError, OSError) as exc:
        print(f"warning: unreadable cache entry {path}: {exc}", file=sys.stderr)
        return None


def _cache_dir(args) -> str | None:
    return args.cache_dir or os.environ.get(CACHE_ENV)


def _classifier_payload(cache_dir, n, k, dmax, fresh=False, **budget):
    """Classifier homology through the disk cache.

    Returns the payload and the cache state: "hit" or "miss" when the
    cache was read, None when it was not.
    """
    key_obj = {"cmd": "classifier", "n": n, "k": k, "dmax": dmax,
               "schema": SCHEMA_VERSION}
    state = None
    payload = None
    if cache_dir and not fresh:
        payload = cache_lookup(cache_dir, key_obj)
        state = "hit" if payload is not None else "miss"
    if payload is None:
        payload = topology.classifier_homology(n, k, dmax, **budget)
        if cache_dir:
            cache_store(cache_dir, key_obj, payload)
    return payload, state


# ---------------------------------------------------------------------------
# argument helpers


def _parse_profile(text: str) -> tuple[int, ...]:
    if text in ("", "-"):
        return ()
    return tuple(int(x) for x in text.split(","))


def _ordinal_from_args(args) -> NOrdinal:
    if getattr(args, "empty", False):
        return empty_ordinal(args.n)
    return NOrdinal(args.n, _parse_profile(args.profile))


def _emit(report: Report, args) -> None:
    if args.json:
        sys.stdout.write(report.to_json())
        return
    print(f"[{report.command}] {report.status}")
    for key in sorted(report.data):
        print(f"  {key}: {report.data[key]}")


# ---------------------------------------------------------------------------
# commands


def cmd_ordinals(args) -> Report:
    ords = enumerate_ordinals(args.n, args.k)
    data = {
        "n": args.n,
        "k": args.k,
        "count": len(ords),
        "profiles": [list(T.profile) for T in ords],
    }
    if args.relations:
        data["relations"] = [
            [f"{i} <_{p} {j}" for (i, p, j) in relations(T)] for T in ords
        ]
    return Report("ordinals", "ok", data, {})


def cmd_morphisms(args) -> Report:
    T = NOrdinal(args.n, _parse_profile(args.source))
    S = NOrdinal(args.n, _parse_profile(args.target))
    maps = enumerate_morphisms(T, S)
    return Report(
        "morphisms",
        "ok",
        {
            "source": list(T.profile),
            "target": list(S.profile),
            "count": len(maps),
            "maps": [list(f.map) for f in maps],
        },
        {},
    )


def cmd_suspend(args) -> Report:
    T = _ordinal_from_args(args)
    if args.inf:
        S = suspend_inf(T)
        data = {"profile": list(S.profile), "size": S.size, "kind": "infinite"}
    else:
        S = suspend_p(T, args.p)
        data = {"n": S.n, "profile": list(S.profile), "size": S.size}
    return Report("suspend", "ok", data, {})


def cmd_trees(args) -> Report:
    base = operads.OrdBase(args.n)
    T = NOrdinal(args.n, _parse_profile(args.profile))
    count = freeop.count_trees(T, args.vmax, args.kmax, args.regular, base)
    data = {
        "target": list(T.profile),
        "vmax": args.vmax,
        "kmax": args.kmax,
        "regular": args.regular,
        "count": count,
    }
    if not args.count_only:
        if count > freeop._MAX_TREES:
            raise operads.BudgetExceededError(
                f"{count} trees to list (budget {freeop._MAX_TREES}); use --count-only")
        trees = freeop.enumerate_trees(T, args.vmax, args.kmax, args.regular, base)
        data["trees"] = [freeop.tree_to_json(t) for t in trees]
    return Report("trees", "ok", data, {})


def _build_named_operad(args):
    """The operad that `operad check` reads.  The composable pairs of the
    base that it is checked over are counted, and refused past their
    budget, before any table over that base is built."""
    if args.file:
        with open(args.file) as fh:
            A = operads.operad_from_json(json.load(fh))
        operads._pair_count(A.base, A.K)
        return A
    if args.which == "ass":
        base = operads.OrdBase(args.n)
        operads._pair_count(base, args.K)
        return operads.make_ass(base, args.K)
    if args.which == "end":
        operads._check_end_exponent(args.x_size, args.K)
        operads._pair_count(operads.FinBase(), args.K)
        return operads.endomorphism_operad(tuple(range(args.x_size)), args.K)
    if args.which == "des-end":  # End's tables come first, budgeted by End itself
        end = operads.endomorphism_operad(tuple(range(args.x_size)), args.K)
        operads._pair_count(operads.OrdBase(args.n), args.K)
        return operads.desymmetrize(end, args.n)
    raise ValueError(f"unknown operad {args.which!r}")


def cmd_operad(args) -> Report:
    if args.action != "check":
        raise ValueError(f"unknown operad action {args.action!r}")
    A = _build_named_operad(args)
    rep = operads.check_operad_axioms(A)
    data = {
        "operad": A.name,
        "summary": rep.summary(),
        "violations": rep.violations[:10],
        "unit_instances": rep.unit_instances,
        "assoc_pairs": rep.assoc_pairs,
        "assoc_instances": rep.assoc_instances,
        "skipped_holes": rep.skipped_holes,
        "empty_domains": rep.empty_domains,
    }
    return Report("operad-check", "pass" if rep.ok else "fail", data, dict(rep.timing))


def cmd_sym(args) -> Report:
    counts = symm.terminal_class_counts(args.n, args.K)
    return Report("sym", "ok", {"n": args.n, "K": args.K, "class_counts": counts}, {})


def cmd_classifier(args) -> Report:
    payload, cache_state = _classifier_payload(
        _cache_dir(args), args.n, args.k, args.dmax, fresh=args.fresh,
        max_objects=args.max_objects,
    )
    timing = {} if cache_state is None else {"cache": cache_state}
    return Report("classifier", "ok", payload, timing)


# ---------------------------------------------------------------------------
# verification suites


def verify_eckmann_hilton(n: int, kmax: int) -> Report:
    counts = symm.terminal_class_counts(n, kmax)
    if n == 1:
        expected = {k: math.factorial(k) for k in range(kmax + 1)}
    else:
        expected = {k: 1 for k in range(kmax + 1)}
    return Report(
        "verify-eckmann-hilton",
        "pass" if counts == expected else "fail",
        {"n": n, "kmax": kmax, "class_counts": counts, "expected": expected},
        {},
    )


def verify_monad_laws(n: int, vmax: int, kmax: int) -> Report:
    rep = freeop.check_monad_laws(n, vmax, kmax)
    return Report(
        "verify-monad-laws",
        "pass" if rep.ok else "fail",
        {
            "n": n,
            "vmax": vmax,
            "kmax": kmax,
            "summary": rep.summary(),
            "violations": rep.violations[:10],
            "distinct_insertions": rep.distinct_insertions,
            "interned_trees": rep.interned_trees,
        },
        {},
    )


def verify_stable_range(pairs, args) -> Report:
    results = {}
    ok = True
    cache_dir = _cache_dir(args) if args is not None else None
    for n, k in pairs:
        payload, _ = _classifier_payload(cache_dir, n, k, max(n - 1, 1))
        connected = payload["components"] == 1
        vanishing = True
        for i in range(1, n - 1):
            if payload["betti"][i] != 0 or payload["torsion"][i]:
                vanishing = False
        results[f"{n},{k}"] = {
            "connected": connected,
            "vanishing": vanishing,
            "betti": payload["betti"],
            "torsion": payload["torsion"],
        }
        ok = ok and connected and vanishing
    return Report(
        "verify-stable-range",
        "pass" if ok else "fail",
        {"pairs": results},
        {},
    )


@functools.lru_cache(maxsize=None)
def _two_point_algebras() -> dict:
    """n -> check_adjunction(Ass over Ord(n) at K=3, End_{0,1}), n = 1, 2.

    Morphisms into End_{0,1} are the algebras on two points, so `verify
    adjunction` and `verify algebras` both report this one computation.
    """
    end = operads.endomorphism_operad((0, 1), 3)
    return {
        n: symm.check_adjunction(operads.make_ass(operads.OrdBase(n), 3), end)
        for n in (1, 2)
    }


def verify_adjunction() -> Report:
    data = {}
    ok = True
    for n, rep in _two_point_algebras().items():
        data[f"ass_{n}"] = {
            "sym_side": rep.sym_hom_count,
            "des_side": rep.des_hom_count,
            "bijection": rep.bijection,
        }
        ok = ok and rep.ok
    return Report("verify-adjunction", "pass" if ok else "fail", data, {})


def verify_algebras() -> Report:
    data = {}
    ok = True
    for n, rep in _two_point_algebras().items():
        data[f"ass_{n}_on_two_points"] = {
            "direct": rep.des_hom_count,
            "symmetrized": rep.sym_hom_count,
            "bijection": rep.bijection,
        }
        ok = ok and rep.ok
    return Report("verify-algebras", "pass" if ok else "fail", data, {})


def cmd_verify(args) -> Report:
    which = args.suite
    if which == "eckmann-hilton":
        return verify_eckmann_hilton(args.n, args.kmax)
    if which == "monad-laws":
        return verify_monad_laws(args.n, args.vmax, args.kmax)
    if which == "stable-range":
        pairs = [tuple(int(x) for x in p.split(",")) for p in args.pairs.split(";")]
        return verify_stable_range(pairs, args)
    if which == "adjunction":
        return verify_adjunction()
    if which == "algebras":
        return verify_algebras()
    if which == "all":
        sub = [
            verify_eckmann_hilton(1, args.kmax),
            verify_eckmann_hilton(2, args.kmax),
            verify_eckmann_hilton(3, args.kmax),
            verify_monad_laws(1, 3, 3),
            verify_monad_laws(2, 2, 2),
            verify_stable_range([(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)], args),
            verify_adjunction(),
            verify_algebras(),
        ]
        ok = all(r.status == "pass" for r in sub)
        # the last run of each suite keeps the suite's name; earlier runs
        # of the same suite are keyed by their n
        last = {r.command: r for r in sub}
        data = {
            (r.command if last[r.command] is r else f"{r.command}[n={r.data['n']}]"):
                {"status": r.status, **r.data}
            for r in sub
        }
        return Report("verify-all", "pass" if ok else "fail", data, {})
    raise ValueError(f"unknown verify suite {which!r}")


# ---------------------------------------------------------------------------
# export


def cmd_export(args) -> Report:
    if args.kind == "ordinal":
        T = _ordinal_from_args(args)
        if args.format == "dot":
            text = render(T, "dot")
        elif args.format == "json":
            text = json.dumps(ordinal_to_json(T), sort_keys=True) + "\n"
        elif args.format == "ascii":
            text = render(T, "ascii") + "\n"
        else:
            raise ValueError(f"unsupported format {args.format!r} for ordinals")
    elif args.kind == "classifier":
        P = symm.build_classifier(args.n, args.k)
        if len(P.arrows) > operads._MAX_EXPORT_ENTRIES:
            raise operads.BudgetExceededError(f"classifier has {len(P.arrows)} arrows "
                                              f"(export budget {operads._MAX_EXPORT_ENTRIES})")
        if args.format == "dot":
            text = symm.classifier_dot(P)
        elif args.format == "json":
            text = json.dumps(
                {
                    "n": P.n,
                    "k": P.k,
                    "objects": [
                        {"labels": list(T.labels), "profile": list(T.profile)}
                        for T in P.objects
                    ],
                    "arrows": P.arrows.tolist(),
                },
                sort_keys=True,
            ) + "\n"
        else:
            raise ValueError(f"unsupported format {args.format!r} for classifiers")
    elif args.kind == "tree":
        with open(args.file) as fh:
            tree = freeop.tree_from_json(json.load(fh), operads.OrdBase(args.n))
        if args.format == "dot":
            text = freeop.tree_to_dot(tree)
        elif args.format == "json":
            text = json.dumps(freeop.tree_to_json(tree), sort_keys=True) + "\n"
        else:
            raise ValueError(f"unsupported format {args.format!r} for trees")
    else:
        raise ValueError(f"unsupported export kind {args.kind!r}")
    sys.stdout.write(text)
    return Report("export", "ok", {"kind": args.kind, "format": args.format}, {})


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="higherop",
        description="n-ordinal and higher-operad workbench",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--cache-dir", default=None, help=f"cache directory (or ${CACHE_ENV})")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("ordinals", help="enumerate canonical ordinals")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--relations", action="store_true")
    q.set_defaults(func=cmd_ordinals)

    q = sub.add_parser("morphisms", help="enumerate morphisms between two ordinals")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--source", required=True, help="comma-separated profile")
    q.add_argument("--target", required=True)
    q.set_defaults(func=cmd_morphisms)

    q = sub.add_parser("suspend", help="suspend an ordinal")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--profile", default="-")
    q.add_argument("--empty", action="store_true")
    q.add_argument("--p", type=int, default=0)
    q.add_argument("--inf", action="store_true")
    q.set_defaults(func=cmd_suspend)

    q = sub.add_parser("trees", help="enumerate bounded tree terms")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--profile", default="-")
    q.add_argument("--vmax", type=int, default=3)
    q.add_argument("--kmax", type=int, default=3)
    q.add_argument("--regular", action=argparse.BooleanOptionalAction, default=True)
    q.add_argument("--count-only", action="store_true")
    q.set_defaults(func=cmd_trees)

    q = sub.add_parser("operad", help="operad table utilities")
    q.add_argument("action", choices=["check"])
    q.add_argument("--which", default="ass", choices=["ass", "end", "des-end"])
    q.add_argument("--n", type=int, default=1)
    q.add_argument("--K", type=int, default=3)
    q.add_argument("--x-size", type=int, default=2)
    q.add_argument("--file", default=None, help="JSON operad to check instead")
    q.set_defaults(func=cmd_operad)

    q = sub.add_parser("sym", help="class counts of the symmetrised terminal operad")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--K", type=int, default=3)
    q.set_defaults(func=cmd_sym)

    q = sub.add_parser("classifier", help="classifier poset homology (cached)")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--dmax", type=int, default=None)
    q.add_argument("--fresh", action="store_true", help="bypass the cache")
    q.add_argument("--max-objects", type=int, default=2000,
                   help="refuse posets larger than this (clean error)")
    q.set_defaults(func=cmd_classifier)

    q = sub.add_parser("verify", help="verification suites")
    q.add_argument(
        "suite",
        choices=[
            "eckmann-hilton",
            "monad-laws",
            "stable-range",
            "adjunction",
            "algebras",
            "all",
        ],
    )
    q.add_argument("--n", type=int, default=2)
    q.add_argument("--kmax", type=int, default=5)
    q.add_argument("--vmax", type=int, default=3)
    q.add_argument("--pairs", default="2,2;2,3;3,2;3,3;4,2")
    q.set_defaults(func=cmd_verify)

    q = sub.add_parser("export", help="deterministic JSON or DOT exports")
    q.add_argument("kind", choices=["ordinal", "classifier", "tree"])
    q.add_argument("--n", type=int, default=2)
    q.add_argument("--k", type=int, default=2)
    q.add_argument("--profile", default="-")
    q.add_argument("--empty", action="store_true")
    q.add_argument("--file", default=None)
    q.add_argument("--format", default="json", choices=["json", "dot", "ascii"])
    q.set_defaults(func=cmd_export)

    return p


def run(argv=None) -> tuple[int, Report | None]:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        report = args.func(args)
    except (operads.BudgetExceededError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, None
    except (MemoryError, RecursionError) as exc:
        detail = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}" + (f": {detail}" if detail else ""),
              file=sys.stderr)
        return 2, None
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130, None
    report.timing["ms"] = round((time.perf_counter() - start) * 1000, 3)
    _emit(report, args)
    if report.status == "fail":
        return 1, report
    return 0, report


def main(argv=None) -> int:
    code, _ = run(argv)
    return code


if __name__ == "__main__":
    sys.exit(main())
