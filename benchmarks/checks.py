"""Independent checks of the benchmark's answers.

Nothing here imports higherop: every expected value comes from a closed
form or a brute-force count written for the benchmark.  Each check
returns a list of problems; an empty list means the answer is right.
"""

from __future__ import annotations

import itertools
import json
import math


# ---------------------------------------------------------------------------
# configuration spaces


def config_space_betti(n: int, k: int) -> list[int]:
    """Coefficients of prod_{j=1}^{k-1} (1 + j t^(n-1)), the Poincare
    polynomial of the configuration space F(R^n, k) (Arnold, F. Cohen)."""
    coeffs = [1]
    for j in range(1, k):
        shifted = [0] * (n - 1) + [j * c for c in coeffs]
        coeffs = [a + b for a, b in itertools.zip_longest(coeffs, shifted, fillvalue=0)]
    return coeffs


def classifier_objects(n: int, k: int) -> int:
    """f_0 of the classifier nerve: k! labelings times n^(k-1) profiles."""
    return math.factorial(k) * n ** (k - 1) if k else 1


def check_homology(payload: dict, n: int, k: int, full: bool) -> list[str]:
    """Betti numbers, torsion, f_0 and components of one classifier payload.

    Degrees the payload marks unreliable (null) are not compared; a full
    computation must report every degree of the closed form.
    """
    bad = []
    if payload["fvector"][0] != classifier_objects(n, k):
        bad.append(f"f_0 = {payload['fvector'][0]}, want {classifier_objects(n, k)}")
    components = math.factorial(k) if n == 1 else 1
    if payload["components"] != components:
        bad.append(f"{payload['components']} components, want {components}")
    bad += check_betti(payload, n, k)
    if full:
        expected = config_space_betti(n, k)
        reliable = [b for b in payload["betti"] if b is not None]
        if len(reliable) < len(expected):
            bad.append(f"only {len(reliable)} reliable degrees, want {len(expected)}")
    return bad


def check_betti(payload: dict, n: int, k: int) -> list[str]:
    """Reported Betti numbers against the closed form; no torsion."""
    bad = []
    expected = config_space_betti(n, k)
    for d, b in enumerate(payload["betti"]):
        want = expected[d] if d < len(expected) else 0
        if b is not None and b != want:
            bad.append(f"betti[{d}] = {b}, want {want}")
    if any(payload["torsion"]):
        bad.append(f"torsion {payload['torsion']}")
    return bad


# ---------------------------------------------------------------------------
# n-ordinals by brute force


def ordinal_profiles(n: int, k: int) -> list[tuple]:
    """Canonical n-ordinals of size k as (size, consecutive levels)."""
    if k <= 1:
        return [(k, ())]
    return [(k, p) for p in itertools.product(range(n), repeat=k - 1)]


def _level(profile, i: int, j: int) -> int:
    return min(profile[min(i, j):max(i, j)])


def ordinal_maps(T: tuple, S: tuple) -> list[tuple]:
    """All maps f: T -> S such that i <_p j forces f(i) <_r f(j) with
    r >= p, or f(i) = f(j), or f(j) <_r f(i) with r > p."""
    (t, tp), (s, sp) = T, S
    out = []
    for f in itertools.product(range(s), repeat=t):
        ok = True
        for i, j in itertools.combinations(range(t), 2):
            if f[i] == f[j]:
                continue
            p, r = _level(tp, i, j), _level(sp, f[i], f[j])
            if r < p or (f[i] > f[j] and r == p):
                ok = False
                break
        if ok:
            out.append(f)
    return out


def pair_counts(n: int, K: int, component_size) -> tuple[int, int]:
    """Composable pairs (sigma: T -> S, omega: S -> R) inside the
    truncation of Ord(n) at K, and the associativity instances they carry.

    A pair carries |A(R)| * prod_i |A(omega^-1 i)| * prod_e |A(sigma^-1 e)|
    instances, where component_size(m) is |A| at an ordinal of size m.
    The sum factorises through the middle object S.
    """
    objects = [T for m in range(K + 1) for T in ordinal_profiles(n, m)]

    def fiber_product(f, target_size):
        return math.prod(component_size(f.count(i)) for i in range(target_size))

    pairs = instances = 0
    for S in objects:
        into = [f for T in objects for f in ordinal_maps(T, S)]
        out_of = [(R, g) for R in objects for g in ordinal_maps(S, R)]
        pairs += len(into) * len(out_of)
        inner = sum(fiber_product(f, S[0]) for f in into)
        outer = sum(component_size(R[0]) * fiber_product(g, R[0]) for R, g in out_of)
        instances += inner * outer
    return pairs, instances


def end_component_size(x_size: int):
    """|End_X(m)| = |X|^(|X|^m): all functions X^m -> X."""
    return lambda m: x_size ** (x_size ** m)


def check_axioms(answer: dict, n: int, K: int, component_size) -> list[str]:
    bad = []
    if not answer["ok"] or answer["violations"]:
        bad.append(f"axiom check failed: {answer['violations'][:3]}")
    pairs, instances = pair_counts(n, K, component_size)
    if answer["assoc_pairs"] != pairs:
        bad.append(f"{answer['assoc_pairs']} composable pairs, want {pairs}")
    if answer["assoc_instances"] != instances:
        bad.append(f"{answer['assoc_instances']} instances, want {instances}")
    for m, size in answer["component_sizes"].items():
        if size != component_size(int(m)):
            bad.append(f"component of size {m} has {size} elements")
    corrupted = answer.get("corrupted")
    if corrupted is not None and corrupted["ok"]:
        bad.append(f"corrupted unit entry {corrupted['entry']} passed the check")
    return bad


# ---------------------------------------------------------------------------
# monoids, symmetrisation and the command line


def count_monoids(x_size: int, commutative: bool) -> int:
    """Unital associative (optionally commutative) products on x_size points."""
    X = range(x_size)
    count = 0
    for table in itertools.product(X, repeat=x_size * x_size):
        def m(a, b):
            return table[a * x_size + b]
        if any(m(m(a, b), c) != m(a, m(b, c)) for a in X for b in X for c in X):
            continue
        if commutative and any(m(a, b) != m(b, a) for a in X for b in X):
            continue
        count += sum(all(m(e, a) == a == m(a, e) for a in X) for e in X)
    return count


def eckmann_hilton_counts(n: int, kmax: int) -> dict:
    """Classes per arity of the symmetrised one-point operad: k! at one
    level, a single class from two levels up (Eckmann-Hilton)."""
    return {str(k): math.factorial(k) if n == 1 else 1 for k in range(kmax + 1)}


def check_class_counts(data: dict, n: int, kmax: int) -> list[str]:
    want = eckmann_hilton_counts(n, kmax)
    if data["class_counts"] != want:
        return [f"class counts {data['class_counts']} at n={n}, want {want}"]
    return []


def check_monad_laws(report: dict) -> list[str]:
    if report["status"] != "pass" or report["data"]["violations"]:
        return [f"monad laws: {report['data']['summary']}"]
    return []


def check_verify_all(data: dict) -> list[str]:
    """The sub-reports of `verify all` against the closed forms."""
    bad = []
    for name, sub in data.items():
        if sub["status"] != "pass":
            bad.append(f"{name} reports {sub['status']}")
    eh = data["verify-eckmann-hilton"]
    bad += check_class_counts(eh, eh["n"], eh["kmax"])
    if data["verify-monad-laws"]["violations"]:
        bad.append("monad-law violations in verify all")
    for pair, res in data["verify-stable-range"]["pairs"].items():
        n, k = map(int, pair.split(","))
        bad += [f"stable-range {pair}: {p}" for p in check_betti(res, n, k)]
        if not (res["connected"] and res["vanishing"]):
            bad.append(f"stable-range {pair} is not connected with vanishing homology")
    for n in (1, 2):
        want = count_monoids(2, commutative=n >= 2)
        adj = data["verify-adjunction"][f"ass_{n}"]
        alg = data["verify-algebras"][f"ass_{n}_on_two_points"]
        got = (adj["sym_side"], adj["des_side"], alg["direct"], alg["symmetrized"])
        if got != (want,) * 4 or not (adj["bijection"] and alg["bijection"]):
            bad.append(f"n={n}: adjunction/algebra counts {got}, want {want} each")
    return bad


def strip_timing(report_text: str) -> str:
    """The report with its `timing` object removed, in canonical form."""
    body = json.loads(report_text)
    body.pop("timing", None)
    return json.dumps(body, sort_keys=True, indent=2)
