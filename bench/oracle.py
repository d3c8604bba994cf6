"""Independent correctness oracle for the benchmark.

Nothing here imports freebialg.  Words are tuples of ``(gen, exp)``
syllables in free-reduced form, scalars are ``(Fraction, Fraction)`` pairs,
and linear combinations are dicts from labels to such pairs.  Program
results are compared after converting their JSON (or public ``to_json``)
form into this representation, so a defect shared by the program's word,
scalar and algebra layers cannot hide itself.

Every ``check_*`` function returns a list of failure strings; an empty list
means the output is correct.
"""

from __future__ import annotations

from fractions import Fraction

# -- words ---------------------------------------------------------------------


def reduce_letters(letters) -> tuple:
    """Freely reduce a sequence of ``(gen, exp)`` syllables."""
    out: list = []
    for g, e in letters:
        if e == 0:
            continue
        if out and out[-1][0] == g:
            merged = out[-1][1] + e
            out.pop()
            if merged:
                out.append((g, merged))
        else:
            out.append((g, e))
    return tuple(out)


def word_mul(u: tuple, v: tuple) -> tuple:
    return reduce_letters(u + v)


def word_inv(u: tuple) -> tuple:
    return tuple((g, -e) for g, e in reversed(u))


def word_len(u: tuple) -> int:
    return sum(abs(e) for _, e in u)


def is_reduced(u, rank: int) -> bool:
    prev = 0
    for g, e in u:
        if e == 0 or not 1 <= g <= rank or g == prev:
            return False
        prev = g
    return True


def split(n: int, m: int, z: tuple) -> tuple[tuple, tuple]:
    """Image of a rank ``n*m`` word under ``g_{m(i-1)+j} -> (g_i, g_j)``."""
    left = reduce_letters(((k - 1) // m + 1, e) for k, e in z)
    right = reduce_letters(((k - 1) % m + 1, e) for k, e in z)
    return left, right


def in_cyclic(u: tuple, g: int) -> bool:
    """Whether ``u`` lies in the cyclic subgroup generated by ``g_g``."""
    return not u or (len(u) == 1 and u[0][0] == g)


def ball_size(k: int, r: int) -> int:
    """Closed-form count of reduced words of length at most ``r`` over ``k``
    free generators: ``1 + 2k((2k-1)^r - 1)/(2k-2)``."""
    if k == 1:
        return 1 + 2 * r
    return 1 + 2 * k * ((2 * k - 1) ** r - 1) // (2 * k - 2)


def ball(k: int, r: int) -> list[tuple]:
    """All reduced words of length at most ``r`` over ``k`` generators."""
    out = [()]
    frontier = [()]
    for _ in range(r):
        nxt = []
        for w in frontier:
            for g in range(1, k + 1):
                for e in (1, -1):
                    if w and w[-1][0] == g and (w[-1][1] > 0) != (e > 0):
                        continue
                    nxt.append(word_mul(w, ((g, e),)))
        out.extend(nxt)
        frontier = nxt
    return out


def factor_pairs(n: int) -> list[tuple[int, int]]:
    return [(m, n // m) for m in range(1, n + 1) if n % m == 0]


def orbit(n: int, m: int, radius: int) -> set:
    """Pairs reachable from ``(1, 1)`` in ``F_n x F_m`` by at most ``radius``
    left multiplications by split generators of rank ``n*m``."""
    moves = [split(n, m, ((k, e),)) for k in range(1, n * m + 1) for e in (1, -1)]
    seen = {((), ())}
    frontier = [((), ())]
    for _ in range(radius):
        nxt = []
        for g, h in frontier:
            for p, q in moves:
                pair = (word_mul(p, g), word_mul(q, h))
                if pair not in seen:
                    seen.add(pair)
                    nxt.append(pair)
        frontier = nxt
    return seen


def is_pd_disagreement(n: int, m: int, i: int, j: int, z: tuple) -> bool:
    """Exact characterisation of an indicator-tensor disagreement: ``z`` is
    not a power of ``g_{m(i-1)+j}`` but its pair image lies in
    ``<g_i> x <g_j>``.  The pulled-back indicator is then 1 and the direct
    one 0; the reverse never happens, since a power of ``g_{m(i-1)+j}``
    splits to the pair of powers of ``g_i`` and ``g_j``."""
    if in_cyclic(z, m * (i - 1) + j):
        return False
    p, q = split(n, m, z)
    return in_cyclic(p, i) and in_cyclic(q, j)


def count_pd_disagreements(n: int, m: int, i: int, j: int, radius: int) -> int:
    return sum(is_pd_disagreement(n, m, i, j, z) for z in ball(n * m, radius))


def kernel_word(n: int, m: int, i: int, l: int, j: int, k: int) -> tuple:
    return reduce_letters(
        [
            (m * (i - 1) + j, 1),
            (m * (i - 1) + k, -1),
            (m * (l - 1) + k, 1),
            (m * (l - 1) + j, -1),
        ]
    )


def as_word(data) -> tuple:
    return tuple((int(g), int(e)) for g, e in data)


# -- expected counts -------------------------------------------------------------

# Number of indicator-tensor disagreements on the radius ball, keyed by
# (n, m, i, j, radius).  Covers every (i, j) of every probe the benchmark can
# draw, so the check holds for any seed.  Derived with
# count_pd_disagreements; the self-test recomputes each entry.
PD_DISAGREEMENTS = {
    (2, 2, 1, 1, 4): 28, (2, 2, 1, 2, 4): 28, (2, 2, 2, 1, 4): 28, (2, 2, 2, 2, 4): 28,
    (2, 2, 1, 1, 5): 104, (2, 2, 1, 2, 5): 104, (2, 2, 2, 1, 5): 104, (2, 2, 2, 2, 5): 104,
    (2, 3, 1, 1, 4): 72, (2, 3, 1, 2, 4): 72, (2, 3, 1, 3, 4): 72,
    (2, 3, 2, 1, 4): 72, (2, 3, 2, 2, 4): 72, (2, 3, 2, 3, 4): 72,
    (3, 2, 1, 1, 4): 72, (3, 2, 1, 2, 4): 72, (3, 2, 2, 1, 4): 72,
    (3, 2, 2, 2, 4): 72, (3, 2, 3, 1, 4): 72, (3, 2, 3, 2, 4): 72,
}

# Orbit sizes of (1, 1) in F_n x F_m, keyed by (n, m, radius); from orbit.
ORBIT_SIZES = {(2, 2, 4): 1929, (2, 2, 5): 10929}

# The commutator pair ([g1, g2], 1) that `probe claims` looks for in the
# orbit, and whether the radius-4 orbit reaches it.
COMMUTATOR = ((1, 1), (2, 1), (1, -1), (2, -1))
ORBIT_SEPARATION_FOUND = {4: True}


def verify_expected() -> dict[str, dict]:
    """Expected witness of every check in the four suites.  Each count is
    fixed by the suite's loop bounds, not by the seed."""
    b = ball_size
    checked = {
        "words.cancellation-witnesses": sum(b(n, 3) * b(m, 3) for n in (1, 2) for m in (1, 2)) + 100,
        "words.kernel-witnesses": sum(n * n * m * m for n in (2, 3) for m in (2, 3)),
        "words.lift-constructions": 2 * 300,
        "words.phi-homomorphism": 300,
        "words.reduction-laws": 300,
        "bialgebra.coassociativity": sum(range(1, 25)) + 200,
        "bialgebra.comodule": 24 * 3 * 3,
        "bialgebra.counit-law": sum(range(1, 25)) + 200,
        "bialgebra.kernel-identity": sum(n * n * m * m for n in (2, 3) for m in (2, 3)),
        "bialgebra.standard-delta-compat": sum(n * m for n in range(1, 5) for m in range(1, 5)),
        "bialgebra.unitization": 100,
        "bialgebra.wcs-axioms": sum(n * m * l for n in range(1, 5) for m in range(1, 5) for l in range(1, 5))
        + sum(range(1, 13)),
        "reps.action-laws": 2 * 200,
        "reps.cyclicity": 4 * b(2, 3) ** 2,
        "reps.fixed-vectors": 2 * 2 + 3 * 3,
        "reps.gns-coefficients": 2 * b(2, 4) + 3 * b(3, 4),
        "reps.gram-psd": 2 + 3 + 4,
        "reps.intertwiner": 200,
        "morphisms.alpha-morphism": 3 * sum(range(1, 13)),
        "morphisms.beta-involution": 100,
        "morphisms.beta-morphism": sum(range(1, 25)),
    }
    out = {claim: {"checked": n} for claim, n in checked.items()}
    out["bialgebra.noncocommutativity"] = {"summands": len(factor_pairs(6))}
    out["morphisms.group-laws"] = None  # a report; checked field by field
    return out


VERIFY_EXPECTED = verify_expected()


# -- verify ------------------------------------------------------------------------


def check_verify(suite: str, seed: int, code: int, report: dict) -> list[str]:
    where = f"verify {suite} seed={seed}"
    fails = []
    if code != 0:
        fails.append(f"{where}: exit code {code}")
    if report.get("command") != "verify" or report.get("suite") != suite:
        fails.append(f"{where}: wrong report header")
    if report.get("seed") != seed or report.get("status") != "verified":
        fails.append(f"{where}: seed or status wrong: {report.get('status')}")
    want = {c: w for c, w in VERIFY_EXPECTED.items() if c.startswith(suite + ".")}
    results = report.get("results", [])
    claims = [r.get("claim") for r in results]
    if claims != sorted(want):
        fails.append(f"{where}: claims {claims} != {sorted(want)}")
    for r in results:
        claim = r.get("claim")
        if r.get("status") != "verified":
            fails.append(f"{where}: {claim} not verified")
        expected = want.get(claim)
        witness = r.get("witness")
        if claim == "morphisms.group-laws":
            ok = (
                isinstance(witness, dict)
                and witness.get("status") == "verified"
                and witness.get("beta_involution") == {"exact": True}
                and witness.get("alpha_additivity", {}).get("ok") is True
                and witness.get("alpha_beta_commute", {}).get("ok") is True
            )
            if not ok:
                fails.append(f"{where}: {claim} report {witness}")
        elif witness != expected:
            fails.append(f"{where}: {claim} witness {witness} != {expected}")
    return fails


# -- probe ---------------------------------------------------------------------------


def check_tensor_pd(n: int, m: int, i: int, j: int, radius: int, report: dict) -> list[str]:
    where = f"tensor-pd {n} {m} {i} {j} r={radius}"
    fails = []
    if report.get("claim") != "prop-indicator-tensor" or report.get("radius") != radius:
        fails.append(f"{where}: wrong report header")
    if report.get("params") != {"n": n, "m": m, "i": i, "j": j}:
        fails.append(f"{where}: params {report.get('params')}")
    seen = set()
    for d in report.get("disagreements", []):
        z = as_word(d["z"])
        if z in seen or not is_reduced(z, n * m) or word_len(z) > radius:
            fails.append(f"{where}: bad or repeated word {d['z']}")
        seen.add(z)
        if not is_pd_disagreement(n, m, i, j, z):
            fails.append(f"{where}: {d['z']} is not a disagreement")
        if d.get("pullback") != 1 or d.get("direct") != 0:
            fails.append(f"{where}: {d['z']} values {d.get('pullback')}, {d.get('direct')}")
    want = PD_DISAGREEMENTS.get((n, m, i, j, radius))
    if len(seen) != want:
        fails.append(f"{where}: {len(seen)} disagreements, expected {want}")
    return fails


def check_orbit(n: int, m: int, radius: int, report: dict) -> list[str]:
    want = {
        "command": "orbit",
        "params": {"n": n, "m": m},
        "radius": radius,
        "count": ORBIT_SIZES.get((n, m, radius)),
    }
    return [] if report == want else [f"orbit {n} {m} r={radius}: {report} != {want}"]


def check_probe_claims(radius: int, report: dict) -> list[str]:
    where = f"probe claims r={radius}"
    fails = []
    if report.get("command") != "probe" or report.get("radius") != radius:
        fails.append(f"{where}: wrong report header")
    reports = report.get("reports", [])
    tensor = [r for r in reports if r.get("claim") == "prop-indicator-tensor"]
    grid = [(n, m, i, j) for n, m in ((2, 2), (2, 3)) for i in range(1, n + 1) for j in range(1, m + 1)]
    got = [(r["params"]["n"], r["params"]["m"], r["params"]["i"], r["params"]["j"]) for r in tensor]
    if sorted(got) != sorted(grid):
        fails.append(f"{where}: tensor probes {got}")
    for r in tensor:
        p = r["params"]
        fails += check_tensor_pd(p["n"], p["m"], p["i"], p["j"], radius, r)
    orbit = [r for r in reports if r.get("claim") == "prop-orbit-separation"]
    if len(orbit) != 1 or orbit[0].get("orbit_size") != ORBIT_SIZES.get((2, 2, radius)):
        fails.append(f"{where}: orbit-separation report {orbit}")
    else:
        pairs = [d.get("pair") for d in orbit[0].get("disagreements", [])]
        want = [[[list(s) for s in COMMUTATOR], []]] if ORBIT_SEPARATION_FOUND.get(radius) else []
        if pairs != want:
            fails.append(f"{where}: orbit-separation finding {pairs}")
    inj = [r for r in reports if r.get("claim") == "prop-intertwiner-injectivity"]
    kw = [list(s) for s in kernel_word(2, 2, 1, 2, 1, 2)]
    # the kernel word splits to (1, 1), so the intertwiner identifies it with 1
    if len(inj) != 1 or [d.get("z") for d in inj[0].get("disagreements", [])] != [kw]:
        fails.append(f"{where}: intertwiner-injectivity report {inj}")
    if len(reports) != len(grid) + 2:
        fails.append(f"{where}: {len(reports)} reports")
    return fails


# -- algebra ---------------------------------------------------------------------------


def _acc(d: dict, key, c) -> None:
    if key in d:
        re, im = d[key]
        c = (re + c[0], im + c[1])
    d[key] = c


def _clean(d: dict) -> dict:
    return {k: c for k, c in d.items() if c[0] or c[1]}


def cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def convolve(a: dict, b: dict) -> dict:
    """Naive group-algebra product of two ``{word: scalar}`` dicts."""
    out: dict = {}
    for u, c in a.items():
        for v, d in b.items():
            _acc(out, word_mul(u, v), cmul(c, d))
    return _clean(out)


def star(a: dict) -> dict:
    return {word_inv(w): (re, -im) for w, (re, im) in a.items()}


def split_linear(n: int, m: int, a: dict) -> dict:
    out: dict = {}
    for w, c in a.items():
        _acc(out, split(n, m, w), c)
    return _clean(out)


def delta(components: dict[int, dict]) -> dict[tuple, dict]:
    """Graded coproduct ``{(m, l): split_linear(m, l, a_n)}`` over every
    ordered factorisation ``n = m*l`` of every component rank."""
    out = {}
    for n, a in components.items():
        for m, l in factor_pairs(n):
            part = split_linear(m, l, a)
            if part:
                out[(m, l)] = part
    return out


def _scalar(entry) -> tuple:
    return Fraction(entry["re"]), Fraction(entry["im"])


def _scalar_text(entry) -> tuple:
    return entry["re"], entry["im"]


def from_element_json(data: dict, scalar=_scalar) -> dict:
    """``{word: scalar}`` from an AlgebraElement's JSON form."""
    return {as_word(t["word"]): scalar(t) for t in data["terms"]}


def from_tensor_json(data: dict, scalar=_scalar) -> dict:
    return {(as_word(t["words"][0]), as_word(t["words"][1])): scalar(t) for t in data["terms"]}


def from_delta_json(data: dict, scalar=_scalar) -> dict[tuple, dict]:
    out = {}
    for key, sub in data["components"].items():
        m, l = (int(x) for x in key.split(","))
        out[(m, l)] = from_tensor_json(sub, scalar)
    return out


def as_text(d: dict) -> dict:
    """``d`` with each scalar as the pair of its parts' decimal texts."""
    return {k: as_text(v) if isinstance(v, dict) else (str(v[0]), str(v[1])) for k, v in d.items()}


def compare_json(name: str, read, data: dict, want: dict, want_text: dict) -> list[str]:
    """Compare a JSON form, read by ``read``, with the oracle's ``want``.

    Reading 70,000 coefficients as Fractions costs about a second, so the
    texts are compared with ``want_text`` (``as_text(want)``) first; only on
    a mismatch are the values read and compared exactly, so a scalar written
    in another but equal form still passes."""
    if read(data, _scalar_text) == want_text:
        return []
    return compare(name, read(data), want)


def compare(name: str, got: dict, want: dict) -> list[str]:
    if got == want:
        return []
    missing = len(want.keys() - got.keys())
    extra = len(got.keys() - want.keys())
    wrong = sum(1 for k in want.keys() & got.keys() if want[k] != got[k])
    return [f"{name}: {missing} terms missing, {extra} extra, {wrong} coefficients differ"]
