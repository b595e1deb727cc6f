"""Independent checks of every output the benchmark's operations produce.

Nothing here imports qhelly.  Each check recomputes what the output
must be from a route of its own and raises CheckError on the first
disagreement:

- census files: interior and boundary counts from Pick's formula and
  edge gcds, strict convexity of every stored cycle, sort order, and
  the per-count class totals Castryck published (Moving out the edges
  of a lattice polygon, DCG 2012);
- the planar profile: g and c derived from those recounts plus the
  width-1 value 4, and c(Z^2, 0..4) = 4, 6, 6, 6, 8 from the paper;
- audit, maximal: the bound formulas and c(k) from the same recounts;
- finite sites: the power-set oracle in oracle.py;
- witnesses: the construction formulas for t, s, k' and 2 t^(n-1),
  and the theorem-4 counts;
- constants: every verdict a pass.
"""

from __future__ import annotations

import itertools
import json
import re
from math import gcd
from pathlib import Path

import oracle

# classes of lattice polygons with lattice width >= 2, by interior count
CASTRYCK_COUNTS = (1, 16, 45, 120, 211, 403, 714, 1023, 1830, 2700, 3659)
# c(Z^2, k) for k = 0..4, exact values from the paper
PAPER_C_Z2 = (4, 6, 6, 6, 8)
# width-1 trapezoids reach 4 vertices with any number of non-vertex points
WIDTH1_VERTICES = 4

_HEADER_RE = re.compile(r"\Apolygon-census v1 interior=(\d+) box=(\d+) complete=([01])\Z")


class CheckError(Exception):
    """An output disagrees with its independent recomputation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# lattice polygons


def recount_polygon(vertices) -> tuple[int, int]:
    """(interior, boundary) lattice points of a strictly convex vertex cycle."""
    n = len(vertices)
    _require(n >= 3, f"polygon with {n} vertices: {vertices}")
    turns = set()
    twice_area = 0
    boundary = 0
    for i in range(n):
        (x0, y0), (x1, y1), (x2, y2) = vertices[i], vertices[(i + 1) % n], vertices[(i + 2) % n]
        cross = (x1 - x0) * (y2 - y1) - (y1 - y0) * (x2 - x1)
        _require(cross != 0, f"collinear vertices in {vertices}")
        turns.add(cross > 0)
        twice_area += x0 * y1 - x1 * y0
        boundary += gcd(x1 - x0, y1 - y0)
    _require(len(turns) == 1, f"vertex cycle is not convex: {vertices}")
    twice_area = abs(twice_area)
    # Pick: A = I + B/2 - 1
    return (twice_area - boundary + 2) // 2, boundary - n


def check_census_text(text: str, interior: int) -> list[tuple[int, int]]:
    """Validate one cache file; returns (vertex count, non-vertex count) per class."""
    lines = text.split("\n")
    _require(len(lines) >= 3 and lines[-1] == "", f"interior {interior}: truncated file")
    header = _HEADER_RE.match(lines[0])
    _require(header is not None, f"interior {interior}: bad header {lines[0]!r}")
    _require(int(header.group(1)) == interior, f"interior {interior}: header says {header.group(1)}")
    _require(header.group(3) == "1", f"interior {interior}: file not marked complete")
    body = lines[1:-2]
    _require(lines[-2] == f"count={len(body)}", f"interior {interior}: count trailer {lines[-2]!r}")
    _require(
        len(body) == CASTRYCK_COUNTS[interior],
        f"interior {interior}: {len(body)} classes, published count is {CASTRYCK_COUNTS[interior]}",
    )
    keys = []
    out = []
    for line in body:
        nums = [int(tok) for tok in line.split(" ")]
        v = nums[0]
        _require(len(nums) == 1 + 2 * v, f"interior {interior}: bad class line {line!r}")
        verts = tuple((nums[1 + 2 * j], nums[2 + 2 * j]) for j in range(v))
        inner, boundary = recount_polygon(verts)
        _require(inner == interior, f"class {verts} has {inner} interior points, file says {interior}")
        keys.append((v, verts))
        out.append((v, inner + boundary))
    _require(keys == sorted(set(keys)), f"interior {interior}: classes not sorted and distinct")
    return out


def check_census_dir(directory: Path, k_max: int) -> list[list[tuple[int, int]]]:
    """Validate the cache files for interior counts 0..k_max."""
    return [
        check_census_text((Path(directory) / f"interior_{i:02d}.census").read_text(), i)
        for i in range(k_max + 1)
    ]


def z2_profile(buckets: list, k_max: int) -> tuple[list, list]:
    """g and c of Z^2 for k = 0..k_max from recounted classes.

    A polygon with k non-vertex points has at most k interior points, so
    the buckets 0..k_max decide every value; c[k] = max over l <= k of
    g[l] - (k - l).
    """
    g = [WIDTH1_VERTICES] * (k_max + 1)
    for bucket in buckets:
        for vertices, nonvertex in bucket:
            if nonvertex <= k_max:
                g[nonvertex] = max(g[nonvertex], vertices)
    c = [max(g[l] - (k - l) for l in range(k + 1)) for k in range(k_max + 1)]
    head = tuple(c[: len(PAPER_C_Z2)])
    _require(head == PAPER_C_Z2[: len(head)], f"c(Z^2, 0..4) = {head}, the paper gives {PAPER_C_Z2}")
    return g, c


# ---------------------------------------------------------------------------
# profiles


def _parse_csv_profile(text: str) -> tuple[list, list]:
    lines = text.splitlines()
    _require(bool(lines) and lines[0] == "k,g,c", f"profile header {lines[:1]}")
    g, c = [], []
    for k, line in enumerate(lines[1:]):
        parts = line.split(",")
        _require(len(parts) == 3 and parts[0] == str(k), f"profile row {line!r}")
        g.append(None if parts[1] == "-inf" else int(parts[1]))
        c.append(None if parts[2] == "-inf" else int(parts[2]))
    return g, c


def check_profile_csv(text: str, g: list, c: list) -> None:
    got_g, got_c = _parse_csv_profile(text)
    _require(got_g == list(g), f"g column {got_g} != expected {list(g)}")
    _require(got_c == list(c), f"c column {got_c} != expected {list(c)}")


def check_z2_json(text: str, g: list, c: list) -> None:
    """Profile values, drop points, and a Pick recount of every witness."""
    doc = json.loads(text)
    _require(doc["g"] == list(g), f"g {doc['g']} != expected {list(g)}")
    _require(doc["c"] == list(c), f"c {doc['c']} != expected {list(c)}")
    drops = [k for k in range(1, len(g)) if g[k] == g[k - 1] - 1]
    _require(doc["drops"] == drops, f"drops {doc['drops']} != expected {drops}")
    _require(len(doc["witnesses"]) == len(g), "one witness per k expected")
    for k, witness in enumerate(doc["witnesses"]):
        verts = [tuple(p) for p in witness]
        inner, boundary = recount_polygon(verts)
        _require(
            (len(verts), inner + boundary) == (g[k], k),
            f"witness for k={k} has {len(verts)} vertices and {inner + boundary} "
            f"non-vertex points, expected {g[k]} and {k}",
        )


def check_site_csv(text: str, dims: str, reference: dict) -> None:
    ref = reference[dims]
    check_profile_csv(text, ref["g"], ref["c"])


def check_site_json(text: str, dims: str, reference: dict) -> None:
    """Profile values against the oracle; each witness recounted in the site."""
    ref = reference[dims]
    doc = json.loads(text)
    _require(doc["g"] == ref["g"], f"{dims}: g {doc['g']} != oracle {ref['g']}")
    _require(doc["c"] == ref["c"], f"{dims}: c {doc['c']} != oracle {ref['c']}")
    points = oracle.grid_points(dims)
    for k, witness in enumerate(doc["witnesses"]):
        if ref["g"][k] is None:
            _require(witness is None, f"{dims}: witness for k={k} where g is -inf")
            continue
        verts = [tuple(p) for p in witness]
        inside = sum(1 for p in points if oracle.in_hull(p, verts))
        _require(
            (len(verts), inside - len(verts)) == (ref["g"][k], k),
            f"{dims}: witness for k={k} has {len(verts)} vertices and "
            f"{inside - len(verts)} non-vertex points",
        )


# ---------------------------------------------------------------------------
# audit and maximal expansion


def _bounds(k: int, h: int, n: int) -> dict:
    out = {}
    if h >= 2:
        out["paired_step"] = ((k + 1) // 2) * (h - 2) + h
    out["linear"] = (k + 1) * h
    out["two_thirds"] = -(-2 * (k + 1) // 3) * (2**n - 2) + 2
    out["power"] = (k + 2) ** n
    return out


_AUDIT_RE = re.compile(r"\Ak=(\d+) (\w+): c=(\S+) bound=(-?\d+) (=|<|VIOLATED)\Z")


def check_audit(text: str, c: list, n: int = 2) -> None:
    """Every bound and mark recomputed from c; every (k, bound) present once."""
    lines = text.splitlines()
    _require(lines[0] == f"audit Z^2: h={c[0]}", f"audit header {lines[0]!r}")
    seen = {}
    for line in lines[1:]:
        m = _AUDIT_RE.match(line)
        _require(m is not None, f"audit line {line!r}")
        seen[(int(m.group(1)), m.group(2))] = (m.group(3), int(m.group(4)), m.group(5))
    expected = {}
    for k, value in enumerate(c):
        for name, bound in _bounds(k, c[0], n).items():
            _require(value <= bound, f"c({k}) = {value} exceeds the {name} bound {bound}")
            expected[(k, name)] = (str(value), bound, "=" if value == bound else "<")
    _require(len(lines) - 1 == len(seen), "audit repeats a (k, bound) line")
    _require(seen == expected, f"audit lines differ from the recomputed bounds: "
             f"{sorted(set(seen.items()) ^ set(expected.items()))[:3]}")


def check_maximal(text: str, c: list) -> None:
    lines = text.splitlines()
    _require(lines[0] == "k,helly,facets,rounds,member", f"maximal header {lines[0]!r}")
    _require(len(lines) == len(c), f"maximal has {len(lines) - 1} rows, expected {len(c) - 1}")
    for k, line in enumerate(lines[1:], start=1):
        parts = line.split(",")
        _require(
            parts[0] == str(k) and parts[1] == str(c[k]) and parts[2] == str(c[k]) and parts[4] == "yes",
            f"maximal row {line!r}: expected member yes and {c[k]} facets",
        )


# ---------------------------------------------------------------------------
# witnesses and constants


def check_theorem4(text: str, n: int) -> None:
    lines = text.splitlines()
    top = 2 ** (n + 1)
    expected = [
        (f"cube(n={n})", 2**n, 0),
        (f"fused_cubes(n={n})", top - 2, 1),
        (f"prism_spike(n={n}, spike=2)", top - 2, 2),
        (f"prism_spike(n={n}, spike=3)", top - 2, 3),
        (f"double_spike(n={n})", top, 4),
    ]
    want = [f"{label}: vertices {v} nonvertex {k} ok" for label, v, k in expected]
    _require(lines == want, f"theorem4 n={n}: {lines} != {want}")


def _column_nonvertex(n: int, t: int, s: int) -> int:
    # lower sheet sum(x_i^2 - t^2), upper sheet s + sum(t^2 - x_i^2);
    # every point strictly between a column's two endpoints is non-vertex
    total = 0
    for x in itertools.product(range(1, t + 1), repeat=n - 1):
        q = sum(v * v for v in x)
        lo = q - (n - 1) * t * t
        hi = s + (n - 1) * t * t - q
        total += hi - lo - 1
    return total


def lower_bound_parameters(n: int, k: int) -> tuple[int, int, int]:
    """(t, s, k') of the parabolic construction for budget k >= 2n."""
    t = 1
    while 2 * n * (t + 1) ** (n + 1) <= k:
        t += 1
    _require(2 * n * t ** (n + 1) <= k, f"k = {k} below the construction's range")
    cells = t ** (n - 1)
    s = 1 + (k - _column_nonvertex(n, t, 1)) // cells
    k_prime = _column_nonvertex(n, t, s)
    _require(k_prime <= k < _column_nonvertex(n, t, s + 1), f"no maximal cap height for k = {k}")
    return t, s, k_prime


def check_lowerbound(text: str, n: int, k: int) -> None:
    t, s, k_prime = lower_bound_parameters(n, k)
    cells = t ** (n - 1)
    want = [
        f"parabolic(n={n}, k={k}): parabolic body t={t} s={s} k_prime={k_prime} "
        f"vertices={2 * cells} bound={cells}",
        f"  recount: vertices {2 * cells} nonvertex {k_prime} total {2 * cells + k_prime} ok",
    ]
    _require(text.splitlines() == want, f"lowerbound n={n} k={k}: {text.splitlines()} != {want}")


def check_constants(text: str, lo: int, hi: int) -> None:
    lines = text.splitlines()
    heads = [f"constants n={n}:" for n in range(lo, hi + 1)]
    heads += [f"growth chain n={n}:" for n in range(lo, min(hi, 8) + 1)]
    _require(len(lines) == len(heads), f"constants: {len(lines)} lines, expected {len(heads)}")
    for line, head in zip(lines, heads):
        verdicts = line[len(head):].split()
        _require(line.startswith(head) and verdicts, f"constants line {line!r}")
        _require(all(v.endswith("=pass") for v in verdicts), f"constants verdict not pass: {line!r}")
