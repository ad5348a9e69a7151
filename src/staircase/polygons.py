"""Brute-force enumeration and symmetry classification of staircase polygons.

A staircase polygon is the region between two up/right lattice walks that
share exactly their endpoints.  Both walks take one step per unit of x+y, so
two walks collide exactly when they occupy the same lockstep position;
``enumerate_polygons`` walks pairs of paths depth-first, pruning on that
condition.  ``enumerate_counts`` appends whole columns instead, and the two
are tested against each other.  Both are deliberately independent of the
sequence decomposition behind the functional equations, so the resulting
count table serves as ground truth for the series solvers.

Polygons are stored as column tuples: entry i is the half-open cell interval
(bottom, top) of abscissa i.  Point symmetries of the square lattice act on
the enclosed cell set.  Class membership is decided by ``enumerate_counts``'
tally and, independently, by ``is_fixed``, which tests one element on the
cells up to translation.  The tally reads r2 off the columns' half turn, d1
and d2 off the transpose, and rect and square off the column bounds: an axis
reflection fixes only rectangles, a quarter turn only squares.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

ELEMENTS = ("e", "r", "r2", "r3", "h", "v", "d1", "d2")

# 2x2 integer matrices (a, b, c, d): (x, y) -> (a*x + b*y, c*x + d*y).
# r is the quarter turn, h/v reflect across the horizontal/vertical axis,
# d1/d2 across the positive/negative diagonal.
_MATS = {
    "e": (1, 0, 0, 1),
    "r": (0, -1, 1, 0),
    "r2": (-1, 0, 0, -1),
    "r3": (0, 1, -1, 0),
    "h": (1, 0, 0, -1),
    "v": (-1, 0, 0, 1),
    "d1": (0, 1, 1, 0),
    "d2": (0, -1, -1, 0),
}

_BY_MAT = {mat: name for name, mat in _MATS.items()}


def _matmul(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2,
            c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)


COMPOSE = {(g, h): _BY_MAT[_matmul(_MATS[g], _MATS[h])]
           for g in ELEMENTS for h in ELEMENTS}


def compose(g: str, h: str) -> str:
    """g after h."""
    return COMPOSE[(g, h)]


def inverse(g: str) -> str:
    for h in ELEMENTS:
        if COMPOSE[(g, h)] == "e":
            return h
    raise KeyError(g)


SUBGROUPS = {
    "e": ("e",),
    "r2": ("e", "r2"),
    "r": ("e", "r", "r2", "r3"),
    "d1": ("e", "d1"),
    "d2": ("e", "d2"),
    "d1d2": ("e", "r2", "d1", "d2"),
    "h": ("e", "h"),
    "v": ("e", "v"),
    "hv": ("e", "r2", "h", "v"),
    "d4": ELEMENTS,
}

_STABILIZERS = {frozenset(members) for members in SUBGROUPS.values()}


# ---------------------------------------------------------------------------
# polygons
# ---------------------------------------------------------------------------

def _parse_steps(steps):
    out = []
    for s in steps:
        if s in (1, "R", "r"):
            out.append(1)
        elif s in (0, "U", "u"):
            out.append(0)
        else:
            raise ValueError(f"walk steps must be R/U (or 1/0), got {s!r}")
    return out


@dataclass(frozen=True)
class Polygon:
    """A staircase polygon in canonical position (bounding box at the origin)."""

    columns: tuple

    @classmethod
    def from_columns(cls, columns) -> "Polygon":
        cols = [(int(b), int(t)) for b, t in columns]
        if not cols:
            raise ValueError("a polygon needs at least one column")
        for i, (b, t) in enumerate(cols):
            if t <= b:
                raise ValueError(f"column {i} is empty")
            if i:
                pb, pt = cols[i - 1]
                if b < pb or t < pt:
                    raise ValueError("column bounds must be nondecreasing")
                if b >= pt:
                    raise ValueError(f"columns {i - 1} and {i} do not touch")
        base = cols[0][0]
        return cls(tuple((b - base, t - base) for b, t in cols))

    @classmethod
    def from_walks(cls, lower, upper) -> "Polygon":
        lo = _parse_steps(lower)
        up = _parse_steps(upper)
        if len(lo) != len(up):
            raise ValueError("the two walks must have the same length")
        if len(lo) < 2:
            raise ValueError("walks of a polygon have at least two steps")
        if sum(lo) != sum(up):
            raise ValueError("the walks must end at the same vertex")
        # Both walks advance one unit of x+y per step, so they share a vertex
        # exactly when their lockstep positions coincide.
        dx = 0
        for i, (ls, us) in enumerate(zip(lo, up)):
            dx += ls - us
            if dx == 0 and i < len(lo) - 1:
                raise ValueError("walks share an interior vertex")
            if dx < 0:
                raise ValueError("lower walk crossed above the upper walk")
        if dx != 0:
            raise ValueError("the walks must end at the same vertex")
        return cls(_columns_from_walks(lo, up))

    @property
    def width(self) -> int:
        return len(self.columns)

    @property
    def height(self) -> int:
        return self.columns[-1][1]

    @property
    def half_perimeter(self) -> int:
        return self.width + self.height

    @property
    def area(self) -> int:
        return sum(t - b for b, t in self.columns)

    def cells(self) -> frozenset:
        return frozenset((i, y) for i, (b, t) in enumerate(self.columns)
                         for y in range(b, t))

    def walks(self) -> tuple:
        """The two boundary walks (lower, upper) as R/U strings; the lower
        walk traces the bottom-right boundary, the upper the top-left."""
        bottoms = [b for b, _ in self.columns] + [self.height]
        tops = [t for _, t in self.columns]
        lower = "".join("R" + "U" * (bottoms[i + 1] - bottoms[i])
                        for i in range(self.width))
        upper = "U" * tops[0] + "".join(
            "R" + "U" * (tops[i + 1] - tops[i]) for i in range(self.width - 1)) + "R"
        return lower, upper

    def __repr__(self):
        return f"Polygon({list(self.columns)!r})"


def _columns_from_walks(lo, up):
    b = []
    y = 0
    for s in lo:
        if s:
            b.append(y)
        else:
            y += 1
    t = []
    y = 0
    for s in up:
        if s:
            t.append(y)
        else:
            y += 1
    return tuple(zip(b, t))


# ---------------------------------------------------------------------------
# symmetry actions
# ---------------------------------------------------------------------------

def transform_cells(g: str, cells) -> frozenset:
    """The g-image of a cell set (unit squares [i,i+1] x [j,j+1]), translated
    back to canonical position.  The image of a staircase polygon need not be
    one again (a quarter turn of a bend is not)."""
    a, b, c, d = _MATS[g]
    out = set()
    for i, j in cells:
        out.add((a * i + b * j + ((a + b - 1) // 2),
                 c * i + d * j + ((c + d - 1) // 2)))
    min_x = min(x for x, _ in out)
    min_y = min(y for _, y in out)
    return frozenset((x - min_x, y - min_y) for x, y in out)


def is_fixed(g: str, polygon: Polygon) -> bool:
    """Whether the g-image of the polygon, translated back to canonical
    position, has the same edge set (equivalently, cell set)."""
    cells = polygon.cells()
    return transform_cells(g, cells) == cells


def symmetry_signature(polygon: Polygon) -> frozenset:
    """The stabilizer of the polygon inside the point group of the lattice;
    always one of its ten subgroups."""
    stab = frozenset(g for g in ELEMENTS if is_fixed(g, polygon))
    if stab not in _STABILIZERS:
        raise RuntimeError(f"stabilizer {sorted(stab)} is not a subgroup")
    return stab


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _check_bound(max_half_perimeter: int):
    if not 2 <= max_half_perimeter <= 16:
        raise ValueError("max half-perimeter must be between 2 and 16")


def enumerate_polygons(max_half_perimeter: int):
    """Yield every staircase polygon of half-perimeter <= the bound, each
    exactly once, as a validated Polygon."""
    _check_bound(max_half_perimeter)
    lo = [1]
    up = [0]

    def descend(dx):
        if dx == 0:
            yield Polygon.from_walks(tuple(lo), tuple(up))
            return
        depth = len(lo)
        if depth == max_half_perimeter or dx > max_half_perimeter - depth:
            return
        for ls, us in ((1, 1), (1, 0), (0, 1), (0, 0)):
            lo.append(ls)
            up.append(us)
            yield from descend(dx + ls - us)
            lo.pop()
            up.pop()

    yield from descend(1)


@dataclass
class CountTable:
    """Exact polygon counts per (symmetry class, half-perimeter, area)."""

    counts: dict
    max_half_perimeter: int

    def count(self, class_id: str, m: int, n: int) -> int:
        return self.counts.get((class_id, m, n), 0)

    def class_slice(self, class_id: str, m: int) -> dict:
        return {key[2]: v for key, v in self.counts.items()
                if key[0] == class_id and key[1] == m}

    def total(self, class_id: str, m: int) -> int:
        return sum(self.class_slice(class_id, m).values())

    def rows(self):
        return [(c, m, n, self.counts[(c, m, n)])
                for c, m, n in sorted(self.counts)]


def enumerate_counts(max_half_perimeter: int) -> CountTable:
    """Count every staircase polygon with half-perimeter up to the bound,
    classified by which of the class symmetries (r2, d1, d2, h, r) fix it.

    Every prefix of a staircase polygon's columns is a staircase polygon, so
    a depth-first search that appends one column at a time visits each
    polygon exactly once and never reaches a dead end: after a column
    (b', t') comes any (b, t) with b' <= b < t' and t >= t'.  The area grows
    by t - b per column."""
    _check_bound(max_half_perimeter)
    counts: Counter = Counter()
    b: list = []
    t: list = []

    def tally(m, n):
        width = len(b)
        height = t[-1]
        counts["full", m, n] += 1
        for i in range((width + 1) // 2):
            j = width - 1 - i
            if b[i] != height - t[j] or t[i] != height - b[j]:
                break
        else:
            counts["r2", m, n] += 1
        # an axis reflection fixes only rectangles (b[0] = 0 and both bounds
        # are nondecreasing, so b[i] + t[i] = height forces t = height and
        # b = 0), and a quarter turn only squares
        rect = t[0] == height and b[-1] == 0
        if rect:
            counts["rect", m, n] += 1
        if width != height:
            return  # the diagonals and the quarter turn need a square box
        if rect:
            counts["square", m, n] += 1
        # the transpose's columns
        tb = []
        tt = []
        s = 0
        e = 0
        for y in range(height):
            while t[s] <= y:
                s += 1
            while e + 1 < width and b[e + 1] <= y:
                e += 1
            tb.append(s)
            tt.append(e + 1)

        fixed_d1 = tb == b and tt == t
        if fixed_d1:
            counts["d1", m, n] += 1
        for i in range(width):
            j = width - 1 - i
            if b[i] != height - tt[j] or t[i] != height - tb[j]:
                break
        else:
            counts["d2", m, n] += 1
            if fixed_d1:
                counts["d1d2", m, n] += 1

    def extend(area):
        # the new column is column number `width`; its top is at most the
        # bound minus the new width, which keeps the half-perimeter in range
        width = len(b) + 1
        last_b, last_t = b[-1], t[-1]
        for nb in range(last_b, last_t):
            b.append(nb)
            for nt in range(last_t, max_half_perimeter - width + 1):
                t.append(nt)
                n = area + nt - nb
                tally(width + nt, n)
                extend(n)
                t.pop()
            b.pop()

    b.append(0)
    for top in range(1, max_half_perimeter):
        t.append(top)
        tally(1 + top, top)
        extend(top)
        t.pop()
    return CountTable(dict(counts), max_half_perimeter)
