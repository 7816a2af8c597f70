"""Toy semisimple Tate categories: bounded complexes of rational vector
spaces and their internally graded refinements.

An ungraded object is a bounded complex of finite-dimensional spaces.  A
graded object keeps one such complex per internal degree g; differentials
never mix internal degrees, so a graded complex is literally a finite
direct sum of layers.  The one-dimensional object with internal degree g
placed in cohomological position c is written simple(c, g); the twist
convention puts the p-th twist of the unit in internal degree -p.

Bookkeeping rules, locked by the worked witness below:

* [q] moves a class from position c to c - q;
* the weight of a simple at (c, g) is c - 2g;
* the collapse functor sends the layer at internal degree g to the same
  complex shifted by [2g], so a simple at (c, g) lands in position c - 2g.

The collapse witness: the twist of the unit placed at (c, g) = (-2, -1)
has weight 0 and collapses to the unit in position 0, so collapse respects
weight but not cohomological position.

Truncations minimise first (every complex here splits up to homotopy), then
select simples by position (t) or by weight (w); on ungraded complexes the
two selections coincide.  Axiom checkers verify nesting, Hom-orthogonality
and split decomposition triangles on finite samples.
"""

from __future__ import annotations

import random

from .linalg import QMatrix, SparseSystem, check_dims, combine, hom_equations, place_blocks, rank


class Complex:
    """A bounded complex of finite-dimensional rational vector spaces.

    With ``validate``, the default, the positions and dimensions given are
    checked to be ints, the dimensions non-negative, and d∘d to vanish."""

    __slots__ = ("dims", "diffs")

    def __init__(self, dims, diffs=None, validate: bool = True):
        if validate:
            check_dims(dims, "position", diffs or ())
        self.dims = {int(c): int(m) for c, m in dims.items() if m}
        ds: dict[int, QMatrix] = {}
        for c, mat in (diffs or {}).items():
            c = int(c)
            if mat.rows != self.dims.get(c + 1, 0) or mat.cols != self.dims.get(c, 0):
                raise ValueError(f"differential at position {c} has wrong shape")
            if not mat.is_zero():
                ds[c] = mat
        self.diffs = ds
        if validate:
            self.validate()

    def validate(self) -> None:
        for c in self.diffs:
            nxt = self.diffs.get(c + 1)
            if nxt is not None and not (nxt * self.diffs[c]).is_zero():
                raise AssertionError(f"differential does not square to zero at position {c}")

    def positions(self) -> tuple[int, ...]:
        return tuple(sorted(self.dims))

    def dim_at(self, c: int) -> int:
        return self.dims.get(c, 0)

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def diff(self, c: int) -> QMatrix:
        mat = self.diffs.get(c)
        if mat is None:
            return QMatrix.zero(self.dim_at(c + 1), self.dim_at(c))
        return mat

    def __eq__(self, other) -> bool:
        if not isinstance(other, Complex):
            return NotImplemented
        return self.dims == other.dims and self.diffs == other.diffs

    def __hash__(self):
        raise TypeError("Complex is unhashable")

    def shift(self, q: int) -> "Complex":
        """The shift [q]: component at c moves to c - q, differential signed."""
        sign = -1 if q % 2 else 1
        return Complex(
            {c - q: m for c, m in self.dims.items()},
            {c - q: mat.scale(sign) for c, mat in self.diffs.items()},
            validate=False,
        )

    def direct_sum(self, other: "Complex") -> "Complex":
        dims = dict(self.dims)
        for c, m in other.dims.items():
            dims[c] = dims.get(c, 0) + m
        placed = {c: [(0, 0, mat)] for c, mat in self.diffs.items()}
        for c, mat in other.diffs.items():
            placed.setdefault(c, []).append((self.dim_at(c + 1), self.dim_at(c), mat))
        diffs = {c: place_blocks(dims[c + 1], dims[c], blocks) for c, blocks in placed.items()}
        return Complex(dims, diffs, validate=False)

    def cohomology_dims(self) -> dict[int, int]:
        ranks = {c: rank(mat) for c, mat in self.diffs.items()}
        out = {}
        for c, m in self.dims.items():
            h = m - ranks.get(c, 0) - ranks.get(c - 1, 0)
            if h < 0:
                raise AssertionError("negative cohomology dimension; complex is corrupt")
            if h:
                out[c] = h
        return out

    def minimize(self) -> "Complex":
        """The homotopy-equivalent complex with zero differential."""
        return Complex(self.cohomology_dims(), {}, validate=False)


class GradedComplex:
    """A complex of internally graded spaces, stored layer by layer."""

    __slots__ = ("layers",)

    def __init__(self, layers):
        self.layers = {int(g): layer for g, layer in layers.items() if layer.total_dim()}

    def internal_degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self.layers))

    def layer(self, g: int) -> Complex:
        return self.layers.get(g, Complex({}))

    def components(self) -> dict[tuple[int, int], int]:
        """Dimensions keyed by (position, internal degree)."""
        out = {}
        for g, layer in sorted(self.layers.items()):
            for c, m in sorted(layer.dims.items()):
                out[(c, g)] = m
        return out

    def total_dim(self) -> int:
        return sum(layer.total_dim() for layer in self.layers.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedComplex):
            return NotImplemented
        return self.layers == other.layers

    def __hash__(self):
        raise TypeError("GradedComplex is unhashable")

    def shift(self, q: int) -> "GradedComplex":
        return GradedComplex({g: layer.shift(q) for g, layer in self.layers.items()})

    def twist(self, p: int) -> "GradedComplex":
        """The p-th twist: internal degrees drop by p (the unit twisted once
        sits in internal degree -1)."""
        return GradedComplex({g - p: layer for g, layer in self.layers.items()})

    def direct_sum(self, other: "GradedComplex") -> "GradedComplex":
        layers = dict(self.layers)
        for g, layer in other.layers.items():
            layers[g] = layers[g].direct_sum(layer) if g in layers else layer
        return GradedComplex(layers)

    def minimize(self) -> "GradedComplex":
        return GradedComplex({g: layer.minimize() for g, layer in self.layers.items()})


def simple(c: int, g: int) -> GradedComplex:
    """The one-dimensional graded object at position c, internal degree g."""
    return GradedComplex({g: Complex({c: 1})})


def weight_of(c: int, g: int) -> int:
    """Weight of the simple at (c, g)."""
    return c - 2 * g


def iota_collapse(x: GradedComplex) -> Complex:
    """Collapse the internal grading: layer g is shifted by [2g] and summed.

    Sends the simple at (-2, -1) (the twisted-and-shifted unit) to the unit
    in position 0; functorial for direct sums and shifts.
    """
    out = Complex({})
    for g in x.internal_degrees():
        out = out.direct_sum(x.layers[g].shift(2 * g))
    return out


# -- truncations -------------------------------------------------------------


def _layers(x) -> dict[int, Complex]:
    """The layers of x by internal degree; an ungraded complex is the single
    layer g = 0, where weight_of(c, 0) == c."""
    return x.layers if isinstance(x, GradedComplex) else {0: x}


def _truncate(x, keep):
    """Minimise each layer and keep the simples at (c, g) with keep(c, g)."""
    parts = {}
    for g, layer in _layers(x).items():
        dims = {c: d for c, d in layer.minimize().dims.items() if keep(c, g)}
        parts[g] = Complex(dims, {}, validate=False)
    return GradedComplex(parts) if isinstance(x, GradedComplex) else parts[0]


def t_truncate_leq(x, m: int):
    """Keep cohomology in positions <= m (computed after minimising)."""
    return _truncate(x, lambda c, g: c <= m)


def t_truncate_geq(x, m: int):
    return _truncate(x, lambda c, g: c >= m)


def w_truncate_leq(x, m: int):
    """Keep simples of weight <= m; on ungraded complexes the weight of a
    simple in position c is c, so this agrees with the t-truncation."""
    return _truncate(x, lambda c, g: weight_of(c, g) <= m)


def w_truncate_geq(x, m: int):
    return _truncate(x, lambda c, g: weight_of(c, g) >= m)


# -- homotopy Homs -----------------------------------------------------------


def _hom_differential(x: Complex, y: Complex, k: int) -> SparseSystem:
    """The map Hom^k -> Hom^{k+1}, f -> d_Y f - (-1)^k f d_X, as the
    sparse system of its nonzero equations (same kernel and rank as the map).

    Its unknowns are the entries of the blocks f_c : X_c -> Y_{c+k}, in the
    order of the positions of x, each block row by row.
    """
    offsets = {}
    count = 0
    for c in x.positions():
        offsets[c] = count
        count += y.dim_at(c + k) * x.dim_at(c)
    sign = -1 if k % 2 else 1
    return hom_equations(
        count,
        ((y.diff(c + k), offsets[c], x.diff(c), offsets.get(c + 1), sign) for c in x.positions()),
    )


def hom_homotopy(x, y, k: int = 0) -> int:
    """Dimension of chain maps x -> y[k] modulo homotopy.  Graded
    complexes are summed over the internal degrees that both have: a layer
    that either lacks has no Hom."""
    if isinstance(x, GradedComplex) and isinstance(y, GradedComplex):
        return sum(
            hom_homotopy(x.layer(g), y.layer(g), k)
            for g in set(x.internal_degrees()) & set(y.internal_degrees())
        )
    if isinstance(x, GradedComplex) or isinstance(y, GradedComplex):
        raise TypeError("cannot mix graded and ungraded complexes in Hom")
    d_k = _hom_differential(x, y, k)
    d_prev = _hom_differential(x, y, k - 1)
    return d_k.cols - rank(d_k) - rank(d_prev)


# -- axiom checkers ----------------------------------------------------------


def check_t_axioms(sample) -> dict:
    """Verify the truncation axioms on a finite sample of complexes.

    Checks nesting of the aisles, Hom-vanishing from the lower to the upper
    part, and that every object splits as lower part plus upper part.
    """
    return _check_axioms(sample, t_truncate_leq, t_truncate_geq)


def check_w_axioms(sample) -> dict:
    """Same battery for the weight-style truncations (orthogonality runs
    from the upper part to the strictly lower part)."""
    return _check_axioms(sample, w_truncate_leq, w_truncate_geq, weight_style=True)


def _check_axioms(sample, trunc_leq, trunc_geq, weight_style: bool = False) -> dict:
    sample = list(sample)
    nesting = True
    orthogonality = True
    decomposition = True
    for x in sample:
        lower0 = trunc_leq(x, 0)
        lower1 = trunc_leq(x, 1)
        if _dims(lower0) | _dims(lower1) != _dims(lower1):
            nesting = False
        upper = trunc_geq(x, 1)
        mx = x.minimize()
        if _dims(lower0, upper) != _dims(mx):
            decomposition = False
    for x in sample:
        for y in sample:
            if weight_style:
                a = trunc_geq(x, 0)
                b = trunc_leq(y, -1)
            else:
                a = trunc_leq(x, 0)
                b = trunc_geq(y, 1)
            if hom_homotopy(a, b, 0) != 0:
                orthogonality = False
    return {
        "cases": len(sample),
        "pairs": len(sample) ** 2,
        "nesting": nesting,
        "orthogonality": orthogonality,
        "decomposition": decomposition,
        "all_pass": nesting and orthogonality and decomposition,
    }


def _dims(*xs) -> set:
    """The multiset of simples of the sum of xs, as (c, g, multiplicity)."""
    merged: dict[tuple[int, int], int] = {}
    for x in xs:
        for g, layer in _layers(x).items():
            for c, m in layer.dims.items():
                merged[(c, g)] = merged.get((c, g), 0) + m
    return {(c, g, m) for (c, g), m in merged.items()}


# -- random generators -------------------------------------------------------


def _unimodular_factors(rng: random.Random, n: int) -> tuple[QMatrix, QMatrix]:
    """Unit lower and upper triangular factors of a unimodular base change,
    their entries off the diagonal drawn row by row, lower first, and kept
    as rows of their nonzeros."""
    lower = [{**{j: x for j in range(i) if (x := rng.randint(-1, 1))}, i: 1} for i in range(n)]
    upper = [{i: 1, **{j: x for j in range(i + 1, n) if (x := rng.randint(-1, 1))}} for i in range(n)]
    return QMatrix(n, n, lower), QMatrix(n, n, upper)


def _inverse_of_product(lower: QMatrix, upper: QMatrix) -> QMatrix:
    """(lower * upper)^-1 as upper^-1 * lower^-1, each unit triangular m
    inverted by exact substitution: row i of m^-1 is e_i minus m[i][k] times
    row k of m^-1 over k != i, a row found already when the rows of upper are
    taken bottom up and those of lower top down."""
    n = lower.rows
    inverses = []
    for m, order in ((upper, range(n - 1, -1, -1)), (lower, range(n))):
        inv: dict[int, dict] = {}
        for i in order:
            inv[i] = combine([(1, {i: 1})] + [(-x, inv[k]) for k, x in m.nonzeros[i].items() if k != i])
        inverses.append(QMatrix(n, n, [inv[i] for i in range(n)]))
    return inverses[0] * inverses[1]


def random_minimized_complex(rng: random.Random, max_pos: int = 3, max_dim: int = 2) -> Complex:
    dims = {}
    for c in range(-max_pos, max_pos + 1):
        d = rng.randint(0, max_dim)
        if d and rng.random() < 0.6:
            dims[c] = d
    return Complex(dims, {}, validate=False)


def random_complex(rng: random.Random, max_pos: int = 3, max_dim: int = 2) -> Complex:
    """A random complex with honest differentials and known homotopy type:
    simples plus contractible two-term pieces, conjugated by unimodular
    base changes."""
    dims = dict(random_minimized_complex(rng, max_pos, max_dim).dims)
    ones: dict[int, set[tuple[int, int]]] = {}
    for _ in range(rng.randint(0, 3)):
        c = rng.randint(-max_pos, max_pos - 1)
        # the piece is appended after what already sits at c and c + 1
        ones.setdefault(c, set()).add((dims.get(c + 1, 0), dims.get(c, 0)))
        dims[c] = dims.get(c, 0) + 1
        dims[c + 1] = dims.get(c + 1, 0) + 1
    # every factor is drawn, but only the changes next to a piece are formed:
    # the others draw their n(n - 1) entries off the diagonal and drop them
    used = {e for c in ones for e in (c, c + 1)}
    factors = {}
    for c in sorted(dims):
        if c in used:
            factors[c] = _unimodular_factors(rng, dims[c])
        else:
            for _ in range(dims[c] * (dims[c] - 1)):
                rng.randint(-1, 1)
    diffs = {}
    for c, entries in sorted(ones.items()):
        rows, cols = dims[c + 1], dims[c]
        cells = [{s: 1 for s in range(cols) if (r, s) in entries} for r in range(rows)]
        lower, upper = factors[c + 1]
        diffs[c] = lower * upper * QMatrix(rows, cols, cells) * _inverse_of_product(*factors[c])
    return Complex(dims, diffs)


def random_graded_complex(rng: random.Random, max_g: int = 2, **kw) -> GradedComplex:
    layers = {}
    for g in range(-max_g, max_g + 1):
        if rng.random() < 0.5:
            layer = random_complex(rng, **kw)
            if layer.total_dim():
                layers[g] = layer
    return GradedComplex(layers)
