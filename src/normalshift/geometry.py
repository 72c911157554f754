"""Riemannian metrics, connection coefficients, deck translations, and
parametric hypersurfaces with tangent/normal frames.

Charts are open subsets of R^n with coordinates x1..xn.  Manifolds with
non-trivial topology are modelled through their universal cover: the chart
is all of R^n and the fundamental group acts by metric-preserving
translations.  All types are immutable after construction and all
operations are pure.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DeckInvarianceError,
    FrameError,
    MetricError,
    PathError,
    first_bad,
    point_str,
)
from .expr import FieldExpr, bind, eval_tuple

__all__ = [
    "MetricSpec", "CoveringManifold", "Hypersurface",
    "metric_at", "inverse_metric_at", "christoffel",
    "deck_apply", "parse_word",
    "surface_frame", "surface_grid", "grid_axes",
]

GRAM_TOL = 1e-10   # structural: normalized Gram determinant of a frame
DECK_TOL = 1e-12   # structural: relative deviation of deck-invariant data


@functools.cache
def coordinate_names(n):
    return tuple(f"x{i + 1}" for i in range(n))


@functools.cache
def state_names(n):  # the variables of force data
    return coordinate_names(n) + ("v",)


def parameter_names(n):
    return tuple(f"u{i + 1}" for i in range(n))


# --- metric ------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MetricSpec:
    """Metric on the chart: euclidean, conformal e^{2*lam}*delta, or an
    explicit symmetric matrix of expressions."""

    dimension: int
    kind: str = "euclidean"  # euclidean | conformal | explicit
    conformal: FieldExpr | None = None
    entries: tuple | None = None  # tuple of tuples of FieldExpr

    def __post_init__(self):
        n = self.dimension
        if n < 2:
            raise MetricError(f"dimension must be >= 2, got {n}")
        allowed = coordinate_names(n)
        if self.kind == "euclidean":
            pass
        elif self.kind == "conformal":
            if self.conformal is None:
                raise MetricError("conformal metric needs a factor expression")
            self.conformal.require_vars(allowed, "conformal factor",
                                        MetricError)
        elif self.kind == "explicit":
            if self.entries is None or len(self.entries) != n or any(
                    len(row) != n for row in self.entries):
                raise MetricError(f"explicit metric must be {n}x{n}")
            for i, j in np.ndindex(n, n):
                what = f"explicit metric entry ({i + 1},{j + 1})"
                if self.entries[i][j].ast != self.entries[j][i].ast:
                    raise MetricError(
                        f"{what} is not symmetric with ({j + 1},{i + 1})")
                self.entries[i][j].require_vars(allowed, what, MetricError)
        else:
            raise MetricError(f"unknown metric kind '{self.kind}'")

    @property
    def is_euclidean(self):
        return self.kind == "euclidean"

    def _upper(self):
        """Index arrays of the upper triangle and its explicit entries."""
        iu = np.triu_indices(self.dimension)
        return iu, tuple(self.entries[i][j] for i, j in zip(*iu))


def _check_positive_definite(g, pts):
    # leading principal minors > 0 at every evaluated point
    n = g.shape[-1]
    for k in range(1, n + 1):
        minors = np.linalg.det(g[..., :k, :k])
        if np.any(minors <= 0.0):
            _, (where,) = first_bad(minors <= 0.0, pts)
            raise MetricError(
                f"metric not positive-definite: leading minor {k} is "
                f"non-positive at x={point_str(where)}")


def _metric_jet(m: MetricSpec, x, order):
    """g_ij(x) and, for order 1, dg[..., i, j, l] = d g_ij / d x^l from
    exact jets (None for order 0); batched over leading axes of x."""
    x = np.asarray(x, dtype=float)
    n = m.dimension
    names = coordinate_names(n)
    shape = x.shape[:-1]
    eye = np.eye(n)
    if m.is_euclidean:
        return (np.broadcast_to(eye, shape + (n, n)).copy(),
                np.zeros(shape + (n, n, n)) if order else None)
    env = bind(names, x)
    if m.kind == "conformal":
        lam, dlam, _ = eval_tuple((m.conformal,), env, names, order)
        factor = np.exp(2.0 * lam[..., 0])
        # e^{2*lam} > 0, so positive-definiteness is automatic
        g = factor[..., None, None] * eye
        return g, (None if dlam is None
                   else 2.0 * g[..., None] * dlam[..., None, None, :, 0])
    (iu, ju), entries = m._upper()
    vals, grads, _ = eval_tuple(entries, env, names, order)
    g = np.empty(shape + (n, n))
    g[..., iu, ju] = vals
    g[..., ju, iu] = vals
    _check_positive_definite(g, x)
    if not order:
        return g, None
    grads = np.swapaxes(grads, -1, -2)
    dg = np.empty(shape + (n, n, n))
    dg[..., iu, ju, :] = grads
    dg[..., ju, iu, :] = grads
    return g, dg


def metric_at(m: MetricSpec, x) -> np.ndarray:
    """Metric matrix g_ij(x); batched over leading axes of x."""
    return _metric_jet(m, x, 0)[0]


def inverse_metric_at(m: MetricSpec, x) -> np.ndarray:
    g = metric_at(m, x)
    return g if m.is_euclidean else np.linalg.inv(g)


def christoffel(m: MetricSpec, x) -> np.ndarray:
    """Connection coefficients Gamma[k,i,j] of the Levi-Civita connection,
    from exact derivatives of the metric entries."""
    x = np.asarray(x, dtype=float)
    n = m.dimension
    if m.is_euclidean:
        return np.zeros(x.shape[:-1] + (n, n, n))
    g, dg = _metric_jet(m, x, 1)          # dg[..., i, j, l] = d_l g_ij
    ginv = np.linalg.inv(g)
    d_i_gjl = np.moveaxis(dg, -1, -3)     # [..., i, j, l] = d_i g_jl
    d_j_gil = np.swapaxes(d_i_gjl, -3, -2)
    bracket = 0.5 * (d_i_gjl + d_j_gil - dg)
    return np.einsum("...kl,...ijl->...kij", ginv, bracket)


# --- covering manifolds and deck translations ---------------------------------

_WORD_TOKEN = re.compile(r"g(\d+)(?:\^(-?\d+))?$")


def parse_word(word: str, n_generators: int):
    """Parse a word like 'g1 g2^-1' over the deck generators."""
    letters = [w for w in re.split(r"[\s*]+", word.strip()) if w]
    out = []
    for letter in letters:
        match = _WORD_TOKEN.match(letter)
        if not match:
            raise PathError(f"cannot parse deck word letter '{letter}'")
        idx = int(match.group(1)) - 1
        if not 0 <= idx < n_generators:
            raise PathError(
                f"generator g{idx + 1} out of range (have {n_generators})")
        out.append((idx, int(match.group(2) or 1)))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class CoveringManifold:
    """Universal-cover model: one global chart plus a translation group."""

    metric: MetricSpec
    deck_generators: tuple = ()  # tuple of length-n translation vectors

    def __post_init__(self):
        n = self.metric.dimension
        gens = tuple(np.asarray(t, dtype=float) for t in self.deck_generators)
        object.__setattr__(self, "deck_generators", gens)
        for t in gens:
            if t.shape != (n,):
                raise DeckInvarianceError(
                    f"deck generator {t} does not have dimension {n}")
        if gens and not self.metric.is_euclidean:
            # sampled only to compare it with its translates; where the
            # metric is used, `_metric_jet` checks it
            pts = _sample_grid(n)
            g0 = metric_at(self.metric, pts)
            for gi, t in enumerate(gens):
                err = relative_deviation(metric_at(self.metric, pts + t), g0)
                if err > DECK_TOL:
                    raise DeckInvarianceError(
                        f"generator g{gi + 1} does not preserve the metric "
                        f"(max relative deviation {err:.3e})")

    def word(self, word: str):
        return parse_word(word, len(self.deck_generators))


def _sample_grid(n):
    """The 3^n nodes of the box [-1, 1]^n."""
    mesh = np.meshgrid(*[np.linspace(-1.0, 1.0, 3)] * n, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def deck_apply(manifold: CoveringManifold, word, x) -> np.ndarray:
    """Apply a word over the deck generators (affine translations) to x."""
    if isinstance(word, str):
        word = manifold.word(word)
    x = np.asarray(x, dtype=float)
    shift = np.zeros(manifold.metric.dimension)
    for idx, power in word:
        shift = shift + power * manifold.deck_generators[idx]
    return x + shift


# --- hypersurfaces -------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Hypersurface:
    """Parametric hypersurface u -> x(u) with a node grid.

    Closed parameter axes are periodic: the node set excludes the duplicate
    endpoint and finite differences wrap around.
    """

    dimension: int  # ambient n
    parametrization: tuple  # n FieldExprs of u1..u_{n-1}
    ranges: tuple  # (lo, hi) per parameter axis
    grid: tuple  # node count per axis
    base_point: tuple  # parameter coordinates of the base node
    closed: tuple  # per-axis periodicity flags
    orientation: int = 1

    def __post_init__(self):
        n = self.dimension
        k = n - 1
        if len(self.parametrization) != n:
            raise FrameError(f"need {n} embedding components, got "
                             f"{len(self.parametrization)}")
        if not (len(self.ranges) == len(self.grid) == len(self.closed)
                == len(self.base_point) == k):
            raise FrameError(f"surface of dimension {k} needs {k} parameter "
                             "axes in ranges/grid/closed/base_point")
        for i, comp in enumerate(self.parametrization):
            comp.require_vars(parameter_names(k),
                              f"embedding component x{i + 1}", FrameError)
        for counts in self.grid:
            if counts < 2:
                raise FrameError("need at least 2 nodes per parameter axis")
        for i, (lo, hi) in enumerate(self.ranges):
            if not 0.0 < abs(hi - lo) < np.inf:
                raise FrameError(f"axis u{i + 1} needs a nonzero finite width")
        if (type(self.orientation) is not int
                or self.orientation not in (-1, 1)):
            raise FrameError("orientation must be +1 or -1")

    @property
    def n_params(self):
        return self.dimension - 1


def grid_axes(s: Hypersurface):
    """Node coordinates per parameter axis."""
    axes = []
    for (lo, hi), m, wrap in zip(s.ranges, s.grid, s.closed):
        if wrap:
            axes.append(lo + (hi - lo) * np.arange(m) / m)
        else:
            axes.append(np.linspace(lo, hi, m))
    return tuple(axes)


def grid_spacings(s: Hypersurface):
    out = []
    for (lo, hi), m, wrap in zip(s.ranges, s.grid, s.closed):
        out.append((hi - lo) / m if wrap else (hi - lo) / (m - 1))
    return tuple(out)


def base_node_index(s: Hypersurface):
    """Grid index of the base point (must sit on a node)."""
    idx = []
    for axis, coord in zip(grid_axes(s), s.base_point):
        j = int(np.argmin(np.abs(axis - coord)))
        if abs(axis[j] - coord) > 1e-9 * max(1.0, abs(coord)):
            raise FrameError(
                f"base point coordinate {coord} is not a grid node "
                f"(nearest is {axis[j]})")
        idx.append(j)
    return tuple(idx)


def embed_with_tangents(s: Hypersurface, u):
    """x(u) and the coordinate tangents dx/du_k, exactly differentiated.

    u: (..., n-1) parameter points.  Returns x (..., n) and
    tau (..., n-1, n) with tau[k] the tangent along axis k.
    """
    names = parameter_names(s.n_params)
    return eval_tuple(s.parametrization, bind(names, u), names, 1)[:2]


def _unit_normal(taus, g, orientation):
    """g-unit normal orthogonal to the rows of taus, oriented so that
    det[n, tau_1 .. tau_{n-1}] has the sign of `orientation`.

    With orientation +1 this is the outward normal for the standard
    counterclockwise circle (cos u, sin u).  The determinant never vanishes
    while the tangents are independent, so its sign is constant over a
    connected parameter domain and the field is automatically continuous.
    """
    rows = taus @ g  # (..., n-1, n): rows of the orthogonality system
    _, _, vt = np.linalg.svd(rows)
    z = vt[..., -1, :]
    norm2 = np.einsum("...i,...ij,...j->...", z, g, z)
    normal = z / np.sqrt(norm2)[..., None]
    frame = np.concatenate([normal[..., None, :], taus], axis=-2)
    sign = np.sign(np.linalg.det(frame)) * orientation
    return normal * sign[..., None]


def relative_deviation(a, b, *context):
    """max |a - b| over the largest magnitude in a, b and the context
    arrays (the data a and b were computed from); 0 when a equals b.  A
    structural comparison made with it does not depend on the scale of
    the data."""
    diff = float(np.max(np.abs(np.subtract(a, b))))
    if not diff:
        return 0.0
    return diff / max(float(np.max(np.abs(c))) for c in (a, b, *context))


def normalized_gram_det(taus, g):
    """det(gram) / prod_k g(tau_k, tau_k) for tangent rows taus (..., k, n)
    under the metric g (..., n, n): in [0, 1] by Hadamard's inequality (a
    squared sine for two tangents), independent of the tangents' lengths,
    and NaN where a tangent vanishes."""
    gram = np.einsum("...ki,...ij,...lj->...kl", taus, g, taus)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.linalg.det(gram) / np.prod(
            np.diagonal(gram, axis1=-2, axis2=-1), axis=-1)


def surface_frame(s: Hypersurface, m: MetricSpec, u):
    """(x, tangents, unit normal) at a parameter point.

    The normal satisfies g(n, tau_k) = 0 and g(n, n) = 1; its sign makes
    det[tau_1..tau_{n-1}, n] carry the surface orientation, which is the
    unique continuous choice over a connected parameter domain.
    """
    u = np.asarray(u, dtype=float)
    x, taus = embed_with_tangents(s, u)
    g = metric_at(m, x)
    det = normalized_gram_det(taus, g)
    bad = ~(det > GRAM_TOL)
    if np.any(bad):
        node, (where,) = first_bad(bad, u)
        raise FrameError(
            f"degenerate tangent frame (normalized Gram determinant "
            f"<= {GRAM_TOL}) at u={point_str(where)}"
            + (f", node {node}" if node else ""))
    normal = _unit_normal(taus, g, s.orientation)
    return x, taus, normal


@dataclass(frozen=True, eq=False)
class SurfaceGrid:
    """Frames evaluated over the whole node grid."""

    points: np.ndarray    # grid + (n,)
    tangents: np.ndarray  # grid + (n-1, n)
    normals: np.ndarray   # grid + (n,)


def surface_grid(s: Hypersurface, m: MetricSpec) -> SurfaceGrid:
    mesh = np.meshgrid(*grid_axes(s), indexing="ij")
    u = np.stack(mesh, axis=-1)
    x, taus, normals = surface_frame(s, m, u)
    # orientation continuity: no flips between grid neighbours
    for ax in range(s.n_params):
        rolled = np.roll(normals, -1, axis=ax)
        dots = np.sum(normals * rolled, axis=-1)
        if not s.closed[ax]:
            sl = [slice(None)] * dots.ndim
            sl[ax] = slice(0, -1)
            dots = dots[tuple(sl)]
        if np.any(dots <= 0.0):
            raise FrameError(
                f"normal field flips orientation along axis {ax + 1}")
    return SurfaceGrid(x, taus, normals)
