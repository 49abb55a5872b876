"""Scalar fields on a group and their horizontal derivatives.

Two derivative engines are available.  "analytic" evaluates fields on small
forward-mode jets (value, gradient, symmetric Hessian), so polynomial and
smooth catalog fields get machine-exact coordinate derivatives; explicit
gradient/hessian callbacks are honoured when a field carries them.
"finite_difference" uses central differences along the frame directions and
exists as an independent cross-check of the analytic path.
"""

import json
import math
import numbers
import operator
from itertools import repeat

import numpy as np

from .groups import frame_at, frame_jacobian

EPS = np.finfo(float).eps
CBRT_EPS = EPS ** (1.0 / 3.0)      # ~6.1e-6, first-derivative step scale
QUART_EPS = EPS ** 0.25            # ~1.2e-4, second-derivative step scale

__all__ = [
    "Jet", "seed_jets", "jet_sqrt", "jet_exp", "jet_log",
    "ScalarField", "DerivativeEngine", "ANALYTIC", "FD",
    "x_derivative", "horizontal_jet", "build_field", "bump1", "bump2",
    "poly_field",
]


# ---------------------------------------------------------------------------
# forward-mode jets


class Partials(tuple):
    """The partial derivatives of a jet, one entry per variable (one row of
    entries per variable for the Hessian).

    Each entry is an array or a number with its own broadcast shape, so a
    partial that depends on one variable stays one row or column wide; the
    float 0.0 marks a partial that is zero everywhere.  p[k, l] reads
    p[k][l], and np.asarray(p) stacks the entries broadcast to one shape.
    """

    __slots__ = ()

    def __getitem__(self, key):
        if isinstance(key, tuple):
            return self[key[0]][key[1]]
        return tuple.__getitem__(self, key)

    def __array__(self, dtype=None, copy=None):
        nested = isinstance(self[0], Partials)
        leaves = [e for row in self for e in row] if nested else list(self)
        shape = ()  # at one point every entry is a number
        if any(isinstance(e, np.ndarray) for e in leaves):
            shape = np.broadcast_shapes(*map(np.shape, leaves))
            leaves = [np.broadcast_to(e, shape) for e in leaves]
        return np.array(leaves, dtype=dtype).reshape(
            (len(self),) * (1 + nested) + shape)


def _times(a, b):
    """a * b, where a float 0.0 factor gives the structural zero 0.0 and a
    float 1.0 factor passes the other one through."""
    if type(a) is float:
        if a == 0.0:
            return 0.0
        if a == 1.0:
            return b
    if type(b) is float:
        if b == 0.0:
            return 0.0
        if b == 1.0:
            return a
    return a * b


def _plus(a, b):
    """a + b, where a float 0.0 term passes the other one through."""
    if type(a) is float and a == 0.0:
        return b
    if type(b) is float and b == 0.0:
        return a
    return a + b


def _minus(a, b):
    """a - b, with the structural zeros of _plus."""
    if type(b) is float and b == 0.0:
        return a
    if type(a) is float and a == 0.0:
        return -b
    return a - b


def _each(fn, g, h, *args):
    """fn(entry, *args) of every entry of the partials g and h (h None: a
    first-order jet's), as the partials (g, h) of a new jet."""
    args = [repeat(a) for a in args]
    return (Partials(map(fn, g, *args)),
            None if h is None else Partials(Partials(map(fn, row, *args))
                                            for row in h))


def _zeros(n, order=2):
    """Partials of a constant: n structural zeros, and the n x n Hessian
    zeros unless order is 1."""
    g = Partials((0.0,) * n)
    return g, (None if order < 2 else Partials((g,) * n))


class Jet:
    """Second-order truncated Taylor scalar: value, gradient, Hessian.

    v is a float or a numpy array; g holds the n first partials and h the
    n x n second partials as Partials, each entry in its own broadcast
    shape and the float 0.0 where a partial is zero everywhere.  h=None
    marks a first-order jet.  A plain number in an operation is a constant
    with no partials, so it never downgrades the order of an expression.
    """

    __slots__ = ("v", "g", "h")

    def __init__(self, v, g, h=None):
        self.v = v
        self.g = g
        self.h = h

    # -- ring operations ----------------------------------------------------

    def __neg__(self):
        return Jet(-self.v, *_each(operator.neg, self.g, self.h))

    def _sum(self, other, op, entry_op):
        """self op other for op + or -, entry_op _plus or _minus."""
        if not isinstance(other, Jet):
            return Jet(op(self.v, other), self.g, self.h)
        h = None
        if self.h is not None and other.h is not None:
            h = Partials(Partials(map(entry_op, a, b))
                         for a, b in zip(self.h, other.h))
        return Jet(op(self.v, other.v), Partials(map(entry_op, self.g,
                                                     other.g)), h)

    def __add__(self, other):
        return self._sum(other, operator.add, _plus)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, operator.sub, _minus)

    def __rsub__(self, other):
        return Jet(other - self.v, *_each(operator.neg, self.g, self.h))

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.v * other, *_each(_times, self.g, self.h, other))
        sv, ov, sg, og = self.v, other.v, self.g, other.g
        g = Partials([_plus(_times(a, ov), _times(b, sv))
                      for a, b in zip(sg, og)])
        h = None
        if self.h is not None and other.h is not None:
            h = Partials([Partials([
                _plus(_plus(_plus(_times(sa, ov), _times(oa, sv)),
                            _times(a, ob)), _times(b, sb))
                for sa, oa, ob, sb in zip(srow, orow, og, sg)])
                for srow, orow, a, b in zip(self.h, other.h, sg, og)])
        return Jet(sv * ov, g, h)

    __rmul__ = __mul__

    def _chain(self, f0, f1, f2):
        """Compose with a scalar function given f(v), f'(v) and a callable
        returning f''(v), called only when the Hessian is kept."""
        g = Partials([_times(f1, a) for a in self.g])
        h = None
        if self.h is not None:
            c = f2()
            h = Partials([Partials([
                _plus(_times(f1, e), _times(c, _times(a, b)))
                for e, b in zip(row, self.g)])
                for row, a in zip(self.h, self.g)])
        return Jet(f0, g, h)

    def reciprocal(self):
        iv = 1.0 / self.v
        return self._chain(iv, -iv * iv, lambda: 2.0 * iv * iv * iv)

    def __truediv__(self, other):
        return self * (other.reciprocal() if isinstance(other, Jet)
                       else 1.0 / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, k):
        if isinstance(k, Jet):
            raise TypeError("jet exponents are not supported")
        if k == 0:
            return Jet(np.ones_like(self.v) * 1.0, *_zeros(len(self.g)))
        if k == 1:
            return self
        if k == 2:
            return self * self
        v = self.v
        return self._chain(v ** k, k * v ** (k - 1),
                           lambda: k * (k - 1) * v ** (k - 2))

    def sqrt(self):
        r = np.sqrt(self.v)
        return self._chain(r, 0.5 / r, lambda: -0.25 / (r * self.v))

    def exp(self):
        e = np.exp(self.v)
        return self._chain(e, e, lambda: e)

    def log(self):
        return self._chain(np.log(self.v), 1.0 / self.v,
                           lambda: -1.0 / self.v ** 2)

    def sin(self):
        s, c = np.sin(self.v), np.cos(self.v)
        return self._chain(s, c, lambda: -s)

    def cos(self):
        s, c = np.sin(self.v), np.cos(self.v)
        return self._chain(c, -s, lambda: -c)


def _dispatch(name):
    def fn(x):
        if isinstance(x, Jet):
            return getattr(x, name)()
        return getattr(np, name)(x)
    fn.__name__ = "jet_" + name
    return fn


jet_sqrt = _dispatch("sqrt")
jet_exp = _dispatch("exp")
jet_log = _dispatch("log")


def seed_jets(coords, order=2):
    """Independent-variable jets for a coordinate tuple (arrays allowed).

    The seed values broadcast against each other with the same number of
    axes, but an axis along which a coordinate repeats (stride 0, as in the
    views of np.broadcast_arrays) keeps length 1: seeds of u[:, None] and
    v[None, :] grids are (rows, 1) and (1, columns).  Their partials are
    the floats 1.0 and 0.0, so an expression in one coordinate alone, and
    each of its partials, is computed once per distinct value.
    """
    coords = np.broadcast_arrays(*[np.asarray(c, dtype=float) for c in coords])
    n = len(coords)
    h = _zeros(n, order)[1]
    out = []
    for i, c in enumerate(coords):
        # + 0.0 copies the distinct values (and turns -0.0 into 0.0)
        c = c[tuple(slice(0, 1) if st == 0 else slice(None)
                    for st in c.strides)] + 0.0
        g = Partials((0.0,) * i + (1.0,) + (0.0,) * (n - 1 - i))
        out.append(Jet(c, g, h))
    return out


def jet_partial(j, i):
    """First-order jet of the i-th partial derivative of a second-order jet."""
    if j.h is None:
        raise ValueError("need a second-order jet to extract derivative jets")
    return Jet(j.g[i], j.h[i])


# ---------------------------------------------------------------------------
# smooth bumps (canonical cutoff: exp(-1/(1-rho^2)) inside rho < 1)


def _bump_of_square(s):
    """exp(-1/(1-s)) for s < 1, glued to 0; s may be a Jet."""
    if not isinstance(s, Jet):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        m = s < 1.0
        out[m] = np.exp(-1.0 / (1.0 - s[m]))
        return out if out.ndim else float(out)
    v = np.asarray(s.v, dtype=float)
    m = v < 1.0
    safe = np.where(m, 1.0 - v, 1.0)
    f0 = np.where(m, np.exp(-1.0 / safe), 0.0)
    return s._chain(f0, np.where(m, -f0 / safe ** 2, 0.0),
                    lambda: np.where(m, f0 / safe ** 4 - 2.0 * f0 / safe ** 3,
                                     0.0))


def bump1(center=0.0, radius=1.0):
    """One-variable C-infinity bump supported on |x-center| < radius.

    The callable records fn.center and fn.radius, and declares fn.support =
    (center - |radius|, center + |radius|), an interval outside which it
    and its jet derivatives are exactly 0 (up to the sign of a zero), as
    bump2 does in 2-D.  Every operation is elementwise, so center and
    radius may be arrays: bump1 of (m x 1) centres and radii, called on a
    (1 x n) jet, evaluates m bumps at once, row i bit for bit the jet of
    bump1(center[i, 0], radius[i, 0]) (stability_scan evaluates the
    distinct factors of its product bumps so, one call per axis).
    """
    def fn(x):
        z = (x - center) * (1.0 / radius)
        return _bump_of_square(z * z)
    fn.center, fn.radius = center, radius
    fn.support = (center - abs(radius), center + abs(radius))
    return fn


def bump2(cu=0.0, cv=0.0, ru=1.0, rv=1.0):
    """Two-variable bump supported on the open ellipse of radii (ru, rv).

    The callable declares fn.support = (cu - |ru|, cu + |ru|, cv - |rv|,
    cv + |rv|), a box (u0, u1, v0, v1) outside which it and its jet
    derivatives are exactly 0 (up to the sign of a zero): the quadratures
    of integrands that vanish with it evaluate only that box's nodes.
    """
    def fn(u, v):
        a = (u - cu) * (1.0 / ru)
        b = (v - cv) * (1.0 / rv)
        return _bump_of_square(a * a + b * b)
    fn.support = (cu - abs(ru), cu + abs(ru), cv - abs(rv), cv + abs(rv))
    return fn


def _zero(u, v):
    """The zero function of (u, v); its support box holds no point."""
    return 0.0 * u + 0.0 * v


_zero.support = (math.inf, -math.inf, math.inf, -math.inf)


# ---------------------------------------------------------------------------
# fields


class FieldError(ValueError):
    pass


class ScalarField:
    """A scalar function of the group coordinates.

    fn must accept the unpacked coordinates and work elementwise; writing it
    with +,*,/ and the jet_* helpers makes it jet-safe, which is what the
    analytic engine uses when no explicit callbacks are given.
    """

    def __init__(self, group, fn, gradient=None, hessian=None, name=None,
                 check=True):
        self.group = group
        self.fn = fn
        self.gradient = gradient
        self.hessian = hessian
        self.name = name or getattr(fn, "__name__", "field")
        if check and (gradient is not None or hessian is not None):
            self._check_callbacks()

    def _check_callbacks(self):
        rng = np.random.default_rng(1234)
        pts = rng.uniform(-1.0, 1.0, size=(4, self.group.dim))
        h = 1e-5
        for g in pts:
            if self.gradient is not None:
                ana = np.asarray(self.gradient(*g), dtype=float)
                fd = np.array([
                    (self.fn(*(g + h * e)) - self.fn(*(g - h * e))) / (2 * h)
                    for e in np.eye(self.group.dim)])
                if np.max(np.abs(ana - fd)) > 1e-6 * max(1.0, np.max(np.abs(fd))) + 1e-7:
                    raise FieldError(
                        "gradient callback of %r disagrees with central "
                        "differences" % self.name)
            if self.hessian is not None:
                ana = np.asarray(self.hessian(*g), dtype=float)
                hh = 1e-4
                n = self.group.dim
                fd = np.zeros((n, n))
                for i, ei in enumerate(np.eye(n)):
                    for j, ej in enumerate(np.eye(n)):
                        fd[i, j] = (
                            self.fn(*(g + hh * ei + hh * ej))
                            - self.fn(*(g + hh * ei - hh * ej))
                            - self.fn(*(g - hh * ei + hh * ej))
                            + self.fn(*(g - hh * ei - hh * ej))) / (4 * hh * hh)
                if np.max(np.abs(ana - fd)) > 1e-4 * max(1.0, np.max(np.abs(fd))) + 1e-5:
                    raise FieldError(
                        "hessian callback of %r disagrees with central "
                        "differences" % self.name)

    def value(self, g):
        return self.fn(*np.asarray(g, dtype=float))

    __call__ = value

    def jet(self, g, order=2):
        """Coordinate-space jet at g (exact for jet-safe fn or callbacks).

        g may be one point (dim,) or a batch (n, dim), whose jet holds (n,)
        values and gradient and Hessian entries that broadcast to (n,);
        callbacks are called once per point of a batch.
        """
        g = np.asarray(g, dtype=float)
        if self.gradient is not None and (order < 2 or self.hessian is not None):
            hess = None
            if g.ndim > 1:
                jets = [self.jet(gk, order) for gk in g]
                v = np.array([j.v for j in jets])
                grad = np.stack([np.asarray(j.g) for j in jets], axis=-1)
                if order >= 2:
                    hess = np.stack([np.asarray(j.h) for j in jets], axis=-1)
            else:
                v = self.fn(*g)
                grad = np.asarray(self.gradient(*g), dtype=float)
                if order >= 2:
                    hess = np.asarray(self.hessian(*g), dtype=float)
                    hess = 0.5 * (hess + hess.T)
            return Jet(v, Partials(grad),
                       None if hess is None else Partials(map(Partials, hess)))
        out = self.fn(*seed_jets(g.T, order=order))
        if not isinstance(out, Jet):  # constant field
            out = Jet(out + np.zeros(g.shape[:-1]), *_zeros(g.shape[-1], order))
        return out


class DerivativeEngine:
    """How coordinate derivatives are obtained: 'analytic' or 'finite_difference'."""

    def __init__(self, mode="analytic", h1=None):
        if mode not in ("analytic", "finite_difference"):
            raise FieldError("unknown engine mode %r" % mode)
        self.mode = mode
        self.h1 = h1

    def step1(self, g):
        scale = max(1.0, float(np.max(np.abs(g))))
        return self.h1 if self.h1 is not None else CBRT_EPS * scale

    def step2(self, g):
        return QUART_EPS * max(1.0, float(np.max(np.abs(g))))


ANALYTIC = DerivativeEngine("analytic")
FD = DerivativeEngine("finite_difference")


def _coordinate_jet(field, g, order, engine):
    if engine.mode == "analytic":
        return field.jet(g, order=order)
    if order != 1:
        raise FieldError("the finite-difference engine gives first-order "
                         "coordinate jets only")
    g = np.asarray(g, dtype=float)
    n = len(g)
    h = engine.step1(g)
    grad = np.zeros(n)
    eye = np.eye(n)
    for i in range(n):
        grad[i] = (field.fn(*(g + h * eye[i])) - field.fn(*(g - h * eye[i]))) / (2 * h)
    return Jet(field.fn(*g), Partials(grad))


def x_derivative(G, field, i, g, engine=ANALYTIC):
    """Derivative of a field along the i-th frame direction (1-based).

    i in 1..m picks a horizontal field; larger i picks the vertical frame
    fields in layer order.
    """
    g = np.asarray(g, dtype=float)
    col = frame_at(G, g)[:, i - 1]
    if engine.mode == "analytic":
        return float(np.dot(col, _coordinate_jet(field, g, 1, engine).g))
    return _central(field, g, col, engine.step1(g))


def _central(field, g, col, h):
    """Central difference of field at g along the vector col, step h."""
    return (field.fn(*(g + h * col)) - field.fn(*(g - h * col))) / (2 * h)


def horizontal_jet(G, field, g, engine=ANALYTIC):
    """Horizontal gradient, symmetrized horizontal Hessian and their traces.

    Returns a dict with gradH (m,), hessH (m, m; symmetrized), lapH
    (= trace hessH), infH (= <hessH gradH, gradH>) and comps, the frame
    components <grad f, X_j>, <grad f, T_s> of the coordinate gradient.
    """
    g = np.asarray(g, dtype=float)
    m = G.m
    A = frame_at(G, g)
    if engine.mode == "analytic":
        jet = _coordinate_jet(field, g, 2, engine)
        grad, hess = np.asarray(jet.g), np.asarray(jet.h)
        dA = frame_jacobian(G, g)
        gradH = A[:, :m].T @ grad
        raw = np.empty((m, m))
        for i in range(m):
            for j in range(m):
                # X_i X_j f = col_i^T Hf col_j + (X_i of col_j) . grad f
                dcol = np.einsum("k,kl->l", A[:, i], dA[:, :, j])
                raw[i, j] = A[:, i] @ hess @ A[:, j] + dcol @ grad
    else:
        # one frame per distinct point: g and g +- h2 X_i(g)
        grad = np.asarray(_coordinate_jet(field, g, 1, engine).g)
        h, h2 = engine.step1(g), engine.step2(g)
        gradH = [_central(field, g, A[:, i], h) for i in range(m)]
        raw = np.empty((m, m))
        for i in range(m):
            gp = g + h2 * A[:, i]
            gm = g - h2 * A[:, i]
            Ap, Am = frame_at(G, gp), frame_at(G, gm)
            for j in range(m):
                raw[i, j] = (_central(field, gp, Ap[:, j], h)
                             - _central(field, gm, Am[:, j], h)) / (2 * h2)
    hessH = 0.5 * (raw + raw.T)
    gradH = np.asarray(gradH, dtype=float)
    return {
        "gradH": gradH,
        "hessH": hessH,
        "lapH": float(np.trace(hessH)),
        "infH": float(gradH @ hessH @ gradH),
        "comps": A.T @ grad,
    }


# ---------------------------------------------------------------------------
# field catalog


def coordinate_field(G, idx, name=None):
    def fn(*coords):
        return coords[idx]
    grad = np.zeros(G.dim)
    grad[idx] = 1.0
    return ScalarField(G, fn,
                       gradient=lambda *c: grad,
                       hessian=lambda *c: np.zeros((G.dim, G.dim)),
                       name=name or ("coord%d" % idx), check=False)


def _poly_terms(terms, arity):
    """[(c, (e_1, ..., e_arity)), ...] of a polynomial term list
    [[c, [e_1, ..., e_arity]], ...]; FieldError unless every c is a number
    and every e an integer >= 0 (a bool is neither)."""
    seq, real, integral = (list, tuple), numbers.Real, numbers.Integral
    if not (isinstance(terms, seq) and all(
            isinstance(t, seq) and len(t) == 2 and isinstance(t[0], real)
            and isinstance(t[1], seq) and len(t[1]) == arity
            and all(isinstance(e, integral) and e >= 0 for e in t[1])
            and bool not in map(type, [t[0], *t[1]]) for t in terms)):
        raise FieldError("polynomial terms %r are not a list of [number, "
                         "[%d integers >= 0]]" % (terms, arity))
    return [(float(c), tuple(int(e) for e in exps)) for c, exps in terms]


def _poly_sum(parsed, coords, total=0.0):
    """total plus the terms c x_1^e_1 ... x_N^e_N of a _poly_terms list at
    the coordinates (numbers, arrays or jets), added term by term; each
    power x_k^e is computed once per call."""
    powers = {}
    for c, exps in parsed:
        term = c
        for k, e in enumerate(exps):
            if e:
                if (k, e) not in powers:
                    powers[k, e] = coords[k] ** e
                term = term * powers[k, e]
        total = term + total
    return total


def poly_field(G, terms, name="poly"):
    """Polynomial from a coefficient list [[c, [e_1, ..., e_N]], ...]."""
    parsed = _poly_terms(terms, G.dim)
    return ScalarField(G, lambda *coords: _poly_sum(parsed, coords),
                       name=name, check=False)


def _coordinate_names(G):
    names = {}
    if G.is_heisenberg:
        n = G.m // 2
        for i in range(n):
            names["x%d" % (i + 1)] = i
            names["y%d" % (i + 1)] = n + i
        names["t"] = 2 * n
        if n == 1:
            names.setdefault("x", 0)
            names.setdefault("y", 1)
    elif G.name == "engel":
        names.update({"x": 0, "y": 1, "t": 2, "s": 3})
        names.update({"x1": 0, "x2": 1})
    else:
        for i in range(G.m):
            names["x%d" % (i + 1)] = i
        off = G.m
        for s in range(G.dim - G.m):
            names["t%d" % (s + 1)] = off + s
        if G.dim - G.m == 1:
            names["t"] = off
    return names


def build_field(G, spec):
    """Field catalog: coordinate names, gauge powers, JSON polynomials."""
    if isinstance(spec, ScalarField):
        return spec
    if isinstance(spec, dict):
        return poly_field(G, spec["terms"], name=spec.get("name", "poly"))
    s = str(spec).strip()
    names = _coordinate_names(G)
    if s in names:
        return coordinate_field(G, names[s], name=s)
    if s == "gauge":
        return gauge_power_field(G, 1)
    if s.startswith("gauge^"):
        return gauge_power_field(G, float(s.split("^", 1)[1]))
    if s.startswith("poly:"):
        return poly_field(G, json.loads(s[5:]), name=s)
    raise FieldError("unknown field id %r" % spec)


def gauge_power_field(G, k):
    """The (renormalized, on Heisenberg) gauge norm raised to the power k."""
    if G.is_heisenberg:
        m = G.m

        def fn(*coords):
            z2 = coords[0] * coords[0]
            for c in coords[1:m]:
                z2 = z2 + c * c
            n4 = z2 * z2 + 16.0 * coords[m] * coords[m]
            if k == 4:
                return n4
            return n4 ** (k / 4.0)
    else:
        rfact = math.factorial(G.step)
        slices = [G.layer_slice(j) for j in range(1, G.step + 1)]

        def fn(*coords):
            acc = 0.0
            for j, sl in enumerate(slices, start=1):
                block = coords[sl]
                nj2 = 0.0
                for c in block:
                    nj2 = nj2 + c * c
                acc = acc + nj2 ** (rfact // j if rfact % j == 0 else rfact / j)
            return acc ** (k / (2.0 * rfact))
    return ScalarField(G, fn, name="gauge^%g" % k, check=False)
