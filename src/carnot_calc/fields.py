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


class Jet:
    """Second-order truncated Taylor scalar: value, gradient, Hessian.

    Components may be floats or numpy arrays (broadcasting over grids).
    h=None marks a first-order jet; constants keep h=0 so they never
    downgrade the order of an expression.
    """

    __slots__ = ("v", "g", "h")

    def __init__(self, v, g, h=None):
        self.v = v
        self.g = g
        self.h = h

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _lift(x):
        if isinstance(x, Jet):
            return x
        return Jet(x, 0.0, 0.0)

    @staticmethod
    def _outer(a, b):
        if np.isscalar(a) and a == 0.0:
            return 0.0
        if np.isscalar(b) and b == 0.0:
            return 0.0
        a = np.asarray(a)
        b = np.asarray(b)
        return a[:, None, ...] * b[None, :, ...]

    def _both(self, other):
        o = Jet._lift(other)
        keep = self.h is not None and o.h is not None
        return o, keep

    # -- ring operations ----------------------------------------------------

    def __neg__(self):
        return Jet(-self.v, -self.g, None if self.h is None else -self.h)

    def __add__(self, other):
        o, keep = self._both(other)
        return Jet(self.v + o.v, self.g + o.g,
                   self.h + o.h if keep else None)

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(-Jet._lift(other))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o, keep = self._both(other)
        v = self.v * o.v
        g = self.g * o.v + o.g * self.v
        h = None
        if keep:
            h = (self.h * o.v + o.h * self.v
                 + Jet._outer(self.g, o.g) + Jet._outer(o.g, self.g))
        return Jet(v, g, h)

    __rmul__ = __mul__

    def _chain(self, f0, f1, f2):
        """Compose with a scalar function given f(v), f'(v), f''(v)."""
        g = f1 * self.g
        h = None
        if self.h is not None:
            h = f1 * self.h + f2 * Jet._outer(self.g, self.g)
        return Jet(f0, g, h)

    def reciprocal(self):
        iv = 1.0 / self.v
        return self._chain(iv, -iv * iv, 2.0 * iv * iv * iv)

    def __truediv__(self, other):
        o = Jet._lift(other)
        return self * o.reciprocal()

    def __rtruediv__(self, other):
        return Jet._lift(other) * self.reciprocal()

    def __pow__(self, k):
        if isinstance(k, Jet):
            raise TypeError("jet exponents are not supported")
        if k == 0:
            return Jet._lift(np.ones_like(self.v) * 1.0)
        if k == 1:
            return self
        if k == 2:
            return self * self
        v = self.v
        return self._chain(v ** k, k * v ** (k - 1), k * (k - 1) * v ** (k - 2))

    def sqrt(self):
        r = np.sqrt(self.v)
        return self._chain(r, 0.5 / r, -0.25 / (r * self.v))

    def exp(self):
        e = np.exp(self.v)
        return self._chain(e, e, e)

    def log(self):
        return self._chain(np.log(self.v), 1.0 / self.v, -1.0 / self.v ** 2)

    def sin(self):
        s, c = np.sin(self.v), np.cos(self.v)
        return self._chain(s, c, -s)

    def cos(self):
        s, c = np.sin(self.v), np.cos(self.v)
        return self._chain(c, -s, -c)


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
    """Independent-variable jets for a coordinate tuple (arrays allowed)."""
    coords = [np.asarray(c, dtype=float) for c in coords]
    n = len(coords)
    shape = np.broadcast(*[np.empty(np.shape(c)) for c in coords]).shape if n else ()
    out = []
    for i, c in enumerate(coords):
        g = np.zeros((n,) + shape)
        g[i] = 1.0
        h = np.zeros((n, n) + shape) if order >= 2 else None
        out.append(Jet(c + np.zeros(shape), g, h))
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
    f1 = np.where(m, -f0 / safe ** 2, 0.0)
    f2 = np.where(m, f0 / safe ** 4 - 2.0 * f0 / safe ** 3, 0.0)
    g = f1 * s.g
    h = None
    if s.h is not None:
        h = f1 * s.h + f2 * Jet._outer(s.g, s.g)
    return Jet(f0, g, h)


def bump1(center=0.0, radius=1.0):
    """One-variable C-infinity bump supported on |x-center| < radius."""
    def fn(x):
        z = (x - center) * (1.0 / radius)
        return _bump_of_square(z * z)
    return fn


def bump2(cu=0.0, cv=0.0, ru=1.0, rv=1.0):
    """Two-variable bump supported on the open ellipse of radii (ru, rv)."""
    def fn(u, v):
        a = (u - cu) * (1.0 / ru)
        b = (v - cv) * (1.0 / rv)
        return _bump_of_square(a * a + b * b)
    return fn


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
        """Coordinate-space jet at g (exact for jet-safe fn or callbacks)."""
        g = np.asarray(g, dtype=float)
        if self.gradient is not None and (order < 2 or self.hessian is not None):
            grad = np.asarray(self.gradient(*g), dtype=float)
            hess = None
            if order >= 2:
                hess = np.asarray(self.hessian(*g), dtype=float)
                hess = 0.5 * (hess + hess.T)
            return Jet(self.fn(*g), grad, hess)
        out = self.fn(*seed_jets(g, order=order))
        if not isinstance(out, Jet):  # constant field
            n = len(g)
            out = Jet(out, np.zeros(n), np.zeros((n, n)) if order >= 2 else None)
        return out


class DerivativeEngine:
    """How coordinate derivatives are obtained: 'analytic' or 'finite_difference'."""

    def __init__(self, mode="analytic", h1=None, h2=None):
        if mode not in ("analytic", "finite_difference"):
            raise FieldError("unknown engine mode %r" % mode)
        self.mode = mode
        self.h1 = h1
        self.h2 = h2

    def step1(self, g):
        scale = max(1.0, float(np.max(np.abs(g))))
        return self.h1 if self.h1 is not None else CBRT_EPS * scale

    def step2(self, g):
        scale = max(1.0, float(np.max(np.abs(g))))
        return self.h2 if self.h2 is not None else QUART_EPS * scale


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
    return Jet(field.fn(*g), grad)


def x_derivative(G, field, i, g, engine=ANALYTIC):
    """Derivative of a field along the i-th frame direction (1-based).

    i in 1..m picks a horizontal field; larger i picks the vertical frame
    fields in layer order.
    """
    g = np.asarray(g, dtype=float)
    col = frame_at(G, g)[:, i - 1]
    if engine.mode == "analytic":
        return float(np.dot(col, _coordinate_jet(field, g, 1, engine).g))
    h = engine.step1(g)
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
        dA = frame_jacobian(G, g)
        gradH = A[:, :m].T @ jet.g
        raw = np.empty((m, m))
        for i in range(m):
            for j in range(m):
                # X_i X_j f = col_i^T Hf col_j + (X_i of col_j) . grad f
                dcol = np.einsum("k,kl->l", A[:, i], dA[:, :, j])
                raw[i, j] = A[:, i] @ jet.h @ A[:, j] + dcol @ jet.g
    else:
        jet = _coordinate_jet(field, g, 1, engine)
        gradH = [x_derivative(G, field, i + 1, g, engine) for i in range(m)]
        h2 = engine.step2(g)
        raw = np.empty((m, m))
        for i in range(m):
            for j in range(m):
                gp = g + h2 * A[:, i]
                gm = g - h2 * A[:, i]
                colp = frame_at(G, gp)[:, j]
                colm = frame_at(G, gm)[:, j]
                h = engine.step1(g)
                fp = (field.fn(*(gp + h * colp)) - field.fn(*(gp - h * colp))) / (2 * h)
                fm = (field.fn(*(gm + h * colm)) - field.fn(*(gm - h * colm))) / (2 * h)
                raw[i, j] = (fp - fm) / (2 * h2)
    hessH = 0.5 * (raw + raw.T)
    gradH = np.asarray(gradH, dtype=float)
    return {
        "gradH": gradH,
        "hessH": hessH,
        "lapH": float(np.trace(hessH)),
        "infH": float(gradH @ hessH @ gradH),
        "comps": A.T @ jet.g,
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


def poly_field(G, terms, name="poly"):
    """Polynomial from a coefficient list [[c, [e_1, ..., e_N]], ...]."""
    parsed = []
    for term in terms:
        c, exps = float(term[0]), [int(e) for e in term[1]]
        if len(exps) != G.dim:
            raise FieldError("polynomial exponent tuple has wrong length")
        parsed.append((c, exps))

    def fn(*coords):
        total = 0.0
        for c, exps in parsed:
            term = c
            for x, e in zip(coords, exps):
                if e:
                    term = term * x ** e
            total = term + total
        return total

    return ScalarField(G, fn, name=name, check=False)


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
