"""Non-anticipative functionals of a path and their pathwise derivatives.

A functional F(t, X, A) sees the time t, a sampled path X and an optional
piecewise-linear component path A; non-anticipativity (F reads nothing past
t) is a contract on the supplied callables, testable via
``stop``-invariance, not something this module can enforce.

Three derivative notions are exposed, each either analytic (supplied at
construction) or approximated by finite differences:

* vertical: bump the path by h e_i at all grid times >= t and difference;
* second vertical: iterated central differences, symmetric by construction;
* horizontal: move the evaluation time forward with the path frozen at t.
  The zeroth component is the plain forward quotient in t.  The k-th
  component differences F against a path whose k-th extra component keeps
  running to t + h while everything else stays frozen, divided by
  A_k(t+h) - A_k(t); on stretches where A_k does not move the quotient is
  vacuous and the component is reported as 0 with an "underdetermined"
  flag (any value integrates identically against the flat dA_k there).

The product and compose combinators push all three notions through the
standard rules, delegating to whatever the parts provide, so analytic and
finite-difference functionals mix freely.

Routes.  One constructor, :func:`_combined`, builds every functional from
row rules.  A leaf (:func:`cylinder`, a config's formula cylinder,
:func:`coordinate`, :func:`bv_coordinate`, :func:`constant_functional`)
reads the stacked states (t, X(t), A(t)); a combinator (:func:`product`,
:func:`compose`, the recentering in ``ito.augment``) reads its parts' rows.
Each slot takes one route:

* state form: every supplied slot of a leaf, and a combinator's slot whose
  parts all have state forms for evaluate, vertical and that slot.  A grid
  pass runs the map once on all rows (:func:`_state_slot`), O(N) a level;
  a call at one time runs it on the one-row state (t, X(t), A(t)).  At a
  partition point a pre-step path has the grid state, so integrals,
  samples and point calls share their bits.
* parts: a combinator's other slots call their parts' point methods
  (``compose`` hands its outer a memoised path of inner values).
* finite differences: an omitted derivative (``None`` in the point table)
  runs :func:`fd_vertical`, :func:`fd_vertical2` or :func:`fd_horizontal`
  on stopped and bumped paths.

Slots without a state form, like every slot of a general
:class:`Functional`, are sampled point by point and integrated cell by cell
on a pre-step view of X (``reduction.map_chunked``): O(log N) a cell for a
callable that reads only ``value`` and ``left_limit``, O(N) for one that
reads ``.values`` and for a finite-difference slot.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .paths import (
    BVPath,
    Box,
    DomainError,
    GridError,
    LINEAR,
    PartitionSequence,
    SampledPath,
    _bumped,
    _grid_position,
    _require_box,
    _require_same_grid,
    stop,
)
from .qv import qv_matrix
from .reduction import ordered_dot

_DERIV_GUARD = 1e-14
_NO_COMPONENTS = np.zeros((1, 0))  # A of a one-row state when m = 0


def _default_vertical_h(x) -> float:
    return 1e-4 * (1.0 + float(np.max(np.abs(x.values))))


def _default_horizontal_h(x) -> float:
    return 1e-3 * float(x.times[-1])


class Functional:
    """A scalar functional with evaluation and derivative callables.

    ``evaluate`` is mandatory; the three derivative slots are optional and
    fall back to finite differences on the functional itself.  ``x_domain``,
    a :class:`Box`, restricts the path values the functional accepts;
    vertical bumps are validated against it so boundary proximity surfaces
    as DomainError.
    """

    __slots__ = ("d", "m", "name", "x_domain", "_point", "_on_states")

    def __init__(
        self,
        evaluate: Callable,
        d: int,
        m: int = 0,
        vertical: Callable | None = None,
        vertical2: Callable | None = None,
        horizontal: Callable | None = None,
        x_domain: Box | None = None,
        name: str = "functional",
    ) -> None:
        if d < 1 or m < 0:
            raise ValueError("need d >= 1 path components and m >= 0 extra components")
        self.d = int(d)
        self.m = int(m)
        self.name = name
        self.x_domain = _require_box(x_domain)
        # Slot name -> callable at one time (None: finite differences), and
        # -> map on stacked states (t, X, A) for each slot with a state form.
        self._point = dict(evaluate=evaluate, vertical=vertical, vertical2=vertical2,
                           horizontal=horizontal)
        self._on_states: dict[str, Callable] = {}

    def _check_args(self, x, a) -> None:
        if x.d != self.d:
            raise ValueError(f"{self.name}: path has {x.d} components, functional wants {self.d}")
        got = 0 if a is None else a.m
        if got != self.m:
            raise ValueError(f"{self.name}: got {got} extra components, wants {self.m}")

    def _checked(self, slot: str, value):
        """A slot's raw value as a float or an array of the slot's shape."""
        if slot == "evaluate":
            return float(value)
        if slot == "vertical2":
            out = np.asarray(value, dtype=np.float64)
            if out.shape != (self.d, self.d):
                raise ValueError(f"{self.name}: second vertical must be ({self.d}, {self.d})")
            return out
        n = self.d if slot == "vertical" else self.m + 1
        out = np.asarray(value, dtype=np.float64).reshape(-1)
        if out.shape != (n,):
            raise ValueError(f"{self.name}: derivative must have {n} entries")
        return out

    def _at(self, slot: str, t: float, x, a):
        self._check_args(x, a)
        fn = self._point[slot]
        if fn is None:  # looked up per call, so a traced run counts it
            return globals()[f"fd_{slot}"](self, t, x, a)
        return self._checked(slot, fn(t, x, a))

    def evaluate(self, t: float, x, a=None) -> float:
        return self._at("evaluate", t, x, a)

    def vertical(self, t: float, x, a=None) -> np.ndarray:
        return self._at("vertical", t, x, a)

    def vertical2(self, t: float, x, a=None) -> np.ndarray:
        return self._at("vertical2", t, x, a)

    def horizontal(self, t: float, x, a=None) -> np.ndarray:
        return self._at("horizontal", t, x, a)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Functional({self.name!r}, d={self.d}, m={self.m})"


def _state_slot(F: Functional, slot: str, x, a=None, rows=None) -> np.ndarray | None:
    """F's ``slot`` at grid rows of x, stacked along axis 0, from states alone.

    ``slot`` is evaluate, vertical, vertical2 or horizontal; ``rows`` are
    grid indices (every grid time when None).  At a grid time a path's
    value is its sample there, so a state-only F needs no stopped or
    pre-step path.  Returns None when F has no state form for the slot (a
    general functional, or a finite-difference fallback); the caller then
    evaluates point by point.  An ``a`` on another grid raises GridError
    before anything is evaluated.
    """
    if a is not None:
        _require_same_grid(x, a)
    fn = F._on_states.get(slot)
    if fn is None:
        return None
    F._check_args(x, a)
    sel = slice(None) if rows is None else rows
    t = x.times[sel]
    A = a.values[sel] if a is not None else np.zeros((t.shape[0], 0))
    return fn(t, x.values[sel], A)


# ---------------------------------------------------------------------------
# Finite differences


def fd_vertical(F: Functional, t: float, x, a=None, h: float | None = None) -> np.ndarray:
    """Central difference of F under bumps h e_i 1_[t,T], per component.

    ``t`` must be a grid time: a sampled path cannot hold a jump between
    grid points, so an off-grid bump would be silently smoothed.  Falls
    back to a one-sided quotient when one of the two bumps leaves the
    domain; both sides failing is a genuine boundary hit and raises.
    """
    if h is None:
        h = _default_vertical_h(x)
    j = x.grid_index(t)
    dom = F.x_domain if F.x_domain is not None else x.domain
    out = np.empty(F.d)
    for i in range(F.d):
        up = down = None
        try:
            up = F.evaluate(t, _bumped(x, j, i, +h, dom), a)
        except DomainError:
            pass
        try:
            down = F.evaluate(t, _bumped(x, j, i, -h, dom), a)
        except DomainError:
            pass
        if up is not None and down is not None:
            out[i] = (up - down) / (2.0 * h)
        elif up is not None:
            out[i] = (up - F.evaluate(t, x, a)) / h
        elif down is not None:
            out[i] = (F.evaluate(t, x, a) - down) / h
        else:
            raise DomainError(
                f"{F.name}: vertical bumps at t={t} leave the domain on both sides"
            )
    return out


def fd_vertical2(F: Functional, t: float, x, a=None, h: float | None = None) -> np.ndarray:
    """Symmetric second differences; shrinks h near a domain boundary."""
    if h is None:
        h = _default_vertical_h(x)
    j = x.grid_index(t)
    dom = F.x_domain if F.x_domain is not None else x.domain
    last_exc = None
    for _ in range(7):
        try:
            return _fd_vertical2_at(F, t, x, a, j, h, dom)
        except DomainError as exc:
            last_exc = exc
            h *= 0.5
    raise DomainError(f"{F.name}: second vertical bumps keep leaving the domain: {last_exc}")


def _fd_vertical2_at(F, t, x, a, j, h, dom) -> np.ndarray:
    d = F.d
    out = np.empty((d, d))
    mid = F.evaluate(t, x, a)
    for i in range(d):
        up = F.evaluate(t, _bumped(x, j, i, +h, dom), a)
        down = F.evaluate(t, _bumped(x, j, i, -h, dom), a)
        out[i, i] = (up - 2.0 * mid + down) / (h * h)
    for i in range(d):
        for k in range(i + 1, d):
            pp = F.evaluate(t, _bumped(_bumped(x, j, i, +h, dom), j, k, +h, dom), a)
            pm = F.evaluate(t, _bumped(_bumped(x, j, i, +h, dom), j, k, -h, dom), a)
            mp = F.evaluate(t, _bumped(_bumped(x, j, i, -h, dom), j, k, +h, dom), a)
            mm = F.evaluate(t, _bumped(_bumped(x, j, i, -h, dom), j, k, -h, dom), a)
            val = (pp - pm - mp + mm) / (4.0 * h * h)
            out[i, k] = val
            out[k, i] = val
    return out


def fd_horizontal(
    F: Functional,
    t: float,
    x,
    a=None,
    h: float | None = None,
    return_flags: bool = False,
):
    """Difference quotients for (D_0, D_1, ..., D_m) at time t.

    All quotients freeze the path data at t and move only the evaluation
    time (and, for k >= 1, the k-th extra component) forward by at most h,
    clamped so t + h never passes T.  At t = T the window vanishes and
    every component is 0 and flagged.  For k >= 1 each trial step h_k in
    (h/4, h/2, h) is snapped to the grid time of A at or after t + h_k (and
    after t, under the paths module's grid rule), because the mixed path can
    hold its kink exactly only at a grid point; an off-grid kink would be
    smoothed by interpolation and bias the quotient by the interpolation
    fraction.  The smallest snapped step with |A_k(t+h) - A_k(t)| above a
    tiny guard wins; a flat component is 0 and flagged as underdetermined.
    """
    if h is None:
        h = _default_horizontal_h(x)
    T = x.horizon
    m = F.m
    out = np.zeros(m + 1)
    flags = np.zeros(m + 1, dtype=bool)
    x_t = stop(x, t)
    a_t = stop(a, t) if a is not None else None
    h0 = min(h, T - t)
    if h0 <= _DERIV_GUARD * max(1.0, T):
        flags[:] = True
        return (out, flags) if return_flags else out
    base = F.evaluate(t, x_t, a_t)
    out[0] = (F.evaluate(t + h0, x_t, a_t) - base) / h0
    if m:
        guard = _DERIV_GUARD * max(1.0, float(np.max(np.abs(a.values))))
        first_after = _grid_position(a.times, t)[0] + 1
        steps = []
        for hk in (h0 / 4.0, h0 / 2.0, h0):
            j, on_grid = _grid_position(a.times, t + hk)
            th = float(a.times[min(max(j + (not on_grid), first_after), a.n_points - 1)])
            if th > t and th not in steps:
                steps.append(th)
        for k in range(m):
            for th in steps:
                da = float(a.value(th)[k] - a.value(t)[k])
                if abs(da) > guard:
                    mixed = a_t.values.copy()
                    mixed[:, k] = stop(a, th).values[:, k]
                    a_mix = BVPath._trusted(a.times, mixed, LINEAR, a.domain)
                    out[k + 1] = (F.evaluate(th, x_t, a_mix) - F.evaluate(th, x_t, a_t)) / da
                    break
            else:
                flags[k + 1] = True
    return (out, flags) if return_flags else out


# ---------------------------------------------------------------------------
# Built-in library


def _combined(
    rules: dict, d, m, x_domain, name, parts=(), point_args=None, state_args=None
) -> Functional:
    """A Functional whose slots are row rules, over the states or over parts.

    ``rules`` maps each supplied slot (``evaluate`` is required) to
    ``rule(get)``.  A leaf (no ``parts``) reads the stacked states
    ``get(None)`` = (t, X, A), shaped (n,), (n, d), (n, m); a combinator
    reads ``get(i, slot)``, the rows of ``parts[i]``'s slot on the data
    ``state_args(t, X, A)[i]`` on states or ``point_args(t, x, a)[i]`` at a
    point (both default to the functional's own).  Which route each slot
    takes is the rule in the module docstring.
    """

    def on_states(rule):
        def run(t, X, A):
            if not parts:
                return rule(lambda i: (t, X, A))
            args = state_args(t, X, A) if state_args else [(X, A)] * len(parts)
            return rule(lambda i, slot: parts[i]._on_states[slot](t, *args[i]))

        return run

    def point(slot, rule):
        def at_state(t, x, a):
            A = a.value(t)[None] if a is not None else _NO_COMPONENTS
            return states[slot](np.array([t], dtype=np.float64), x.value(t)[None], A)[0]

        def via_parts(t, x, a):
            args = point_args(t, x, a) if point_args else [(x, a)] * len(parts)

            def get(i, slot):
                value = getattr(parts[i], slot)(t, *args[i])
                return np.array([value]) if slot == "evaluate" else value[None]

            return rule(get)[0]

        return at_state if slot in states else via_parts

    states = {
        slot: on_states(rule)
        for slot, rule in rules.items()
        if all({"evaluate", "vertical", slot} <= p._on_states.keys() for p in parts)
    }
    points = {slot: point(slot, rule) for slot, rule in rules.items()}
    F = Functional(d=d, m=m, x_domain=x_domain, name=name, **points)
    F._on_states = states
    return F


def _constant_slopes(value: Callable, dx: np.ndarray, dh: np.ndarray, x_domain, name) -> Functional:
    """A leaf with the value rule ``value``, constant vertical ``dx`` and horizontal ``dh``."""
    d, m = dx.shape[0], dh.shape[0] - 1

    def rows(row):
        return lambda get: np.tile(row, (len(get(None)[0]),) + (1,) * row.ndim)

    slopes = {"vertical": rows(dx), "vertical2": rows(np.zeros((d, d))), "horizontal": rows(dh)}
    return _combined({"evaluate": value, **slopes}, d, m, x_domain, name)


def coordinate(i: int = 0, d: int = 1, m: int = 0, x_domain: Box | None = None) -> Functional:
    """F(t, X, A) = X_i(t)."""
    if not 0 <= i < d:
        raise ValueError("coordinate index out of range")
    e_i = np.zeros(d)
    e_i[i] = 1.0

    def x_i(get):
        return get(None)[1][:, i]

    return _constant_slopes(x_i, e_i, np.zeros(m + 1), x_domain, f"x{i + 1}")


def bv_coordinate(k: int = 0, m: int = 1, d: int = 1) -> Functional:
    """F(t, X, A) = A_k(t); horizontal derivative (0, ..., 1, ..., 0)."""
    if not 0 <= k < m:
        raise ValueError("component index out of range")
    h_vec = np.zeros(m + 1)
    h_vec[k + 1] = 1.0
    return _constant_slopes(lambda get: get(None)[2][:, k], np.zeros(d), h_vec, None, f"a{k + 1}")


def constant_functional(c: float, d: int = 1, m: int = 0) -> Functional:
    """F(t, X, A) = c."""
    value = float(c)
    return _constant_slopes(
        lambda get: np.full(len(get(None)[0]), value), np.zeros(d), np.zeros(m + 1), None, f"{c:g}"
    )


def cylinder(
    f: Callable,
    d: int = 1,
    m: int = 0,
    grad: Callable | None = None,
    hess: Callable | None = None,
    dt: Callable | None = None,
    da: Callable | None = None,
    x_domain: Box | None = None,
    name: str = "cylinder",
) -> Functional:
    """F(t, X, A) = f(t, X(t), A(t)) for a smooth instantaneous f.

    ``f`` and each supplied partial take (t, x_vec, a_vec) with array
    arguments of length d and m.  For such functionals the pathwise
    derivatives collapse to the classical partials of f: vertical is the
    x-gradient, second vertical the x-Hessian, D_0 the t-partial and D_k
    the a_k-partial (the frozen path contributes nothing else).  ``da`` is
    required together with ``dt`` to form an analytic horizontal.  Each
    slot's route (state form or finite differences) is the module docstring's.
    """
    horizontal = None
    if dt is not None and (m == 0 or da is not None):
        def horizontal(t, xv, av):
            tail = np.atleast_1d(da(t, xv, av)) if m else np.zeros(0)
            return np.concatenate([[dt(t, xv, av)], tail])

    point = {"evaluate": f, "vertical": grad, "vertical2": hess, "horizontal": horizontal}

    def row_loop(slot, fn):
        def call(get):
            t, X, A = get(None)
            rows = zip(t.tolist(), X, A)
            return np.array([F._checked(slot, fn(*row)) for row in rows], dtype=np.float64)

        return call

    rules = {slot: row_loop(slot, fn) for slot, fn in point.items() if fn is not None}
    F = _combined(rules, d, m, x_domain, name)
    return F


def _formula_cylinder(
    f: Callable,
    d: int,
    m: int,
    grad: Sequence[Callable] | None = None,
    hess: Sequence[Sequence[Callable]] | None = None,
    dt: Callable | None = None,
    da: Sequence[Callable] | None = None,
    x_domain: Box | None = None,
    name: str = "cylinder",
) -> Functional:
    """:func:`cylinder` from elementwise formulas over (t, x1..xd, a1..am).

    Each formula maps equal-shape float arrays to an array of that shape
    (a :class:`~pathwise_ito.expressions.CompiledExpression`); ``grad`` and
    ``da`` list one formula per entry and ``hess`` one row of d per x
    component.  A grid pass calls each formula once on the stacked states.
    """

    def flat(get):
        t, X, A = get(None)
        return (t, *X.T, *A.T)

    def columns(fns):
        return lambda get: np.stack([fn(*flat(get)) for fn in fns], axis=-1)

    rules = {"evaluate": lambda get: f(*flat(get))}
    if grad is not None:
        rules["vertical"] = columns(grad)
    if hess is not None:

        def hessian(get):  # one (n, d, d) block, a row at a time through a (d, n) buffer
            args = flat(get)
            out = np.empty((args[0].shape[0], d, d))
            buf = np.empty((d, args[0].shape[0]))
            for i, row in enumerate(hess):
                for j, fn in enumerate(row):
                    buf[j] = fn(*args)
                out[:, i] = buf.T
            return out

        rules["vertical2"] = hessian
    if dt is not None and (m == 0 or da is not None):
        rules["horizontal"] = columns([dt, *(da or ())])
    return _combined(rules, d, m, x_domain, name)


# ---------------------------------------------------------------------------
# Extra-component factories


def time_average_path(x: SampledPath, i: int = 0) -> BVPath:
    """A(t) = (1/t) * integral of X_i over [0, t], trapezoidal, A(0) = X_i(0)."""
    v = x.values[:, i]
    dt = np.diff(x.times)
    cells = 0.5 * (v[:-1] + v[1:]) * dt
    cum = np.concatenate([[0.0], np.cumsum(cells)])
    out = np.empty_like(v)
    out[0] = v[0]
    out[1:] = cum[1:] / x.times[1:]
    return BVPath(x.times, out)


def running_max_path(x: SampledPath, i: int = 0) -> BVPath:
    """A(t) = max of X_i over [0, t] along the grid."""
    return BVPath(x.times, np.maximum.accumulate(x.values[:, i]))


def quadratic_variation_path(
    x: SampledPath, partition: PartitionSequence, level: int, i: int = 0
) -> BVPath:
    """A(t) = level-n quadratic variation path of X_i as an extra component."""
    return BVPath(x.times, qv_matrix(x, partition, level).entry_path(i, i))


# ---------------------------------------------------------------------------
# Combinators


def _merge_domains(a: Box | None, b: Box | None) -> Box | None:
    """The intersection: bounds are strict, so its mask is the and of both masks."""
    if a is None or b is None or a is b:
        return b if a is None else a
    return Box(tuple(map(max, a.lower, b.lower)), tuple(map(min, a.upper, b.upper)))


def product(F: Functional, G: Functional) -> Functional:
    """Pointwise product with derivatives pushed through the Leibniz rules."""
    if (F.d, F.m) != (G.d, G.m):
        raise ValueError("product needs matching (d, m)")

    def leibniz(get, slot, rows=np.s_[:, None]):
        # G F' + F G', with ``rows`` spreading each value over the slot's axes
        g, f_slot = get(1, "evaluate"), get(0, slot)
        f, g_slot = get(0, "evaluate"), get(1, slot)
        return g[rows] * f_slot + f[rows] * g_slot

    def vertical2(get):
        fv, gv = get(0, "vertical"), get(1, "vertical")
        out = leibniz(get, "vertical2", np.s_[:, None, None]) + fv[:, :, None] * gv[:, None, :]
        return out + gv[:, :, None] * fv[:, None, :]

    rules = {
        "evaluate": lambda get: get(0, "evaluate") * get(1, "evaluate"),
        "vertical": lambda get: leibniz(get, "vertical"),
        "vertical2": vertical2,
        "horizontal": lambda get: leibniz(get, "horizontal"),
    }
    domain = _merge_domains(F.x_domain, G.x_domain)
    return _combined(rules, F.d, F.m, domain, f"({F.name})*({G.name})", parts=(F, G))


def compose(outer: Functional, inners: Sequence[Functional]) -> Functional:
    """H(t, X, (A, B)) = outer(t, (inners)(., X, A), B), with the chain rules.

    The returned functional drives d path components and m + q extra
    components, where m is shared by the inner functionals and q belongs
    to the outer one; a caller passes (A, B) as one component path, split
    positionally.  Inner values outside the outer functional's domain
    raise DomainError naming the first such time.
    """
    inners = list(inners)
    k, q = len(inners), outer.m
    if not inners:
        raise ValueError("compose needs at least one inner functional")
    if outer.d != k:
        raise ValueError(f"outer functional drives {outer.d} components, got {k} inners")
    d, m = inners[0].d, inners[0].m
    if any((f.d, f.m) != (d, m) for f in inners):
        raise ValueError("inner functionals must share (d, m)")
    dom = None
    for f in inners:
        dom = _merge_domains(dom, f.x_domain)
    name = f"{outer.name}({', '.join(f.name for f in inners)})"

    def check(times, rows):
        bad = [] if outer.x_domain is None else np.flatnonzero(~outer.x_domain.contains(rows))
        if len(bad):
            t = float(times[bad[0]])
            raise DomainError(f"{name}: inner values at t={t!r} leave the domain of {outer.name}")

    def inner_path(x, a):
        # t -> (inners)(t, X, A), computed and memoised per requested time;
        # value(t) evaluates the inners at t itself, on the grid or off it.
        cache: dict[float, np.ndarray] = {}

        def value(t):
            key = float(t)
            vec = cache.get(key)
            if vec is None:
                vec = np.array([f.evaluate(key, x, a) for f in inners])
                check([key], vec[None, :])
                vec.setflags(write=False)
                cache[key] = vec
            return vec

        return SampledPath._make(
            times=x.times, d=k, interpolation=LINEAR, domain=outer.x_domain,
            value=value, _row=lambda i: value(x.times[i]),
            _build=lambda: np.array([value(t) for t in x.times]),
        )

    def point_args(t, x, ab):
        a = ab.slice_components(0, m) if m else None
        return [(inner_path(x, a), ab.slice_components(m, m + q) if q else None)] + [(x, a)] * k

    def state_args(t, X, AB):
        A = AB[:, :m]
        Y = np.stack([f._on_states["evaluate"](t, X, A) for f in inners], axis=1)
        check(t, Y)
        return [(Y, AB[:, m:])] + [(X, A)] * k

    def jacobian(get):  # (n, d, k): each row's inner gradients as columns
        return np.stack([get(i, "vertical") for i in range(1, k + 1)], axis=2)

    def vertical(get):
        return ordered_dot(jacobian(get), get(0, "vertical")[:, None, :])

    def vertical2(get):
        gout, g2, J = get(0, "vertical"), get(0, "vertical2"), jacobian(get)
        Jg2 = ordered_dot(J[:, :, None, :], g2.transpose(0, 2, 1)[:, None])
        out = ordered_dot(Jg2[:, :, None, :], J[:, None])
        for i in range(k):
            out = out + gout[:, i, None, None] * get(i + 1, "vertical2")
        return 0.5 * (out + out.transpose(0, 2, 1))

    def horizontal(get):
        gout, gh = get(0, "vertical"), get(0, "horizontal")
        out = np.zeros((gh.shape[0], m + q + 1))
        out[:, 0] = gh[:, 0]
        for i in range(k):
            fh = get(i + 1, "horizontal")
            out[:, 0] += gout[:, i] * fh[:, 0]
            out[:, 1 : m + 1] += gout[:, i, None] * fh[:, 1:]
        out[:, m + 1 :] = gh[:, 1:]
        return out

    rules = dict(evaluate=lambda get: get(0, "evaluate"), vertical=vertical, vertical2=vertical2,
                 horizontal=horizontal)
    return _combined(rules, d, m + q, dom, name, (outer, *inners), point_args, state_args)


# ---------------------------------------------------------------------------
# Regularity probes


@dataclass(frozen=True)
class ProbeSchedule:
    """Deterministic sampling plan for the regularity probes.

    ``h_values`` are decreasing fractions of the horizon: the left probe at
    scale h compares times t and t - h*T and perturbs the path by shifts of
    size h*tube_radius.  ``times`` defaults to a spread of grid times that
    keep t - h*T inside the domain for every scale.
    """

    times: tuple[float, ...] | None = None
    h_values: tuple[float, ...] = (0.1, 0.05, 0.02, 0.01, 0.005)
    tube_radius: float = 0.5
    n_perturbations: int = 8
    seed: int = 0
    abs_tol: float = 1e-8


@dataclass(frozen=True, eq=False)
class RegularityReport:
    """Sampled moduli; a probe can falsify regularity, never certify it."""

    h_values: np.ndarray
    left_moduli: np.ndarray
    fixed_time_moduli: np.ndarray
    bound_constant: float
    left_continuity_ok: bool
    continuity_ok: bool

    @property
    def ok(self) -> bool:
        return self.left_continuity_ok and self.continuity_ok


def _decayed(moduli: np.ndarray, abs_tol: float) -> bool:
    # Moduli are sampled at decreasing scales; regularity predicts decay.
    # Pass iff the finest modulus is small absolutely or clearly below the
    # coarsest one; a jump functional stays flat and fails.
    return bool(moduli[-1] <= max(abs_tol, 0.5 * moduli[0]))


def probe_regularity(
    F: Functional, x: SampledPath, a: BVPath | None = None, schedule: ProbeSchedule | None = None
) -> RegularityReport:
    """Sample left-continuity, fixed-time continuity and boundedness moduli.

    Left-continuity compares F(t, X, A) against F(t - h, Y, A) for paths Y
    that stay sup-close to X; fixed-time continuity perturbs the path and
    keeps t; boundedness records the largest |F| seen on a tube of radius
    ``tube_radius`` around X.  Evaluation failures inside the tube (for
    instance a domain violation) count as an infinite modulus rather than
    an exception.
    """
    sched = schedule or ProbeSchedule()
    hs = np.asarray(sched.h_values, dtype=np.float64)
    if hs.ndim != 1 or hs.shape[0] < 2 or not np.all(np.diff(hs) < 0):
        raise ValueError("h_values must be a decreasing sequence of at least two scales")
    T = x.horizon
    if sched.times is None:
        lo = float(hs[0]) * T
        candidates = x.times[(x.times >= lo) & (x.times > 0.0)]
        if candidates.shape[0] == 0:
            raise ValueError("no grid times clear the coarsest probe scale")
        idx = np.unique(np.linspace(0, candidates.shape[0] - 1, 12).astype(int))
        times = candidates[idx]
    else:
        times = np.asarray(sched.times, dtype=np.float64)
    rng = np.random.default_rng(sched.seed)
    shifts = rng.uniform(-1.0, 1.0, size=(sched.n_perturbations, x.d))

    def _shifted(delta_row):
        vals = x.values + delta_row[None, :]
        return SampledPath._trusted(x.times, vals, x.interpolation, x.domain)

    def _safe(f, *args):
        try:
            return f(*args)
        except (DomainError, GridError, ValueError, FloatingPointError, ZeroDivisionError):
            return np.inf

    left = np.zeros_like(hs)
    fixed = np.zeros_like(hs)
    bound = 0.0
    for t in times:
        base = _safe(F.evaluate, float(t), x, a)
        for k, h in enumerate(hs):
            t_prev = max(float(t) - h * T, 0.0)
            for row in shifts:
                y = _shifted(row * (h * sched.tube_radius))
                left[k] = max(left[k], abs(base - _safe(F.evaluate, t_prev, y, a)))
                fixed[k] = max(fixed[k], abs(base - _safe(F.evaluate, float(t), y, a)))
        for row in shifts:
            y = _shifted(row * sched.tube_radius)
            bound = max(bound, abs(_safe(F.evaluate, float(t), y, a)))
    return RegularityReport(
        h_values=hs,
        left_moduli=left,
        fixed_time_moduli=fixed,
        bound_constant=float(bound),
        left_continuity_ok=_decayed(left, sched.abs_tol),
        continuity_ok=_decayed(fixed, sched.abs_tol),
    )


__all__ = [
    "Functional",
    "ProbeSchedule",
    "RegularityReport",
    "bv_coordinate",
    "compose",
    "constant_functional",
    "coordinate",
    "cylinder",
    "fd_horizontal",
    "fd_vertical",
    "fd_vertical2",
    "probe_regularity",
    "product",
    "quadratic_variation_path",
    "running_max_path",
    "time_average_path",
]
