"""Named scenarios with closed-form reference data and the staged pipeline.

A scenario bundles a domain, a function, a ball around a base point, and the
reference answers known in closed form (envelope values, reachable-gradient
sets, propagation directions); built-in (``SCENARIOS``) or custom, it is read
from one spec format by ``scenario_from_spec``.  Stage functions run one step
each of the workflow -- certify, support, extend, gradients, condition,
trace, mollify, glue -- against a shared ``StageContext``.

Stage contract: a stage returns ``(metrics, artifacts)``.  ``metrics`` is a
plain dict with a ``passed`` verdict, so the CLI and the test suite compute
identical numbers; ``artifacts`` maps each file the stage writes, in order,
to a JSON payload or to a writer that takes the file path.  A stage that
raises has no artifacts.  Objects several stages read (the modulus, the
support set, the envelope, the gradient sets, condition (H)) are cached
properties of the context, built on first use.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConfigError, InputError
from .extension import (
    ExtensionField,
    MollifiedApproximant,
    SupportSet,
    build_extension,
    build_support_set,
    glue_global,
)
from .funcspace import FunctionSpec, named_function
from .geometry import (
    BallRegion,
    DomainSpec,
    _ball_lattice,
    box,
    capped_disk,
    closure_grid,
    disk,
    half_space,
)
from .gradients import DEFAULT_EPS_S, ReachableGradientSet, _distances, reachable_gradients
from .semiconcavity import ModulusParams, certify, estimate_constant
from .singularity import (
    check_condition_h,
    propagation_directions,
    select_p0,
    trace_singular_arc,
)

# -- closed-form reference envelopes ----------------------------------------


def _env_half_disk(pts: np.ndarray, inside: Callable, alpha: float, c: float) -> np.ndarray:
    """Extension across {x1 = 0} with coefficient c: inside values for x1 >= 0,
    else -|x2| + c|x1|^(1+alpha)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    left = -np.abs(pts[:, 1]) + c * np.abs(pts[:, 0]) ** (1.0 + alpha)
    return np.where(pts[:, 0] < 0.0, left, inside(pts))


def envelope_neg_norm(pts, alpha: float, c: float) -> np.ndarray:
    return _env_half_disk(pts, lambda q: -np.linalg.norm(q, axis=1), alpha, c)


def envelope_neg_abs_x2(pts, alpha: float, c: float) -> np.ndarray:
    return _env_half_disk(pts, lambda q: -np.abs(q[:, 1]), alpha, c)


def envelope_neg_sqrt(pts, alpha: float, c: float) -> np.ndarray:
    return _env_half_disk(pts, lambda q: -np.sqrt(q[:, 0] ** 4 + q[:, 1] ** 2), alpha, c)


# -- closed-form reference gradient sets -------------------------------------


def _dist_left_arc(pts: np.ndarray) -> np.ndarray:
    """Distance to {|p| = 1, p1 <= 0}."""
    pts = np.atleast_2d(pts)
    d_arc = np.abs(np.linalg.norm(pts, axis=1) - 1.0)
    return np.where(pts[:, 0] <= 0.0, d_arc, _dist_vertical_pair(pts))


def _pts_left_arc(n: int) -> np.ndarray:
    t = np.linspace(0.5 * math.pi, 1.5 * math.pi, n)
    return np.column_stack([np.cos(t), np.sin(t)])


def _dist_vertical_pair(pts: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(pts)
    return np.minimum(
        np.linalg.norm(pts - np.array([0.0, 1.0]), axis=1),
        np.linalg.norm(pts - np.array([0.0, -1.0]), axis=1),
    )


def _pts_vertical_pair(n: int) -> np.ndarray:
    return np.array([[0.0, 1.0], [0.0, -1.0]])


def _dist_vertical_segment(pts: np.ndarray) -> np.ndarray:
    """Distance to {0} x [-1, 1]."""
    pts = np.atleast_2d(pts)
    over = np.clip(np.abs(pts[:, 1]) - 1.0, 0.0, None)
    return np.hypot(pts[:, 0], over)


def _pts_vertical_segment(n: int) -> np.ndarray:
    return np.column_stack([np.zeros(n), np.linspace(-1.0, 1.0, n)])


REFERENCE_SETS: dict[str, tuple[Callable, Callable]] = {
    "left-unit-arc": (_dist_left_arc, _pts_left_arc),
    "vertical-unit-pair": (_dist_vertical_pair, _pts_vertical_pair),
    "vertical-unit-segment": (_dist_vertical_segment, _pts_vertical_segment),
}


def hausdorff_to_reference(kind: str, reps: np.ndarray) -> float:
    """Symmetric Hausdorff distance between representatives and a named set."""
    if kind not in REFERENCE_SETS:
        raise InputError(f"unknown reference set {kind!r}; known: {sorted(REFERENCE_SETS)}")
    dist_fn, pts_fn = REFERENCE_SETS[kind]
    reps = np.atleast_2d(np.asarray(reps, dtype=float))
    if reps.shape[0] == 0:
        return math.inf
    forward = float(np.max(dist_fn(reps)))
    gap = _distances(pts_fn(2048), reps).min(axis=1)
    return max(forward, float(np.max(gap)))


# -- scenario definitions -----------------------------------------------------


@dataclass(eq=False)
class Scenario:
    """A named setup plus whatever reference data exists for it."""

    name: str
    domain: DomainSpec
    func: FunctionSpec
    ball: BallRegion
    default_C: float | None = None  # None: estimate and round up
    support_spacing: float | None = None  # absolute; None = 0.01 * delta
    reference_envelope: Callable | None = None
    reference_set: str | None = None
    expected_condition: bool | None = None
    expected_thetas: list | None = None  # rows of floats, one per direction
    fallback_thetas: list | None = None  # traced when the condition fails
    cover: list[BallRegion] | None = None  # the glue stage's cover balls
    default_stages: tuple[str, ...] = ("certify", "support", "extend")

    @property
    def x0(self) -> np.ndarray:
        return self.ball.center

    @property
    def delta(self) -> float:
        return self.ball.radius


# The part the paper's three worked examples share: u on the half disk
# {x1 > 0, |x| < 1}, extended across {x1 = 0} on the unit ball around 0.
_WORKED_EXAMPLE = {
    "domain": {"kind": "capped-disk", "center": [0.0, 0.0], "radius": 1.0,
               "normal": [1.0, 0.0], "offset": 0.0},
    "ball": {"center": [0.0, 0.0], "radius": 1.0},
    "default_stages": ("certify", "support", "extend", "gradients", "condition",
                       "trace", "mollify"),
}

# The built-in scenarios: domain, function and ball in a custom config's
# format, and any other key sets the Scenario field of its name.
SCENARIOS: dict[str, dict] = {
    "example1": {
        **_WORKED_EXAMPLE, "function": {"identifier": "neg-norm"}, "support_spacing": 0.01,
        "reference_envelope": envelope_neg_norm, "reference_set": "left-unit-arc",
        "expected_condition": True, "expected_thetas": [[-1.0, 0.0]],
    },
    "example2": {
        **_WORKED_EXAMPLE, "function": {"identifier": "neg-abs-x2"}, "support_spacing": 0.02,
        "reference_envelope": envelope_neg_abs_x2, "reference_set": "vertical-unit-pair",
        "expected_condition": True, "expected_thetas": [[1.0, 0.0], [-1.0, 0.0]],
    },
    # The flat face of the gradient set is filled in, so the hull adds no new
    # point; the singularity still continues along -e1 and the tracer is sent
    # that way explicitly.
    "example3": {
        **_WORKED_EXAMPLE, "function": {"identifier": "neg-sqrt-x1p4-x2sq"},
        "support_spacing": 0.02, "reference_envelope": envelope_neg_sqrt,
        "reference_set": "vertical-unit-segment", "expected_condition": False,
        "fallback_thetas": [[-1.0, 0.0]],
    },
    # Full-disk domain: the closure covers the evaluation ball, so every
    # pipeline stage must reproduce the affine function to rounding error.
    # The small C floor keeps fp noise in the affine identity from turning
    # into certificate witnesses.  The one cover ball contains the closure,
    # so the glued field must equal the local one on its whole ball and u on
    # the closure.
    "affine-sanity": {
        "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0},
        "function": {"identifier": "affine", "params": {"p": [0.3, -0.7], "b": 0.1}},
        "ball": {"center": [0.0, 0.0], "radius": 1.0},
        "default_C": 0.01, "support_spacing": 0.02,
        "cover": [{"center": [0.0, 0.0], "radius": 1.2}],
        "default_stages": ("certify", "support", "extend", "mollify", "glue"),
    },
    # x(1-x) attains C = -1 with equality on every triple, so the rounded
    # estimate leaves no margin for fp noise; pin the constant one notch up.
    "glue-1d": {
        "domain": {"kind": "box", "center": [0.5], "half_widths": [0.5]},
        "function": {"identifier": "quadratic", "params": {"a": -1.0, "b": [1.0], "c": 0.0}},
        "ball": {"center": [0.5], "radius": 0.5},
        "default_C": -0.99,
        "cover": [{"center": [0.0], "radius": 0.3}, {"center": [1.0], "radius": 0.3}],
        "default_stages": ("certify", "glue"),
    },
}

SCENARIO_NAMES = tuple(sorted(SCENARIOS))

_DOMAIN_KINDS = {"disk": disk, "box": box, "half-space": half_space, "capped-disk": capped_disk}


def scenario_from_spec(name: str, spec: dict) -> Scenario:
    """The scenario a spec describes.  ``domain`` holds a ``kind`` and the
    arguments of that kind's constructor, ``function`` an ``identifier`` and
    optional ``params`` (``named_function``'s own keywords, so any other key
    is an error), ``ball`` a ``center`` and a ``radius``; ``cover``
    lists balls in the ball format, and any other key sets the Scenario field
    of its name.  A malformed spec raises ConfigError."""
    try:
        fields = dict(spec)
        domain_args = dict(fields.pop("domain"))
        kind = domain_args.pop("kind")
        if kind not in _DOMAIN_KINDS:
            raise InputError(f"unknown domain kind {kind!r}; known: {sorted(_DOMAIN_KINDS)}")
        domain = _DOMAIN_KINDS[kind](**domain_args)
        fn = fields.pop("function")
        func = named_function(dimension=domain.dimension, domain=domain, **fn)
        ball = BallRegion(**fields.pop("ball"))
        if ball.dimension != domain.dimension:
            raise InputError(f"a {ball.dimension}D ball on a {domain.dimension}D domain")
        if "cover" in fields:
            fields["cover"] = [BallRegion(**b) for b in fields["cover"]]
        return Scenario(name, domain, func, ball, **fields)
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"bad {name} scenario spec: {type(err).__name__}: {err}") from err


def build_scenario(name: str) -> Scenario:
    if name not in SCENARIOS:
        raise InputError(f"unknown scenario {name!r}; known: {list(SCENARIO_NAMES)}")
    return scenario_from_spec(name, SCENARIOS[name])


# -- knobs --------------------------------------------------------------------


def default_knobs(scenario: Scenario) -> dict:
    """The values that callers set, at this scenario's defaults; every other
    numerical parameter is a constant of the function that uses it."""
    delta = scenario.delta
    return {
        "alpha": 1.0,
        "C": scenario.default_C,  # None: estimate and round up to 2 decimals
        "seed": 7,
        "triples": 10_000,
        "spacing": scenario.support_spacing,
        "sweep_spacing": 0.02 * delta,
        "h_list": (10, 20, 40),
        "mollify_spacing": 0.05 * delta,
        "mollify_triples": 400,
    }


def _real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _finite(value) -> bool:
    return _real(value) and math.isfinite(value)


# test of each knob's value; C and spacing may also be None (the default)
_KNOB_TYPES = {
    "alpha": _finite, "C": _finite, "seed": lambda v: _int(v) and v >= 0,
    "triples": _int, "spacing": _finite, "sweep_spacing": _finite,
    "mollify_spacing": _finite, "mollify_triples": _int,
    "h_list": lambda v: isinstance(v, (list, tuple)) and len(v) > 0 and all(map(_int, v)),
}


def resolve_knobs(scenario: Scenario, overrides: dict) -> dict:
    """The scenario's knobs with the caller's overrides.  An unknown knob, a
    value of the wrong type, a real that is not finite or a negative seed
    raises ConfigError; the stages check the other ranges."""
    knobs = default_knobs(scenario)
    for key, value in overrides.items():
        if key not in knobs:
            raise ConfigError(f"unknown knob {key!r}; known: {sorted(knobs)}")
        if not (_KNOB_TYPES[key](value) or value is None and key in ("C", "spacing")):
            raise ConfigError(f"knob {key!r} has the wrong type or value: {value!r}")
        if value is not None:
            knobs[key] = value
    return knobs


# -- shared objects -------------------------------------------------------------


def _round_up_2(value: float) -> float:
    # the 1e-6 guard absorbs estimator fp noise so 0 stays 0
    return math.ceil(value * 100.0 - 1e-6) / 100.0


@dataclass(eq=False)
class StageContext:
    """One run's scenario, resolved knobs and grid format.  The objects that
    several stages read are built on first use and cached, so any stage list
    builds each of them at most once."""

    scenario: Scenario
    knobs: dict
    fmt: str = "csv"

    @cached_property
    def estimated_C(self) -> float:
        sc, kn = self.scenario, self.knobs
        return estimate_constant(
            sc.func, sc.domain, sc.ball, kn["alpha"], kn["triples"], kn["seed"]
        )

    @cached_property
    def params(self) -> ModulusParams:
        C = self.knobs["C"]
        if C is None:
            C = _round_up_2(self.estimated_C)
        return ModulusParams(alpha=self.knobs["alpha"], C=C)

    @cached_property
    def support(self) -> SupportSet:
        sc = self.scenario
        return build_support_set(sc.func, sc.domain, sc.ball, spacing=self.knobs["spacing"])

    @cached_property
    def field(self) -> ExtensionField:
        sc = self.scenario
        return build_extension(sc.func, sc.domain, self.support, self.params)

    def _reachable(self, func, domain: DomainSpec) -> ReachableGradientSet:
        sc = self.scenario
        return reachable_gradients(func, domain, sc.x0, r0=0.02 * sc.delta)

    @cached_property
    def rset_u(self) -> ReachableGradientSet:
        return self._reachable(self.scenario.func, self.scenario.domain)

    @cached_property
    def rset_env(self) -> ReachableGradientSet:
        return self._reachable(self.field, self.field.evaluation_domain)

    @cached_property
    def condition(self) -> dict:
        """Condition (H) at x0: whether it holds, the candidate count, the
        selected p0, and the directions to trace -- the scenario's fallback
        directions when (H) fails, None when there are none."""
        rset = self.rset_u
        # hull boundary sampled at 0.01; a gap lies over eps_s from all representatives
        holds, candidates = check_condition_h(rset, 0.01, DEFAULT_EPS_S)
        p0 = thetas = None
        if holds:
            p0 = select_p0(rset, candidates)
            thetas = propagation_directions(rset, p0)
        elif self.scenario.fallback_thetas is not None:
            thetas = np.atleast_2d(self.scenario.fallback_thetas)
        return {
            "holds": holds,
            "n_candidates": int(candidates.shape[0]),
            "p0": p0,
            "thetas": thetas,
        }


# -- artifact writers -------------------------------------------------------------

GRID_FORMATS = ("csv", "json")


def _json_default(value):
    """Encoder hook for the numpy values the encoder cannot write itself (a
    numpy float64 is a float, so it never gets here)."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def write_json(path: Path, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
    path.write_text(text + "\n")


# pairs rendered per write of ``write_pairs_json``
_PAIR_BLOCK = 2048


def _spellings(col: np.ndarray, spell: Callable, after: str) -> tuple[np.ndarray, np.ndarray]:
    """The text of each entry of the float column ``col`` followed by
    ``after``, each distinct bit pattern spelled once by ``spell`` (a list of
    floats to a list of strings): the distinct texts and each entry's index
    into them.  0.0 and -0.0 stay apart, as do NaN payloads.  Found by a
    sort: 1-D np.unique imports numpy.ma."""
    bits = np.ascontiguousarray(col, dtype=float).view(np.int64)
    order = np.argsort(bits)
    first = np.r_[True, bits[order[1:]] != bits[order[:-1]]]
    index = np.empty(bits.size, dtype=np.intp)
    index[order] = np.cumsum(first) - 1
    words = spell(bits[order[first]].view(float).tolist())
    return np.array([w + after for w in words], dtype=object), index


def write_pairs_json(path: Path, header: dict, support: SupportSet) -> None:
    """Write what ``write_json`` writes for ``header`` with the pairs of
    ``support.to_dict()`` in place of its one empty ``"pairs"`` list, byte
    for byte, a block of pairs at a time and without building their dicts.

    A pair's layout, from ``json.dumps``, is cut at its slots p, source, u
    and y; each slot's text carries the layout up to the next slot.  Each
    float column is spelled once per distinct value for the whole file
    (``_spellings``) by the C encoder (no indent), which spells a float as
    the indenting encoder does, ``NaN`` and ``Infinity`` included; a
    block's text joins the slots' texts pair by pair."""
    head, tail = json.dumps(header, indent=2, sort_keys=True).split('"pairs": []')
    indent = "\n" + head[head.rindex("\n") + 1:] + "  "  # a pair's own indent
    d = support.points.shape[1]
    slots = {"p": ["%s"] * d, "source": "%s", "u": "%s", "y": ["%s"] * d}
    layout = json.dumps(slots, indent=2, sort_keys=True).replace('"%s"', "%s")
    lead, *after = ("," + indent + layout.replace("\n", indent)).split("%s")

    def spell(values):
        return json.dumps(values)[1:-1].split(", ")

    columns = [*support.gradients.T, support.values, *support.points.T]
    floats = [_spellings(col, spell, a) for col, a in zip(columns, after[:d] + after[d + 1:])]
    spelled = {s: json.dumps(s) + after[d] for s in set(support.sources)}
    with open(path, "w") as fh:
        fh.write(head + '"pairs": [')
        for start in range(0, support.size, _PAIR_BLOCK):
            block = slice(start, start + _PAIR_BLOCK)
            cols = [words[index[block]] for words, index in floats]
            cols.insert(d, [spelled[s] for s in support.sources[block]])
            text = "".join(chain.from_iterable(zip(repeat(lead), *cols)))
            fh.write(text[1:] if start == 0 else text)  # no comma before the first
        fh.write(indent[:-2] + "]" + tail + "\n")


def emit_grid(field, region: BallRegion, spacing: float, fmt: str, path, values=None) -> Path:
    """One row per lattice node of the region: coordinates then value,
    rows in lexicographic node order.  ``values``, when given, are the
    field's values at those nodes (``_ball_lattice(region, spacing)``), which
    the caller has already computed."""
    if fmt not in GRID_FORMATS:
        raise InputError(f"unknown grid format {fmt!r}; expected one of {GRID_FORMATS}")
    nodes = _ball_lattice(region, spacing)
    if values is None:
        values = field.evaluate_many(nodes)
    values = np.asarray(values, dtype=float)
    names = [f"x{j + 1}" for j in range(nodes.shape[1])]
    path = Path(path)
    if fmt == "csv":
        # each distinct value of a column spelled once with %.17g
        seps = [","] * nodes.shape[1] + ["\n"]
        cols = [words[index] for words, index in (
            _spellings(col, lambda v: ["%.17g" % x for x in v], sep)
            for col, sep in zip([*nodes.T, values], seps))]
        path.write_text(",".join(names + ["value"]) + "\n" + "".join(chain.from_iterable(zip(*cols))))
    else:
        rows = np.column_stack([nodes, values])
        write_json(
            path,
            {"columns": names + ["value"], "spacing": spacing, "rows": rows.tolist()},
        )
    return path


# -- stages --------------------------------------------------------------------


def stage_certify(ctx: StageContext) -> tuple[dict, dict]:
    sc, kn, params = ctx.scenario, ctx.knobs, ctx.params
    cert = certify(sc.func, sc.domain, sc.ball, params, kn["triples"], kn["seed"] + 1)
    metrics = {
        "estimated_C": ctx.estimated_C,
        "C": params.C,
        "alpha": params.alpha,
        "max_defect": cert.max_defect,
        "n_witnesses": len(cert.witnesses),
        "n_triples": cert.n_triples,
        "passed": cert.passed,
    }
    return metrics, {"certify.json": cert.to_dict()}


def stage_support(ctx: StageContext) -> tuple[dict, dict]:
    support = ctx.support
    sources = [str(s) for s in support.sources]
    metrics = {
        "n_pairs": support.size,
        "n_nodes": int(support.node_points().shape[0]),
        "n_smooth": sources.count("smooth"),
        "n_reachable": sources.count("reachable"),
        "spacing": support.spacing,
        "passed": support.size > 0,
    }

    def write_support(path):
        write_pairs_json(path, support.header(), support)

    return metrics, {"support.json": write_support}


def stage_extend(ctx: StageContext) -> tuple[dict, dict]:
    sc, kn, field = ctx.scenario, ctx.knobs, ctx.field
    nodes = field.support.node_points()
    u_nodes = sc.func.evaluate_many(nodes)
    identity_max = float(np.max(np.abs(field.evaluate_many(nodes) - u_nodes)))
    raw_identity_max = float(np.max(np.abs(field.node_envelope() - u_nodes)))
    metrics = {
        "coefficient": field.coefficient,
        "constant": field.constant,
        "n_pruned": field.n_pruned,
        "identity_max": identity_max,
        "raw_identity_max": raw_identity_max,
    }
    sweep = None  # the field on the grid's lattice, when the stage computes it
    if sc.reference_envelope is not None:
        pts = _ball_lattice(sc.ball, kn["sweep_spacing"])
        ref = sc.reference_envelope(pts, field.params.alpha, field.coefficient)
        sweep = field.evaluate_many(pts)
        err = np.abs(sweep - ref)
        metrics["sup_error"] = float(np.max(err))
        metrics["n_sweep"] = int(pts.shape[0])
        metrics["passed"] = metrics["sup_error"] <= 0.02
    else:
        # identity_max is 0 by construction (the field returns u on the data
        # region), so only the raw envelope can show a pair undercutting u
        metrics["passed"] = raw_identity_max <= 1e-9

    def write_field(path):
        write_pairs_json(path, field.header(), field.support)

    def write_grid(path):
        emit_grid(field, sc.ball, kn["sweep_spacing"], ctx.fmt, path, values=sweep)

    return metrics, {"field.json": write_field, f"field_grid.{ctx.fmt}": write_grid}


def stage_gradients(ctx: StageContext) -> tuple[dict, dict]:
    sc, rset_u, rset_env = ctx.scenario, ctx.rset_u, ctx.rset_env
    metrics = {
        "n_reps_u": int(rset_u.representatives.shape[0]),
        "n_reps_envelope": int(rset_env.representatives.shape[0]),
        "diameter_u": rset_u.diameter(),
        "diameter_envelope": rset_env.diameter(),
    }
    if sc.reference_set is not None:
        metrics["hausdorff_u"] = hausdorff_to_reference(
            sc.reference_set, rset_u.representatives
        )
        metrics["hausdorff_envelope"] = hausdorff_to_reference(
            sc.reference_set, rset_env.representatives
        )
        metrics["passed"] = (
            metrics["hausdorff_u"] <= 0.05 and metrics["hausdorff_envelope"] <= 0.05
        )
    else:
        metrics["passed"] = True
    payload = {"function": rset_u.to_dict(), "envelope": rset_env.to_dict()}
    return metrics, {"gradients.json": payload}


def _angle_deg(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    cosv = float(np.dot(a, b) / (na * nb))
    return math.degrees(math.acos(max(-1.0, min(1.0, cosv))))


def stage_condition(ctx: StageContext) -> tuple[dict, dict]:
    sc, cond = ctx.scenario, ctx.condition
    holds, p0, thetas = cond["holds"], cond["p0"], cond["thetas"]
    record: dict = {"holds": holds, "n_candidates": cond["n_candidates"]}
    if holds:
        record["p0"] = p0.tolist()
    if thetas is not None:
        record["thetas"] = thetas.tolist()
        if not holds:
            record["fallback"] = True
    passed = True
    if sc.expected_condition is not None:
        passed = holds == sc.expected_condition
    if passed and sc.expected_thetas is not None and holds:
        for want in np.atleast_2d(sc.expected_thetas):
            best = min(_angle_deg(want, got) for got in thetas)
            record[f"angle_to_{want.tolist()}"] = best
            passed = passed and best <= 5.0
    record["passed"] = passed
    return record, {"condition.json": {"holds": holds, "p0": p0, "thetas": thetas}}


def stage_trace(ctx: StageContext) -> tuple[dict, dict]:
    sc, field, cond = ctx.scenario, ctx.field, ctx.condition
    thetas = cond["thetas"]
    if thetas is None:
        metrics = {"n_arcs": 0, "passed": False, "note": "no direction to trace"}
        return metrics, {"arcs.json": []}
    arcs = []
    records = []
    all_ok = True
    for theta in np.atleast_2d(thetas):
        arc = trace_singular_arc(
            field, sc.x0, theta,
            delta_s=0.02 * sc.delta, sigma=0.4 * sc.delta, p0=cond["p0"],
        )
        arcs.append(arc)
        drift = float(np.max(np.abs(arc.points - sc.x0 - arc.s[:, None] * arc.theta)))
        ok = arc.validated and not arc.lost
        all_ok = all_ok and ok
        records.append(
            {
                "theta": arc.theta.tolist(),
                "n_steps": int(arc.s.size),
                "validated": arc.validated,
                "lost": arc.lost,
                "max_drift": drift,
                "min_indicator": float(np.min(arc.indicators[1:]))
                if arc.s.size > 1
                else None,
            }
        )
    metrics = {"n_arcs": len(arcs), "arcs": records, "passed": all_ok and len(arcs) > 0}
    return metrics, {"arcs.json": [arc.to_dict() for arc in arcs]}


def stage_mollify(ctx: StageContext) -> tuple[dict, dict]:
    sc, kn, field, params = ctx.scenario, ctx.knobs, ctx.field, ctx.params
    half = BallRegion(sc.ball.center, 0.5 * sc.ball.radius)
    probes = _ball_lattice(half, kn["mollify_spacing"])
    field_vals = field.evaluate_many(probes)
    bound = field.constant
    entries = []
    passed = True
    sups = []
    for h in kn["h_list"]:
        approx = MollifiedApproximant(field, int(h))
        sup = float(np.max(np.abs(approx.evaluate_many(probes) - field_vals)))
        sups.append(sup)
        cert = certify(
            approx,
            approx.evaluation_domain,
            half,
            ModulusParams(alpha=params.alpha, C=bound + 0.05),
            kn["mollify_triples"],
            kn["seed"] + 2,
        )
        entry = {
            "h": int(h),
            "sup_error": sup,
            "bound": 2.0 / h,  # Lipschitz bound 2 over h
            "certified": cert.passed,
            "max_defect": cert.max_defect,
        }
        passed = passed and sup <= entry["bound"] and cert.passed
        entries.append(entry)
    ratios = []
    for lo, hi in zip(sups[:-1], sups[1:]):
        # successive h double in the default list; require real decay, but
        # only above the noise floor (exact reproduction leaves quotients of
        # rounding error that carry no decay information)
        ratios.append(hi / lo if lo > 1e-12 else 0.0)
    passed = passed and all(r <= 0.6 for r in ratios)
    metrics = {
        "h_list": [int(h) for h in kn["h_list"]],
        "entries": entries,
        "ratios": ratios,
        "constant_bound": bound,
        "passed": passed,
    }
    return metrics, {}


def stage_glue(ctx: StageContext) -> tuple[dict, dict]:
    sc = ctx.scenario
    cover = sc.cover
    if cover is None:
        raise InputError(f"scenario {sc.name!r} does not define a glue setup")
    params = ctx.params
    fields = []
    for ball_j in cover:
        support_j = build_support_set(sc.func, sc.domain, ball_j)
        fields.append(build_extension(sc.func, sc.domain, support_j, params))
    glued = glue_global(sc.domain, cover, fields, func=sc.func)
    hub = _domain_hub(sc.domain)
    probes = closure_grid(sc.domain, hub, 0.01 * hub.radius * 2)
    sup_u = float(np.max(np.abs(glued.evaluate_many(probes) - sc.func.evaluate_many(probes))))
    metrics = {
        "n_cover": len(cover),
        "n_probes": int(probes.shape[0]),
        "sup_error_u": sup_u,
    }
    passed = sup_u <= 1e-9
    if len(cover) == 1:
        # one cover ball: the domain's weight vanishes off the closure, where
        # the field is u, so the glued field is the local field on the ball
        inner = BallRegion(cover[0].center, 0.95 * cover[0].radius)
        pts = _ball_lattice(inner, 0.05 * inner.radius)
        sup_f = float(
            np.max(np.abs(glued.evaluate_many(pts) - fields[0].evaluate_many(pts)))
        )
        metrics["sup_error_field"] = sup_f
        passed = passed and sup_f <= 1e-9
    metrics["passed"] = passed
    payload = {
        "n_cover": len(glued.cover),
        "cover": [{"center": b.center, "radius": b.radius} for b in glued.cover],
    }
    return metrics, {"glue.json": payload}


def _domain_hub(domain: DomainSpec) -> BallRegion:
    """A ball containing the domain closure, for probe lattices."""
    if domain.kind in ("disk", "capped-disk"):
        return BallRegion(domain.center, domain.radius)
    if domain.kind == "box":
        return BallRegion(domain.center, float(np.linalg.norm(domain.half_widths)))
    raise InputError("half-space domains have no bounding ball")


STAGES: dict[str, Callable[[StageContext], tuple[dict, dict]]] = {
    "certify": stage_certify,
    "support": stage_support,
    "extend": stage_extend,
    "gradients": stage_gradients,
    "condition": stage_condition,
    "trace": stage_trace,
    "mollify": stage_mollify,
    "glue": stage_glue,
}

STAGE_ORDER = tuple(STAGES)
