"""The round loop's exact rule and the lockstep tracer against the
one-line-at-a-time code they replaced, bit for bit.

The reference below is the strict greedy seeder of paper section 3.2
(pick the neediest element, seed one random point in it, trace one
line, decrement the needs of the elements it visits) on the scalar
RK4 tracer, kept verbatim.  The default ``seed_density_proportional``
speculates on the top ``_SPECULATION`` elements per round and commits
the prefix greedy would have picked; whatever that constant is, every
line's points, tangents, magnitudes, termination and order, and the
per-element ``desired`` and ``achieved`` counts, must be byte-equal to
the reference.  ``integrate_streamline`` (a two-line fleet of the
lockstep kernel) must be byte-equal to the scalar tracer.
"""

import copy

import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro.fieldlines import seeding
from repro.fieldlines.integrate import FieldLine, integrate_streamline
from repro.fieldlines.seeding import seed_density_proportional
from repro.fields.geometry import make_multicell_structure
from repro.fields.mesh import StructuredHexMesh, _shape_functions_batch
from repro.fields.sampling import AnalyticSampler, YeeSampler
from repro.fields.solver import TimeDomainSolver

from .test_batched_ordering import DipoleField
from .test_integrate import _CircularField, _DecayingField, _UniformField


# -- the reference: scalar tracer and greedy loop, verbatim -------------
def _unit_direction(field_fn, pts, floor):
    v = field_fn(pts)
    mag = np.linalg.norm(v, axis=1)
    safe = np.where(mag < floor, 1.0, mag)
    return v / safe[:, None], mag


def _rk4_direction(field_fn, pts, h, floor):
    k1, _ = _unit_direction(field_fn, pts, floor)
    k2, _ = _unit_direction(field_fn, pts + 0.5 * h * k1, floor)
    k3, _ = _unit_direction(field_fn, pts + 0.5 * h * k2, floor)
    k4, _ = _unit_direction(field_fn, pts + h * k3, floor)
    return (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


def _integrate_streamline(
    field_fn, seed, step, max_steps, min_magnitude, bidirectional, loop_tolerance
) -> FieldLine:
    seed = np.asarray(seed, dtype=np.float64).reshape(1, 3)
    halves = []
    term = "cap"
    directions = (+1.0, -1.0) if bidirectional else (+1.0,)
    for sign in directions:
        pts = [seed[0].copy()]
        p = seed.copy()
        this_term = "cap"
        for istep in range(max_steps):
            d = _rk4_direction(field_fn, p, sign * step, min_magnitude)
            p_new = p + sign * step * d
            _, mag = _unit_direction(field_fn, p_new, min_magnitude)
            if not field_fn.inside(p_new)[0]:
                this_term = "domain"
                break
            if mag[0] < min_magnitude:
                this_term = "weak"
                break
            pts.append(p_new[0].copy())
            p = p_new
            if (
                loop_tolerance is not None
                and istep > 10
                and np.linalg.norm(p_new[0] - seed[0]) < loop_tolerance
            ):
                this_term = "loop"
                break
        halves.append(np.array(pts))
        if this_term != "cap":
            term = this_term
        if this_term == "loop":
            break  # a closed line needs no backward half

    if len(halves) == 2:
        points = np.vstack([halves[1][::-1], halves[0][1:]])
    else:
        points = halves[0]
    if len(points) == 1:
        points = np.vstack([points, points])  # degenerate stub
    return _finalize(field_fn, points, term, min_magnitude)


def _finalize(field_fn, points: np.ndarray, term: str, floor: float) -> FieldLine:
    v = field_fn(points)
    mags = np.linalg.norm(v, axis=1)
    tangents = np.gradient(points, axis=0)
    norms = np.linalg.norm(tangents, axis=1, keepdims=True)
    tangents = tangents / np.where(norms < 1e-12, 1.0, norms)
    return FieldLine(points=points, tangents=tangents, magnitudes=mags, termination=term)


def _random_point_in_element(mesh, element, rng):
    corners = mesh.vertices[mesh.hexes[np.array([element])]]
    w = _shape_functions_batch(rng.random((1, 3)))
    return np.matmul(w[:, None, :], corners)[:, 0, :][0]


def _greedy_seed(
    mesh, field_fn, total_lines, field_name="E", max_steps=300,
    min_magnitude_fraction=1e-3, loop_tolerance=None, rng=None,
):
    intensity = mesh.element_field_intensity(field_name)
    weight = intensity * mesh.element_volumes()
    desired = weight * (total_lines / weight.sum())
    remaining = desired.copy()
    achieved = np.zeros_like(desired)
    tree = cKDTree(mesh.element_centers())

    vols = mesh.element_volumes()
    step = 0.5 * float(np.cbrt(vols.mean()))
    peak = float(mesh.element_field_intensity(field_name).max())
    floor = peak * min_magnitude_fraction

    lines = []
    for i in range(int(total_lines)):
        element = int(np.argmax(remaining))
        if remaining[element] <= 0:
            break  # every element's need is satisfied
        seed = _random_point_in_element(mesh, element, rng)
        line = _integrate_streamline(
            field_fn, seed, step, max_steps, floor, True, loop_tolerance
        )
        line.order = i
        _, idx = tree.query(line.points)
        visited = np.unique(idx)
        remaining[visited] -= 1.0
        achieved[visited] += 1.0
        lines.append(line)
    return lines, desired, achieved


# -- cases ---------------------------------------------------------------
def _bytes(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def _assert_identical(got, ref_lines, ref_desired, ref_achieved):
    assert len(got.lines) == len(ref_lines)
    for a, b in zip(got.lines, ref_lines):
        assert _bytes(a.points) == _bytes(b.points)
        assert _bytes(a.tangents) == _bytes(b.tangents)
        assert _bytes(a.magnitudes) == _bytes(b.magnitudes)
        assert a.termination == b.termination
        assert a.order == b.order
    assert _bytes(got.desired) == _bytes(ref_desired)
    assert _bytes(got.achieved) == _bytes(ref_achieved)


@pytest.fixture(scope="module")
def cases(structure3, mode3, e_sampler):
    """name -> (mesh, sampler, seeding kwargs without rng, rng seed)."""
    out = {}
    # the pipeline benchmark's field_sos snapshots (12 cells, 60 lines)
    structure = make_multicell_structure(12, n_xy=5, n_z_per_unit=5)
    solver = TimeDomainSolver(structure, cells_per_unit=8)
    steps = solver.steps_for(4.0)
    for k in range(3):
        solver.run(steps)
        solver.fields_on_mesh()
        out[f"field_sos{k}"] = (
            copy.deepcopy(structure.mesh), YeeSampler(solver, "E"),
            dict(total_lines=60, max_steps=150), [0, k],
        )
    out["structure3_E"] = (
        structure3.mesh, e_sampler, dict(total_lines=40, max_steps=100), 5,
    )
    b_sampler = AnalyticSampler(mode3, "B", t=np.pi / (2 * mode3.omega), structure=structure3)
    out["structure3_B"] = (
        structure3.mesh, b_sampler,
        dict(total_lines=12, field_name="B", max_steps=150, loop_tolerance=0.02), 2,
    )
    axis = np.linspace(-1.0, 1.0, 7)
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    dipole_mesh = StructuredHexMesh(np.stack([gx, gy, gz], axis=-1))
    dipole_mesh.set_field("E", DipoleField()(dipole_mesh.vertices))
    out["dipole"] = (dipole_mesh, DipoleField(), dict(total_lines=32, max_steps=80), 11)
    return out


@pytest.fixture(scope="module")
def references(cases):
    memo = {}

    def get(name):
        if name not in memo:
            mesh, sampler, kwargs, seed = cases[name]
            memo[name] = _greedy_seed(mesh, sampler, rng=np.random.default_rng(seed), **kwargs)
        return memo[name]

    return get


CASES = ["field_sos0", "field_sos1", "field_sos2", "structure3_E", "structure3_B", "dipole"]


@pytest.mark.parametrize("k", [1, 2, 8, 16])
@pytest.mark.parametrize("name", CASES)
def test_exact_rule_is_greedy(name, k, cases, references, monkeypatch):
    monkeypatch.setattr(seeding, "_SPECULATION", k)
    mesh, sampler, kwargs, seed = cases[name]
    got = seed_density_proportional(mesh, sampler, rng=np.random.default_rng(seed), **kwargs)
    _assert_identical(got, *references(name))


def test_b_case_closes_loops(cases, references):
    """The B case exercises the loop test, not just domain exits."""
    lines, _, _ = references("structure3_B")
    assert any(line.termination == "loop" for line in lines)


def test_leaves_rng_where_greedy_does(cases):
    """Uncommitted speculative draws go back to the generator."""
    mesh, sampler, kwargs, seed = cases["dipole"]
    rng = np.random.default_rng(seed)
    ordered = seed_density_proportional(mesh, sampler, rng=rng, **kwargs)
    ref = np.random.default_rng(seed)
    ref.random((len(ordered), 3))
    assert rng.random() == ref.random()


# -- integrate_streamline vs the scalar tracer ---------------------------
STREAMLINES = {
    "cap": (_UniformField(), [0.0, 0.0, 0.0], dict(step=0.01, max_steps=7)),
    "domain": (_UniformField(), [0.0, 0.3, 0.0], dict(step=0.1, max_steps=200)),
    "weak": (_DecayingField(), [0.0, 0.0, 0.0], dict(step=0.05, max_steps=200)),
    "loop": (_CircularField(), [1.0, 0.0, 0.0], dict(step=0.05, max_steps=400,
                                                     loop_tolerance=0.05)),
    "loop_tight": (_CircularField(), [0.3, -0.7, 0.2], dict(step=0.02, max_steps=400,
                                                            loop_tolerance=1e-3)),
    "outside_seed": (_UniformField(), [10.0, 0.0, 0.0], dict(step=0.1, max_steps=20)),
    "outside_seed_enters": (_UniformField(), [-5.05, 0.0, 0.0], dict(step=0.1,
                                                                     max_steps=20)),
    "circle": (_CircularField(), [0.4, 0.2, -0.1], dict(step=0.05, max_steps=50)),
}


@pytest.mark.parametrize("bidirectional", [True, False])
@pytest.mark.parametrize("name", sorted(STREAMLINES))
def test_streamline_matches_scalar_tracer(name, bidirectional):
    field, seed, kwargs = STREAMLINES[name]
    args = {"min_magnitude": 1e-6, "loop_tolerance": None, **kwargs}
    ref = _integrate_streamline(field, seed, bidirectional=bidirectional, **args)
    got = integrate_streamline(field, seed, bidirectional=bidirectional, **args)
    assert _bytes(got.points) == _bytes(ref.points)
    assert _bytes(got.tangents) == _bytes(ref.tangents)
    assert _bytes(got.magnitudes) == _bytes(ref.magnitudes)
    assert got.termination == ref.termination


@pytest.mark.parametrize("bidirectional", [True, False])
def test_loop_test_takes_the_scalar_norm(bidirectional):
    """A tolerance that falls between the 1-D norm of a seed-to-vertex
    difference (a BLAS dot) and its row-wise norm: the lockstep tracer
    must close the line on the same step as the scalar one."""
    field, seed = _CircularField(), np.array([1.0, 0.0, 0.0])
    free = _integrate_streamline(field, seed, 0.05, 200, 1e-6, False, None)
    diffs = free.points - seed
    one_d = np.array([np.linalg.norm(d) for d in diffs])
    row_wise = np.linalg.norm(diffs, axis=1)
    closed = 0
    for j in np.flatnonzero(one_d != row_wise):
        tol = max(one_d[j], row_wise[j])
        ref = _integrate_streamline(field, seed, 0.05, 200, 1e-6, bidirectional, tol)
        if ref.termination != "loop" or len(ref.points) != j + 1:
            continue  # an earlier vertex closed the line already
        got = integrate_streamline(
            field, seed, step=0.05, max_steps=200, min_magnitude=1e-6,
            bidirectional=bidirectional, loop_tolerance=tol,
        )
        assert _bytes(got.points) == _bytes(ref.points)
        assert got.termination == "loop"
        closed += 1
    if not closed:
        pytest.skip("the two norms round alike on this platform")
