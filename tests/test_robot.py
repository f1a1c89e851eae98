from dataclasses import replace
from functools import reduce
from itertools import accumulate

import numpy as np
import pytest

from frik.cli import main
from frik.errors import DimensionMismatch, ParseError
from frik.liegroup import make_pose, rot_y, unskew
from frik.robot import (
    DHRow,
    RobotModel,
    chain_frames,
    chain_frames_lanes,
    forward_kinematics,
    geometric_jacobian,
    hessian_product,
    irb4600,
    jacobian_from_frames,
    jacobian_from_frames_lanes,
    load_robot,
    rolled_hessian_product,
)

from conftest import cross_rows, kinematic_hessian, robot_to_dict

# ---------------------------------------------------------------------------
# oracles: hand-assembled chain product and finite differences
# ---------------------------------------------------------------------------


def _rz4(t):
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, -s, 0, 0], [s, c, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1.0]])


def _rx4(t):
    c, s = np.cos(t), np.sin(t)
    return np.array([[1, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1.0]])


def _tz4(d):
    out = np.eye(4)
    out[2, 3] = d
    return out


def _tx4(a):
    out = np.eye(4)
    out[0, 3] = a
    return out


def link_oracle(row: DHRow, qi: float) -> np.ndarray:
    """One link, Rz(theta) Tz(d) Tx(a) Rx(alpha), as a product of elementary transforms."""
    theta = qi + row.theta_offset
    return reduce(np.matmul, [_rz4(theta), _tz4(row.d), _tx4(row.a), _rx4(row.alpha)])


def chain_product_oracle(model: RobotModel, q: np.ndarray) -> np.ndarray:
    """Per-matrix DH chain product assembled from elementary transforms."""
    links = [link_oracle(row, qi) for row, qi in zip(model.dh, q)]
    return reduce(np.matmul, links, np.eye(4)) @ model.tool


def fd_jacobian(model: RobotModel, q: np.ndarray, h: float = 1e-6) -> np.ndarray:
    jac = np.zeros((6, model.n))
    base_rot = forward_kinematics(model, q)[:3, :3]
    for i in range(model.n):
        qp, qm = q.copy(), q.copy()
        qp[i] += h
        qm[i] -= h
        tp = forward_kinematics(model, qp)
        tm = forward_kinematics(model, qm)
        jac[:3, i] = (tp[:3, 3] - tm[:3, 3]) / (2 * h)
        dr = (tp[:3, :3] - tm[:3, :3]) / (2 * h)
        jac[3:, i] = unskew(dr @ base_rot.T)
    return jac


def fd_hessian(model: RobotModel, q: np.ndarray, h: float = 1e-6) -> np.ndarray:
    out = np.zeros((6, model.n, model.n))
    for j in range(model.n):
        qp, qm = q.copy(), q.copy()
        qp[j] += h
        qm[j] -= h
        out[:, :, j] = (geometric_jacobian(model, qp) - geometric_jacobian(model, qm)) / (2 * h)
    return out


def one_link(a=0.0, alpha=0.0, d=0.0, theta=0.0):
    return RobotModel(
        dh=(DHRow(a=a, alpha=alpha, d=d, theta_offset=theta),),
        joint_min=np.array([-np.pi]),
        joint_max=np.array([np.pi]),
    )


def random_in_limits(model, rng, count):
    return [rng.uniform(model.joint_min, model.joint_max) for _ in range(count)]


# ---------------------------------------------------------------------------
# forward kinematics
# ---------------------------------------------------------------------------


def test_trivial_one_link_identity():
    assert np.allclose(forward_kinematics(one_link(), np.zeros(1)), np.eye(4), atol=1e-15)


def test_fk_matches_chain_oracle_at_zero(model):
    assert np.abs(
        forward_kinematics(model, np.zeros(6)) - chain_product_oracle(model, np.zeros(6))
    ).max() < 1e-9


def test_fk_matches_chain_oracle_at_benchmark_start(model, q0_benchmark):
    assert np.abs(
        forward_kinematics(model, q0_benchmark) - chain_product_oracle(model, q0_benchmark)
    ).max() < 1e-9


def test_fk_matches_chain_oracle_random(model):
    rng = np.random.default_rng(5)
    for q in random_in_limits(model, rng, 25):
        assert np.abs(forward_kinematics(model, q) - chain_product_oracle(model, q)).max() < 1e-8


def test_chain_axes_and_origins_match_link_products(model):
    # frame i-1 of the chain (the base for i = 1) carries joint i's axis as its
    # z-column and the joint's origin as its translation
    rng = np.random.default_rng(7)
    for q in random_in_limits(model, rng, 25):
        links = [link_oracle(row, qi) for row, qi in zip(model.dh, q)]
        frames = list(accumulate(links, np.matmul, initial=np.eye(4)))
        _, axes, origins = chain_frames(model, q)
        assert axes.shape == origins.shape == (model.n, 3)
        for i in range(model.n):
            assert np.abs(axes[i] - frames[i][:3, 2]).max() < 1e-9
            assert np.abs(origins[i] - frames[i][:3, 3]).max() < 1e-9


def _formula_links(model: RobotModel, q: np.ndarray) -> np.ndarray:
    """The (n, 4, 4) DH links, each entry spelled out as its own product."""
    a, alpha, d, offset = np.array([(r.a, r.alpha, r.d, r.theta_offset) for r in model.dh]).T
    ca, sa = np.cos(alpha), np.sin(alpha)
    ct, st = np.cos(q + offset), np.sin(q + offset)
    zero, one = np.zeros(model.n), np.ones(model.n)
    rows = [
        [ct, -st * ca, st * sa, a * ct],
        [st, ct * ca, -ct * sa, a * st],
        [zero, sa, ca, d],
        [zero, zero, zero, one],
    ]
    return np.array(rows).transpose(2, 0, 1)


def _identity_product_walk(model: RobotModel, q: np.ndarray) -> tuple[np.ndarray, ...]:
    """The chain walk with its identity products: frames from the identity,
    TCP times the tool even when it is the identity."""
    links = _formula_links(model, q)
    frames = np.array(list(accumulate(links, np.matmul, initial=np.eye(4))))
    return frames[-1] @ model.tool, frames[:-1, :3, 2], frames[:-1, :3, 3]


def test_link_build_keeps_the_formula_signs_of_zero(model):
    # chain_frames gathers (cos, sin) and multiplies by per-model factors
    # (1, -ca, sa, a, 1, ca, -sa, a); each product must give the formula's
    # bits, the sign of an exact zero included: q0 = 0 and q1 = 0 make
    # sin(theta) +0.0 on joint 1, and alpha = 0 makes sin(alpha) +0.0
    q = np.array(random_in_limits(model, np.random.default_rng(67), 600))
    q[:300, 0] = 0.0
    q[150:450, 1] = 0.0
    q[-50:] = 0.0
    lanes = chain_frames_lanes(model, q)
    for lane, q_lane in enumerate(q):
        # the first frame is the first link itself, not the identity times it
        frames = np.array([np.eye(4), *accumulate(_formula_links(model, q_lane), np.matmul)])
        want = frames[-1], frames[:-1, :3, 2], frames[:-1, :3, 3]
        for got, stacked, expected in zip(chain_frames(model, q_lane), lanes, want):
            for walk in (got, stacked[lane]):
                assert np.array_equal(walk, expected)
                assert np.array_equal(np.signbit(walk), np.signbit(expected))


def test_walk_without_identity_products_rounds_as_with_them(model):
    # chain_frames starts from the first link and skips an identity tool;
    # both walks must round as the products with the identity, bit for bit
    tool = make_pose(rot_y(0.3), np.array([10.0, -5.0, 250.0]))
    tooled = replace(model, tool=tool)
    q = np.array(random_in_limits(model, np.random.default_rng(59), 200))
    for walker in (model, tooled):
        lanes = chain_frames_lanes(walker, q)
        for lane, q_lane in enumerate(q):
            want = _identity_product_walk(walker, q_lane)
            for got, stacked, expected in zip(chain_frames(walker, q_lane), lanes, want):
                assert got.tobytes() == expected.tobytes()
                assert stacked[lane].tobytes() == expected.tobytes()


def _cross_rows_jacobian(p_tcp, axes, origins):
    """The Jacobian as ``cross_rows`` forms it: [w_i x (p_tcp - o_i); w_i]."""
    j = np.empty((6, len(axes)))
    cross_rows(axes, p_tcp - origins, j[:3].T)
    j[3:] = axes.T
    return j


def signed_zero_walks(model):
    """Lane walks with exact zeros: q1 = 0 makes the second joint axis's x
    entry -0.0, and q2 = 0 or a zero q more exact zeros. Taken in the base
    frame and, as the solver takes them, rotated into a target frame."""
    q = np.array(random_in_limits(model, np.random.default_rng(71), 400))
    q[:200, 0] = 0.0
    q[100:300, 1] = 0.0
    q[-20:] = 0.0
    tcp, axes, origins = chain_frames_lanes(model, q)
    assert np.signbit(axes[:200, 1, 0]).all()
    rd = tcp[0, :3, :3]
    return ((tcp[:, :3, 3], axes, origins), (tcp[:, :3, 3] @ rd, axes @ rd, origins @ rd))


def test_jacobians_keep_the_cross_rows_signs_of_zero(model):
    # both Jacobians cross on rolled row buffers; each entry must be
    # cross_rows' product difference, the sign of an exact zero included
    for p_tcp, ax, org in signed_zero_walks(model):
        lanes = jacobian_from_frames_lanes(p_tcp, ax, org)
        for lane in range(len(ax)):
            want = _cross_rows_jacobian(p_tcp[lane], ax[lane], org[lane])
            for got in (jacobian_from_frames(p_tcp[lane], ax[lane], org[lane])[0], lanes[lane]):
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))


def test_fk_rejects_wrong_length(model):
    with pytest.raises(DimensionMismatch):
        forward_kinematics(model, np.zeros(5))


def test_fk_is_continuous(model, q0_benchmark):
    base = forward_kinematics(model, q0_benchmark)
    for delta in (1e-3, 1e-5, 1e-7):
        moved = forward_kinematics(model, q0_benchmark + delta)
        assert np.abs(moved - base).max() < 5000 * delta


# ---------------------------------------------------------------------------
# geometric Jacobian
# ---------------------------------------------------------------------------


def test_jacobian_single_revolute_with_offset_tcp():
    model = one_link(a=1000.0)
    jac = geometric_jacobian(model, np.zeros(1))
    assert np.allclose(jac[:, 0], [0.0, 1000.0, 0.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_jacobian_matches_finite_differences(model):
    rng = np.random.default_rng(17)
    for q in random_in_limits(model, rng, 50):
        assert np.abs(geometric_jacobian(model, q) - fd_jacobian(model, q)).max() < 1e-5


def test_wrist_singularity_drops_rank(model):
    rng = np.random.default_rng(23)
    for _ in range(10):
        q = rng.uniform(model.joint_min, model.joint_max)
        q[4] = 0.0
        sv = np.linalg.svd(geometric_jacobian(model, q), compute_uv=False)
        assert sv[-1] / sv[0] < 1e-10


# ---------------------------------------------------------------------------
# kinematic Hessian
# ---------------------------------------------------------------------------


def test_hessian_one_link(model):
    link = one_link(a=500.0)
    q = np.array([0.4])
    h = kinematic_hessian(link, q)
    assert np.abs(h[3:, :, :]).max() < 1e-15
    assert np.abs(h - fd_hessian(link, q)).max() < 1e-4


def test_hessian_matches_finite_differences(model):
    rng = np.random.default_rng(29)
    for q in random_in_limits(model, rng, 25):
        assert np.abs(kinematic_hessian(model, q) - fd_hessian(model, q)).max() < 1e-4


def test_contract_matches_directional_difference(model, q0_benchmark):
    # H @ dq, the contraction the Halley step takes, is the derivative of J
    # along dq: it sums over the last (derivative) axis
    rng = np.random.default_rng(31)
    h = kinematic_hessian(model, q0_benchmark)
    step = 1e-6
    for _ in range(5):
        dq = rng.normal(size=6)
        dq /= np.linalg.norm(dq)
        plus = geometric_jacobian(model, q0_benchmark + step * dq)
        minus = geometric_jacobian(model, q0_benchmark - step * dq)
        assert np.abs(h @ dq - (plus - minus) / (2 * step)).max() < 1e-4


def _contraction_models(model):
    """The bundled robot, the same arm with a tool 200 mm off joint 6's axis
    and tilted by 30 deg, and a 1-link and a 2-link chain."""
    tool = make_pose(rot_y(np.radians(30.0)), np.array([200.0, 0.0, 150.0]))
    two_links = RobotModel(
        dh=(
            DHRow(a=300.0, alpha=np.pi / 2, d=120.0),
            DHRow(a=250.0, alpha=-0.4, d=-60.0, theta_offset=0.3),
        ),
        joint_min=np.full(2, -np.pi),
        joint_max=np.full(2, np.pi),
    )
    return {
        "irb4600": model,
        "offset-tool": RobotModel(model.dh, model.joint_min, model.joint_max, tool=tool),
        "one-link": one_link(a=500.0, alpha=0.7, d=80.0, theta=0.2),
        "two-link": two_links,
    }


@pytest.mark.parametrize("name", ["irb4600", "offset-tool", "one-link", "two-link"])
def test_hessian_product_matches_tensor_contraction(model, name):
    # the O(n) product the Halley step takes equals kinematic_hessian(q) @ dq
    # to round-off, over 200 seeded configurations and steps
    chain = _contraction_models(model)[name]
    rng = np.random.default_rng(41)
    for q in random_in_limits(chain, rng, 200):
        dq = rng.normal(size=chain.n) * rng.choice([1e-3, 0.1, 1.0])
        tcp, axes, origins = chain_frames(chain, q)
        jac, _ = jacobian_from_frames(tcp[:3, 3], axes, origins)
        reference = kinematic_hessian(chain, q) @ dq
        product = hessian_product(axes, jac, dq)
        assert product.shape == (6, chain.n)
        assert np.abs(product - reference).max() <= 1e-12 * np.abs(reference).max()


def test_rolled_hessian_product_rounds_as_hessian_product(model):
    # solve's Halley product reads the Jacobian's rolled rows; it must give
    # hessian_product's bits, the sign of an exact zero included, on the
    # signed-zero walks and on steps with exact zeros in them
    rng = np.random.default_rng(73)
    for p_tcp, ax, org in signed_zero_walks(model):
        dq = rng.normal(size=(len(ax), model.n)) * 0.1
        dq[::3, 0] = 0.0
        dq[::5, 1:4] = 0.0
        dq[-20:] = 0.0
        for lane in range(len(ax)):
            jac, rolled = jacobian_from_frames(p_tcp[lane], ax[lane], org[lane])
            want = hessian_product(ax[lane], jac, dq[lane])
            got = rolled_hessian_product(rolled, dq[lane])
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_hessian_product_of_zero_step_or_axes_is_zero(model, q0_benchmark):
    tcp, axes, origins = chain_frames(model, q0_benchmark)
    jac, _ = jacobian_from_frames(tcp[:3, 3], axes, origins)
    zero = np.zeros((6, 6))
    assert np.array_equal(hessian_product(axes, jac, np.zeros(6)), zero)
    assert np.array_equal(hessian_product(np.zeros((6, 3)), jac, np.full(6, 0.3)), zero)


def test_hessian_product_lanes_round_as_one_call(model):
    # the sweep takes the product on (L, ...) stacks; each lane must equal
    # its own (n,) call bit for bit, so that the scalar solver stays its oracle
    rng = np.random.default_rng(43)
    q = random_in_limits(model, rng, 200)
    tcp, axes, origins = chain_frames_lanes(model, q)
    jac = jacobian_from_frames_lanes(tcp[:, :3, 3], axes, origins)
    dq = rng.normal(size=(200, 6))
    product = hessian_product(axes, jac, dq)
    assert product.shape == (200, 6, 6)
    for lane in range(200):
        assert np.array_equal(product[lane], hessian_product(axes[lane], jac[lane], dq[lane]))


def test_lanes_round_as_one_configuration_calls(model):
    # the lane walk is the sweep's; each lane must equal its own (n,) call
    # bit for bit, so that the scalar solver stays the sweep's oracle
    rng = np.random.default_rng(37)
    q = random_in_limits(model, rng, 200)
    tcp, axes, origins = chain_frames_lanes(model, q)
    jac = jacobian_from_frames_lanes(tcp[:, :3, 3], axes, origins)
    assert tcp.shape == (200, 4, 4) and axes.shape == origins.shape == (200, 6, 3)
    for lane, q_lane in enumerate(q):
        one = chain_frames(model, q_lane)
        for stacked, alone in zip((tcp, axes, origins), one):
            assert np.array_equal(stacked[lane], alone)
        assert np.array_equal(jac[lane], jacobian_from_frames(one[0][:3, 3], *one[1:])[0])
    with pytest.raises(DimensionMismatch):
        chain_frames_lanes(model, q[0])


# ---------------------------------------------------------------------------
# model construction and file round trip
# ---------------------------------------------------------------------------


def test_limits_must_be_ordered():
    with pytest.raises(ValueError):
        RobotModel(
            dh=(DHRow(0, 0, 0),),
            joint_min=np.array([1.0]),
            joint_max=np.array([-1.0]),
        )


def test_model_compares_by_value(model):
    assert irb4600() == model and hash(irb4600()) == hash(model)
    tooled = replace(model, tool=make_pose(np.eye(3), np.array([0.0, 0.0, 250.0])))
    assert tooled != model and len({model, irb4600(), tooled}) == 2


def test_model_holds_read_only_copies():
    joint_min = np.array([-1.0])
    joint_max = np.array([1.0])
    tool = np.eye(4)
    model = RobotModel(dh=(DHRow(0, 0, 0),), joint_min=joint_min, joint_max=joint_max, tool=tool)
    joint_min[0] = 2.0
    joint_max[0] = -2.0
    tool[0, 3] = 5.0
    assert model.joint_min[0] == -1.0 and model.joint_max[0] == 1.0
    assert np.array_equal(model.tool, np.eye(4))
    for value in (model.joint_min, model.joint_max, model.tool):
        with pytest.raises(ValueError):
            value[0] = 0.5


def test_robot_json_round_trip(tmp_path, model, q0_benchmark):
    import json

    file = tmp_path / "robot.json"
    file.write_text(json.dumps(robot_to_dict(model)))
    loaded = load_robot(file)
    assert loaded.n == model.n
    assert np.allclose(loaded.joint_min, model.joint_min)
    assert np.abs(
        forward_kinematics(loaded, q0_benchmark) - forward_kinematics(model, q0_benchmark)
    ).max() < 1e-12


def test_load_robot_rejects_garbage(tmp_path, capsys, model):
    import json

    file = tmp_path / "robot.json"
    file.write_text("{not json")
    with pytest.raises(ParseError):
        load_robot(file)
    file.write_text('{"dh": [{"a_mm": 1.0}]}')
    with pytest.raises(ParseError):
        load_robot(file)
    # every number is a finite number in an array of its shape, and the tool
    # a homogeneous transform; a fault is a ParseError naming the file, on
    # which the CLI exits 1 with an error line and no traceback
    spec = robot_to_dict(model)
    limits = spec["joint_limits_rad"]
    skewed = make_pose(rot_y(1e-7) @ np.diag([1.0, 1.0 + 1e-7, 1.0]), np.zeros(3))
    for change, message in [
        ({"tool": np.eye(3).tolist()}, "tool must be 4 x 4 numbers"),
        ({"tool": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, None], [0, 0, 0, 1]]}, "tool must be 4 x"),
        ({"tool": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [5, 0, 0, 2]]}, "bottom row must be"),
        ({"tool": skewed.tolist()}, "rotation block is not orthonormal"),
        ({"joint_limits_rad": {**limits, "min": [None, *limits["min"][1:]]}}, "min must be a list"),
        ({"dh": [{**spec["dh"][0], "a_mm": "175"}, *spec["dh"][1:]]}, "a_mm must be a number"),
    ]:
        file.write_text(json.dumps({**spec, **change}))
        with pytest.raises(ParseError) as info:
            load_robot(file)
        assert str(file) in str(info.value) and message in str(info.value)
        assert main(["solve", "--robot", str(file), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(file) in err and "Traceback" not in err


def test_load_robot_rejects_modified_convention(tmp_path, model):
    import json

    # only standard DH rows are read; a file in another convention is not
    # walked as if it were standard
    spec = robot_to_dict(model)
    spec["dh_convention"] = "modified"
    file = tmp_path / "craig.json"
    file.write_text(json.dumps(spec))
    with pytest.raises(ParseError, match="craig.json"):
        load_robot(file)


def test_benchmark_start_is_within_limits(model, q0_benchmark):
    assert model.within_limits(q0_benchmark)


def test_tool_transform_offsets_tcp(tmp_path, model, q0_benchmark):
    import json

    tool = np.eye(4)
    tool[:3, 3] = [0.0, 0.0, 250.0]
    spec = robot_to_dict(model)
    spec["tool"] = tool.tolist()
    file = tmp_path / "with_tool.json"
    file.write_text(json.dumps(spec))
    tooled = load_robot(file)
    bare = forward_kinematics(model, q0_benchmark)
    offset = forward_kinematics(tooled, q0_benchmark)
    assert np.abs(offset - bare @ tool).max() < 1e-12
    # the Jacobian stays consistent about the shifted TCP point
    assert np.abs(geometric_jacobian(tooled, q0_benchmark) - fd_jacobian(tooled, q0_benchmark)).max() < 1e-5
