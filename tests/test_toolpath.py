import json

import numpy as np
import pytest

from frik.cli import main
from frik.errors import InvalidRotation, ParseError
from frik.liegroup import is_rotation, make_pose, rot_y, rot_z, so3_exp
from frik.toolpath import (
    ConeSpec,
    Toolpath,
    assign_adhoc_orientation,
    cone_outward_normal,
    cone_surface_point,
    generate_cone_spiral,
    load_toolpath,
    save_toolpath,
)

BENCH_SPEC = ConeSpec(diameter=100.0, height=50.0, pitch=5.0, samples_per_rev=24)


def fd_surface_normal(spec: ConeSpec, azimuth: float, z: float, h: float = 1e-6) -> np.ndarray:
    """Central-difference normal of the parametric cone surface."""
    d_az = (
        cone_surface_point(spec, azimuth + h, z) - cone_surface_point(spec, azimuth - h, z)
    ) / (2 * h)
    d_z = (
        cone_surface_point(spec, azimuth, z + h) - cone_surface_point(spec, azimuth, z - h)
    ) / (2 * h)
    normal = np.cross(d_az, d_z)
    return normal / np.linalg.norm(normal)


# ---------------------------------------------------------------------------
# cone spiral generation
# ---------------------------------------------------------------------------


def test_cone_spec_validation():
    with pytest.raises(ValueError):
        ConeSpec(diameter=-1.0)
    with pytest.raises(ValueError):
        ConeSpec(samples_per_rev=4)
    with pytest.raises(ValueError):
        ConeSpec(pitch=0.0)


@pytest.mark.parametrize("spec", [BENCH_SPEC, ConeSpec(diameter=60, height=90, pitch=9, samples_per_rev=16, standoff=12.0)])
def test_targets_lie_on_cone_surface(spec):
    path = generate_cone_spiral(spec)
    surface_z = []
    for k, pose in enumerate(path.poses):
        azimuth = 2.0 * np.pi * k / spec.samples_per_rev
        surface = pose[:3, 3] - spec.standoff * cone_outward_normal(spec, azimuth)
        z = surface[2]
        radius = np.hypot(surface[0], surface[1])
        expected = 0.5 * spec.diameter * (1.0 - z / spec.height)
        assert abs(radius - expected) < 1e-9
        surface_z.append(z)
    assert surface_z[0] == 0.0
    assert abs(surface_z[-1] - spec.height) < 1e-9  # spiral covers base to apex


def test_first_target_in_xz_plane():
    path = generate_cone_spiral(BENCH_SPEC)
    assert abs(path.poses[0, 1, 3]) < 1e-12


def test_revolution_count_from_height_and_pitch():
    spec = ConeSpec(diameter=100, height=50, pitch=25, samples_per_rev=8)
    path = generate_cone_spiral(spec)
    assert len(path) == 17  # two full revolutions, apex included


def test_approach_axis_is_inward_normal_fd_oracle():
    spec = BENCH_SPEC
    path = generate_cone_spiral(spec)
    for k in (0, 5, 37, len(path) - 20):
        pose = path.poses[k]
        azimuth = 2.0 * np.pi * k / spec.samples_per_rev
        z = min(k * spec.pitch / spec.samples_per_rev, spec.height)
        z_mid = min(z, spec.height * 0.999)  # keep the FD stencil on the surface
        oracle = fd_surface_normal(spec, azimuth, z_mid)
        if oracle[2] < 0:  # orient outward (away from the axis)
            oracle = -oracle
        assert np.abs(cone_outward_normal(spec, azimuth) - oracle).max() < 1e-6
        assert np.abs(pose[:3, 2] + cone_outward_normal(spec, azimuth)).max() < 1e-12


def test_generated_frames_are_orthonormal():
    for pose in generate_cone_spiral(BENCH_SPEC).poses:
        assert is_rotation(pose[:3, :3], tol=1e-10)


def test_cone_helpers_on_arrays_match_scalar_calls():
    # generate_cone_spiral calls the helpers on arrays; the tests call them on
    # scalars, so both uses must give the same numbers to the last bit
    spec = ConeSpec(diameter=60, height=90, pitch=9, samples_per_rev=16, standoff=12.0)
    rng = np.random.default_rng(4)
    azimuth = rng.uniform(-20.0, 20.0, 500)
    z = rng.uniform(0.0, spec.height, 500)
    points = cone_surface_point(spec, azimuth, z)
    normals = cone_outward_normal(spec, azimuth)
    assert points.shape == normals.shape == (500, 3)
    for i in range(500):
        a, h = azimuth[i].item(), z[i].item()
        assert points[i].tobytes() == cone_surface_point(spec, a, h).tobytes()
        assert normals[i].tobytes() == cone_outward_normal(spec, a).tobytes()


# ---------------------------------------------------------------------------
# ad hoc orientation assignment
# ---------------------------------------------------------------------------


def test_adhoc_identity_when_tool_axis_is_frame_z():
    pose = make_pose(np.eye(3), np.array([10.0, 0.0, 0.0]))
    path = Toolpath(poses=pose[None])
    fixed = assign_adhoc_orientation(path)
    assert np.allclose(fixed.poses[0, :3, 0], [1.0, 0.0, 0.0], atol=1e-15)


def test_adhoc_degenerate_axis_falls_back_to_y():
    # tool approach along the workpiece x-axis: x projects to nothing
    rotation = rot_y(np.pi / 2)  # z-axis -> x
    path = Toolpath(poses=make_pose(rotation, np.zeros(3))[None])
    fixed = assign_adhoc_orientation(path)
    assert np.allclose(fixed.poses[0, :3, 0], [0.0, 1.0, 0.0], atol=1e-12)


def test_adhoc_preserves_approach_axis_and_orthonormality():
    rng = np.random.default_rng(3)
    poses = []
    for _ in range(1000):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        rotation = so3_exp(rng.uniform(0, np.pi - 0.1) * axis)
        poses.append(make_pose(rotation, rng.uniform(-100, 100, 3)))
    path = Toolpath(poses=np.stack(poses))
    fixed = assign_adhoc_orientation(path)
    for before, after in zip(path.poses, fixed.poses):
        r = after[:3, :3]
        assert np.array_equal(after[:3, 2], before[:3, 2])
        assert np.array_equal(after[:3, 3], before[:3, 3])
        assert is_rotation(r, tol=1e-9)
        assert abs(r[:, 0] @ r[:, 2]) < 1e-12
    # adhoc on the cone benchmark never needs the fallback: the x component of
    # the x-axis is the projected norm of workpiece x (>= 1e-9) without it,
    # and below 1e-9 in size with it
    assert (assign_adhoc_orientation(generate_cone_spiral(BENCH_SPEC)).poses[:, 0, 0] > 1e-9).all()


# ---------------------------------------------------------------------------
# file round trips
# ---------------------------------------------------------------------------


def test_save_load_round_trip(tmp_path, workpiece_frame):
    # files hold rotation matrices, so every pose loads back bit for bit;
    # the bundled cone at its default placement included
    file = tmp_path / "cone.json"
    for path in (
        generate_cone_spiral(BENCH_SPEC).with_frame(
            make_pose(rot_z(0.5), np.array([10.0, -20.0, 30.0]))
        ),
        generate_cone_spiral(ConeSpec()).with_frame(workpiece_frame),
    ):
        save_toolpath(path, file)
        loaded = load_toolpath(file)
        assert np.array_equal(loaded.frame, path.frame)
        assert np.array_equal(loaded.poses, path.poses)


def test_load_empty_file_is_parse_error(tmp_path):
    file = tmp_path / "empty.json"
    file.write_text("")
    with pytest.raises(ParseError):
        load_toolpath(file)


def test_load_single_identity_record(tmp_path):
    file = tmp_path / "one.json"
    file.write_text('{"targets": [{"k": 0, "pos_mm": [0, 0, 0], "quat": [0, 0, 0, 1]}]}')
    path = load_toolpath(file)
    assert len(path) == 1
    assert np.array_equal(path.poses[0], np.eye(4))
    assert np.array_equal(path.frame, np.eye(4))


def test_load_rejects_bad_quaternion(tmp_path):
    file = tmp_path / "bad.json"
    file.write_text('{"targets": [{"k": 0, "pos_mm": [0, 0, 0], "quat": [0, 0, 0, 1.001]}]}')
    with pytest.raises(InvalidRotation):
        load_toolpath(file)


def test_load_accepts_rotation_matrix_field(tmp_path):
    file = tmp_path / "rot.json"
    file.write_text(
        '{"targets": [{"k": 0, "pos_mm": [1, 2, 3],'
        ' "rot": [[0, -1, 0], [1, 0, 0], [0, 0, 1]]}]}'
    )
    path = load_toolpath(file)
    assert np.allclose(path.poses[0, :3, :3], rot_z(np.pi / 2), atol=1e-12)


def test_load_csv_variant(tmp_path):
    file = tmp_path / "path.csv"
    file.write_text(
        "k,x_mm,y_mm,z_mm,qx,qy,qz,qw\n"
        "0,1.5,2.5,3.5,0,0,0,1\n"
        "1,4.0,5.0,6.0,0,0,0.7071067811865476,0.7071067811865476\n"
    )
    path = load_toolpath(file)
    assert len(path) == 2
    assert np.allclose(path.poses[1, :3, 3], [4.0, 5.0, 6.0])
    assert np.allclose(path.poses[1, :3, :3], rot_z(np.pi / 2), atol=1e-9)


def test_load_csv_missing_column(tmp_path):
    file = tmp_path / "bad.csv"
    file.write_text("k,x_mm,y_mm\n0,1,2\n")
    with pytest.raises(ParseError):
        load_toolpath(file)


def test_target_indices_must_be_contiguous(tmp_path):
    file = tmp_path / "one.json"
    file.write_text('{"targets": [{"k": 1, "pos_mm": [0, 0, 0], "quat": [0, 0, 0, 1]}]}')
    with pytest.raises(ParseError):
        load_toolpath(file)


def json_targets(*ks, **fields) -> str:
    """Target records at the origin, unrotated, with ``fields`` over them; a
    ``rot`` field replaces the quaternion."""
    record = {"pos_mm": [0, 0, 0], **({} if "rot" in fields else {"quat": [0, 0, 0, 1]}), **fields}
    return json.dumps({"targets": [{"k": k, **record} for k in ks]})


@pytest.mark.parametrize(
    "name, text, record",
    [
        ("gap.json", json_targets(0, 2), "target record 1"),
        ("string.json", json_targets("x"), "target record 0"),
        ("fraction.json", json_targets(0.7, 1.2), "target record 0"),
        ("bool.json", json_targets(0, True), "target record 1"),
        ("gap.csv", "k,x_mm,y_mm,z_mm,qx,qy,qz,qw\n0,1,2,3,0,0,0,1\n2,1,2,3,0,0,0,1\n", "line 3"),
        ("scalar.json", '{"targets": 5}', "targets must be"),
        ("pos.json", json_targets(0, pos_mm=[0, None, 0]), "target record 0: pos_mm must be"),
        ("pos.json", json_targets(0, pos_mm=["0", 0, 0]), "target record 0: pos_mm must be"),
        ("quat.json", json_targets(0, quat=[0, 0, None, 1]), "target record 0: quat must be"),
        ("quat.json", json_targets(0, quat=[0, 0, 0, "1"]), "target record 0: quat must be"),
        ("both.json", json_targets(0, quat=[0, 0, 0, 1], rot=np.eye(3).tolist()), "not both"),
        ("rot.json", json_targets(0, rot=[[1, 0, 0], [0, 1, 0], [0, 0, None]]), "rot must be"),
        ("rot.json", json_targets(0, rot=[[1, 0, 0], [0, 1, 0], [0, 0, "1"]]), "rot must be"),
        ("nan.csv", "k,x_mm,y_mm,z_mm,qx,qy,qz,qw\n0,1,nan,3,0,0,0,1\n", "line 2: pos_mm must be"),
    ],
    ids=[
        "json-gap", "json-string", "json-fraction", "json-bool", "csv-gap", "targets-scalar",
        "pos-null", "pos-string", "quat-null", "quat-string", "quat-and-rot", "rot-null",
        "rot-string", "csv-nan",
    ],
)
def test_load_rejects_bad_index_or_target_list(tmp_path, capsys, name, text, record):
    # k is an integer counting 0, 1, 2, ... in file order, and every number
    # is finite; a bad one is named by its file and record, never truncated,
    # taken as a number or loaded as NaN. The CLI refuses the file before any
    # solve, with an error line and no traceback
    file = tmp_path / name
    file.write_text(text)
    with pytest.raises(ParseError) as info:
        load_toolpath(file)
    assert str(file) in str(info.value)
    assert record in str(info.value)
    assert main(["solve", "--toolpath", str(file), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(file) in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("frame", [[], {}, 0, ""], ids=["list", "object", "zero", "string"])
def test_load_rejects_falsy_frame(tmp_path, frame):
    # only an absent or null frame places the path at the base origin
    file = tmp_path / "framed.json"
    file.write_text(json.dumps({**json.loads(json_targets(0)), "frame": frame}))
    with pytest.raises(ParseError) as info:
        load_toolpath(file)
    assert str(file) in str(info.value)


def test_load_null_frame_is_identity(tmp_path):
    file = tmp_path / "null.json"
    file.write_text(json.dumps({**json.loads(json_targets(0)), "frame": None}))
    assert np.array_equal(load_toolpath(file).frame, np.eye(4))


def test_toolpath_compares_by_value():
    path = generate_cone_spiral(ConeSpec(samples_per_rev=8, pitch=25.0))
    same = Toolpath(poses=path.poses.copy(), frame=path.frame.copy())
    assert path == same and hash(path) == hash(same)
    moved = path.with_frame(make_pose(np.eye(3), np.array([0.0, 1.0, 0.0])))
    assert path != moved and path != Toolpath(poses=path.poses[:-1])
    assert len({path, same, moved}) == 2


def test_toolpath_holds_read_only_copies():
    poses = np.tile(np.eye(4), (2, 1, 1))
    frame = make_pose(rot_z(0.3), np.array([1.0, 2.0, 3.0]))
    path = Toolpath(poses=poses, frame=frame)
    poses[0, 0, 3] = 5.0
    frame[0, 3] = 7.0
    assert np.array_equal(path.poses, np.tile(np.eye(4), (2, 1, 1)))
    assert path.frame[0, 3] == 1.0
    for value in (path.poses, path.frame, path.with_frame(frame).frame):
        with pytest.raises(ValueError):
            value[0, 0] = 9.0


@pytest.mark.parametrize(
    "poses", [np.zeros((0, 4, 4)), np.eye(4), np.zeros((2, 3, 4))], ids=["empty", "2d", "3x4"]
)
def test_toolpath_rejects_bad_pose_stack(poses):
    with pytest.raises(ValueError):
        Toolpath(poses=poses)


# ---------------------------------------------------------------------------
# frame handling
# ---------------------------------------------------------------------------


def test_reframing_is_rigid():
    path = generate_cone_spiral(BENCH_SPEC)
    rng = np.random.default_rng(9)

    def pairwise(positions):
        diff = positions[:, None, :] - positions[None, :, :]
        return np.linalg.norm(diff, axis=-1)

    frames = [
        make_pose(so3_exp(rng.normal(size=3)), rng.uniform(-1000, 1000, 3)) for _ in range(3)
    ]
    subset = slice(0, 40)
    base = pairwise(path.with_frame(frames[0]).base_positions()[subset])
    for frame in frames[1:]:
        other = pairwise(path.with_frame(frame).base_positions()[subset])
        assert np.abs(base - other).max() < 1e-9
