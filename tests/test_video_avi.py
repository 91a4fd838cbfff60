"""MJPEG-AVI video path: container codec + frame-sampling feature stage.

Mirrors the PNG/GIF/JPEG strategy: flat frames decode exactly, so sampled
frame lumas are pinned against analytic ground truth; malformed containers
and frames follow the per-row error policy.
"""

import numpy as np
import pytest

from yomitoku_ray.kernels.avi import (
    AviError,
    decode_avi_frame,
    decode_mjpeg_avi,
    encode_mjpeg_avi,
    index_avi,
)


def test_roundtrip_flat_frames_exact():
    frames = [np.full((12, 20, 3), (10 + 30 * i) % 256, np.uint8) for i in range(5)]
    blob = encode_mjpeg_avi(frames, fps=8, quality=95)
    out = decode_mjpeg_avi(blob)
    assert len(out) == 5
    for o, f in zip(out, frames):
        assert o.shape == f.shape
        assert int(np.abs(o.astype(int) - f.astype(int)).max()) == 0


def test_index_without_decode_and_meta():
    frames = [np.full((9, 11), 100, np.uint8) for _ in range(7)]
    blob = encode_mjpeg_avi(frames, fps=10)
    meta = index_avi(blob)
    assert (meta["width"], meta["height"]) == (11, 9)
    assert meta["fps"] == 10
    assert meta["n_frames"] == meta["n_frames_declared"] == 7
    # indexed spans decode individually
    px = decode_avi_frame(blob, meta["frames"][3])
    assert np.all(px == 100)


def test_errors_are_avi_error():
    with pytest.raises(AviError):
        index_avi(b"not an avi at all........")
    with pytest.raises(AviError):
        encode_mjpeg_avi([])
    # truncated container: chunk overrun must be AviError, not IndexError
    frames = [np.full((8, 8), 50, np.uint8)] * 2
    blob = encode_mjpeg_avi(frames)
    with pytest.raises(AviError):
        # RIFF size says more than we give it -> overrun detected
        index_avi(blob[:40])


def test_video_stage_pins_analytic_values(ray_session):
    import sys

    sys.path.insert(0, "/root/repo")
    from __ray_entry__ import _video_frames_summary
    from yomitoku_ray.synth.videos import expected_frame_gray, gen_video

    df = _video_frames_summary("/root/testdata/sf0.001")
    assert df["vid_id"].nunique() >= 120
    junk = df[df["frame_idx"] == -1]
    assert (junk["error"].notna()).all() and len(junk) > 0

    # pin stepped-gray clips: sampled frame luma == analytic frame gray
    steps = df[(df["vid_id"] % 2 == 0) & (df["error"].isna())]
    assert len(steps) > 0
    for rec in steps.head(40).to_dict("records"):
        want = round(1000 * expected_frame_gray(rec["vid_id"], rec["frame_idx"]) / 255.0)
        assert rec["mean_luma_milli"] == want, rec

    # solid clips: every sampled frame of a vid has identical luma
    solid = df[(df["vid_id"] % 2 == 1) & (df["error"].isna())]
    per_vid = solid.groupby("vid_id")["mean_luma_milli"].nunique()
    assert (per_vid == 1).all()


def test_video_stage_samples_uniform_positions():
    """Frame sampling: k uniform positions floor(i * (n-1) / (k-1)),
    deduplicated for short clips; a malformed container is one isolated
    error row, never a failed batch."""
    import pyarrow as pa

    from yomitoku_ray.stages.multimodal import VideoFrameFeatureStage

    frames = [np.full((8, 8), 20 * i, np.uint8) for i in range(10)]
    blobs = [encode_mjpeg_avi(frames), encode_mjpeg_avi(frames[:2]), b"garbage"]
    batch = pa.table(
        {"vid_id": pa.array([10, 2, 0], pa.int64()), "video": pa.array(blobs, pa.binary())}
    )
    by_vid = {}
    for r in VideoFrameFeatureStage(n_sample=4)(batch).to_pylist():
        by_vid.setdefault(r["vid_id"], []).append(r)
    # 10 frames, 4 samples -> positions 0, 3, 6, 9
    assert [r["frame_idx"] for r in by_vid[10]] == [0, 3, 6, 9]
    assert all(r["n_frames"] == 10 and r["error"] is None for r in by_vid[10])
    # the sampled frame is the one decoded: frame 3 is flat gray 60
    assert by_vid[10][1]["mean_luma_milli"] == round(1000 * 60 / 255)
    # 2 frames, 4 requested -> both, deduplicated
    assert [r["frame_idx"] for r in by_vid[2]] == [0, 1]
    # malformed container -> one isolated error row
    assert len(by_vid[0]) == 1
    assert by_vid[0][0]["frame_idx"] == -1 and by_vid[0][0]["error"]
