"""Synthetic random-dot stereogram generation and stereo-sample file I/O.

Stereograms are rendered from a cyclopean (middle-view) dot texture: a
piecewise-constant disparity field is projected into the left view at
+d/2 and into the right view at -d/2, so disparities are quantized to
even integers and the stereo constraint holds exactly. Left pixels that
no cyclopean point reaches, or whose cyclopean source is hidden in the
right view, carry +inf ground truth and are excluded from the validity
mask (they render as black holes in the left image).

:class:`BoundedReader` reads the bytes of every binary input file: the
PFM and PNM readers here and ``training.load_checkpoint``.
"""

from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParseError, ShapeError


@dataclass(frozen=True)
class RdsConfig:
    width: int = 96
    height: int = 96
    dot_density: float = 0.5
    num_shapes: int = 6
    disparity_range: tuple[int, int] = (6, 20)
    seed: int = 0

    def __post_init__(self):
        if self.width < 16 or self.height < 16:
            raise ConfigError("stereogram extents must be at least 16x16 "
                              "(shapes would be wider than the image)")
        if not 0.0 < self.dot_density < 1.0:
            raise ConfigError(f"dot_density must lie in (0, 1), got {self.dot_density}")
        lo, hi = self.disparity_range
        if lo < 0 or hi < lo:
            raise ConfigError(f"bad disparity_range {self.disparity_range}")
        if hi >= self.width:
            raise ConfigError(f"max disparity {hi} must be below the width {self.width}")


@dataclass
class StereoSample:
    """Left/right images (C, H, W) normalized to [-1, 1], ground-truth
    disparity for the left view (+inf where occluded), and the validity mask."""

    left: np.ndarray
    right: np.ndarray
    gt: np.ndarray
    valid: np.ndarray

    @property
    def height(self) -> int:
        return self.left.shape[1]

    @property
    def width(self) -> int:
        return self.left.shape[2]


def valid_mask(gt: np.ndarray, max_disparity: float) -> np.ndarray:
    """The pixels that are scored and supervised: ground truth that is
    finite and below ``max_disparity``."""
    return np.isfinite(gt) & (gt < max_disparity)


def normalize_image(raw: np.ndarray) -> np.ndarray:
    """Map [0, 1] intensities to the [-1, 1] range the model consumes."""
    return ((raw - 0.5) / 0.5).astype(np.float32)


def denormalize_image(img: np.ndarray) -> np.ndarray:
    return np.clip(img * 0.5 + 0.5, 0.0, 1.0)


def _even(d: int) -> int:
    return d - (d % 2)


def _disparity_field(cfg: RdsConfig, rng: np.random.Generator) -> np.ndarray:
    h, w = cfg.height, cfg.width
    lo, hi = cfg.disparity_range
    disp = np.zeros((h, w), dtype=np.int64)
    max_half = max(3, min(h, w) // 4)
    yy, xx = np.mgrid[0:h, 0:w]
    for _ in range(cfg.num_shapes):
        rectangle = rng.integers(2) == 0  # otherwise an ellipse
        cy = int(rng.integers(0, h))
        cx = int(rng.integers(0, w))
        hy = int(rng.integers(3, max_half + 1))
        hx = int(rng.integers(3, max_half + 1))
        d = _even(int(rng.integers(lo, hi + 1)))
        if rectangle:
            disp[max(cy - hy, 0):cy + hy + 1, max(cx - hx, 0):cx + hx + 1] = d
        else:
            inside = ((yy - cy) / hy) ** 2 + ((xx - cx) / hx) ** 2 <= 1.0
            disp[inside] = d
    return disp


def _render_views(texture: np.ndarray, disp: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Project the cyclopean texture into both views with a 1D z-buffer per row.

    Returns (left, right, gt, valid). Larger disparities (closer surfaces)
    win overlaps; winners are resolved per distinct disparity value in
    ascending order, so the ordering is deterministic. Each value scatters
    its pixels of every row at once: within a row, its pixels land on
    distinct columns.
    """
    h, w = texture.shape
    left_src = np.full((h, w), -1, dtype=np.int64)
    right_src = np.full((h, w), -1, dtype=np.int64)
    left_d = np.zeros((h, w), dtype=np.int64)
    for d_val in np.unique(disp):
        half = int(d_val) // 2
        ys, xs = np.nonzero(disp == d_val)
        keep = xs + half < w
        left_src[ys[keep], xs[keep] + half] = xs[keep]
        left_d[ys[keep], xs[keep] + half] = d_val
        keep = xs >= half
        right_src[ys[keep], xs[keep] - half] = xs[keep]
    rows = np.arange(h)[:, None]
    filled = left_src >= 0
    left = np.where(filled, texture[rows, left_src], np.float32(0))
    right = np.where(right_src >= 0, texture[rows, right_src], np.float32(0))
    # Valid: the same cyclopean column must have won both projections.
    xr_corr = left_src - left_d // 2
    both = filled & (xr_corr >= 0)
    valid = both & (right_src[rows, np.maximum(xr_corr, 0)] == left_src)
    gt = np.full((h, w), np.inf, dtype=np.float32)
    gt[valid] = left_d[valid]
    return left, right, gt, valid


def gen_rds(cfg: RdsConfig, count: int) -> list[StereoSample]:
    """Deterministic stereogram set; sample i uses an RNG derived from
    (cfg.seed, i), so any prefix of the set is stable under larger counts."""
    if count <= 0:
        raise ConfigError(f"count must be positive, got {count}")
    samples = []
    for index in range(count):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, index)))
        disp = _disparity_field(cfg, rng)
        texture = (rng.random((cfg.height, cfg.width)) < cfg.dot_density
                   ).astype(np.float32)
        left, right, gt, valid = _render_views(texture, disp)
        samples.append(StereoSample(
            left=normalize_image(left)[None],
            right=normalize_image(right)[None],
            gt=gt,
            valid=valid,
        ))
    return samples


class BoundedReader:
    """Reads an untrusted binary file, never past its end. The size is
    taken once at open, so no length field in the file can make a read
    allocate more bytes than the file holds. A path that cannot be opened
    (missing, unreadable, a directory, a NUL byte) and a read past the end
    raise ``error``, naming ``kind`` and the path."""

    def __init__(self, path: str, error: type[Exception], kind: str):
        self.path, self.error, self.kind = path, error, kind
        try:
            self.f = open(path, "rb")
        except (OSError, ValueError) as e:
            raise error(f"cannot read {kind} {path}: {e}") from e
        self.left = os.fstat(self.f.fileno()).st_size

    def __enter__(self) -> "BoundedReader":
        return self

    def __exit__(self, *exc) -> None:
        self.f.close()

    def need(self, n: int, read: bool = True) -> bytes | None:
        """The next n bytes; with ``read=False`` they are passed over
        unread. Either way fewer than n bytes left is refused."""
        if n > self.left:
            raise self.error(f"{self.path}: truncated {self.kind} "
                             f"(wanted {n} bytes, {self.left} left)")
        self.left -= n
        if read:
            return self.f.read(n)
        self.f.seek(n, os.SEEK_CUR)
        return None

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.need(struct.calcsize(fmt)))

    def readline(self) -> bytes:
        line = self.f.readline()
        self.left -= len(line)
        return line


@contextlib.contextmanager
def replacing(path: str):
    """A binary file written beside ``path`` and renamed over it once whole:
    a failed or crashed write leaves ``path`` as it was."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# PFM (portable float map, grayscale "Pf")
# ---------------------------------------------------------------------------

def read_pfm(path: str) -> np.ndarray:
    """Read a grayscale PFM into an (H, W) float32 array (top row first)."""
    with BoundedReader(path, ParseError, "PFM") as r:
        magic = r.readline().strip()
        if magic != b"Pf":
            raise ParseError(f"{path}: bad PFM magic {magic!r} (color 'PF' unsupported)")
        dims = r.readline().split()
        if len(dims) != 2:
            raise ParseError(f"{path}: malformed PFM dimension line")
        try:
            width, height = int(dims[0]), int(dims[1])
        except ValueError:
            raise ParseError(f"{path}: non-integer PFM dimensions {dims}")
        if width <= 0 or height <= 0:
            raise ParseError(f"{path}: non-positive PFM dimensions {width}x{height}")
        try:
            scale = float(r.readline().strip())
        except ValueError:
            raise ParseError(f"{path}: malformed PFM scale line")
        if not 0 < abs(scale) < np.inf:  # the sign picks the byte order; NaN has none
            raise ParseError(f"{path}: PFM scale must be finite and non-zero, got {scale}")
        payload = r.need(width * height * 4)
        endian = "<f4" if scale < 0 else ">f4"
        data = np.frombuffer(payload, dtype=endian).reshape(height, width)
        return data[::-1].astype(np.float32)  # rows are stored bottom-to-top


def write_pfm(values: np.ndarray, path: str) -> None:
    values = np.asarray(values, dtype=np.float32)
    if values.ndim != 2:
        raise ShapeError(f"write_pfm expects an (H, W) map, got shape {values.shape}")
    height, width = values.shape
    with replacing(path) as f:
        f.write(b"Pf\n")
        f.write(f"{width} {height}\n".encode("ascii"))
        f.write(b"-1.0\n")  # negative scale: little-endian payload
        f.write(values[::-1].astype("<f4").tobytes())


# ---------------------------------------------------------------------------
# PNM (binary P5 grayscale / P6 RGB, 8-bit)
# ---------------------------------------------------------------------------

_PNM_TOKEN_BYTES = 20  # more digits than any extent has; keeps the scan and int() short


def _read_pnm_token(r: BoundedReader) -> bytes:
    """One whitespace-delimited header token, skipping '#' comments;
    ParseError on one longer than ``_PNM_TOKEN_BYTES``."""
    token = b""
    while True:
        ch = r.need(1)
        if ch == b"#":
            while ch != b"\n":
                ch = r.need(1)
            continue
        if ch.isspace():
            if token:
                return token
            continue
        if len(token) == _PNM_TOKEN_BYTES:
            raise ParseError(f"{r.path}: PNM header token longer than {_PNM_TOKEN_BYTES} bytes")
        token += ch


def _read_pnm_int(r: BoundedReader, name: str) -> int:
    """A header token that must be a positive decimal integer."""
    token = _read_pnm_token(r)
    if not token.isdigit() or int(token) == 0:
        raise ParseError(f"{r.path}: PNM {name} must be a positive integer, got {token!r}")
    return int(token)


def read_pnm(path: str) -> np.ndarray:
    """Read binary P5/P6 into (1, H, W) or (3, H, W) floats scaled to [0, 1]."""
    with BoundedReader(path, ParseError, "PNM") as r:
        magic = r.need(2)
        if magic not in (b"P5", b"P6"):
            raise ParseError(f"{path}: unsupported PNM magic {magic!r}")
        width, height, maxval = (_read_pnm_int(r, name)
                                 for name in ("width", "height", "maxval"))
        if maxval != 255:
            raise ParseError(f"{path}: only 8-bit PNM supported, maxval={maxval}")
        channels = 1 if magic == b"P5" else 3
        payload = r.need(width * height * channels)
        data = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
        return (data.transpose(2, 0, 1).astype(np.float32)) / 255.0


def write_pnm(image: np.ndarray, path: str) -> None:
    """Write a (1, H, W) or (3, H, W) [0, 1] float image as binary P5/P6."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[0] not in (1, 3):
        raise ShapeError(f"write_pnm expects (1|3, H, W), got shape {image.shape}")
    channels, height, width = image.shape
    quantized = np.rint(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)
    magic = b"P5" if channels == 1 else b"P6"
    with open(path, "wb") as f:
        f.write(magic + b"\n")
        f.write(f"{width} {height}\n255\n".encode("ascii"))
        f.write(quantized.transpose(1, 2, 0).tobytes())


# ---------------------------------------------------------------------------
# dataset persistence and loading
# ---------------------------------------------------------------------------

LEFT_PATTERN = "left_%05d.pgm"
RIGHT_PATTERN = "right_%05d.pgm"
GT_PATTERN = "gt_%05d.pfm"


def save_samples(samples: list[StereoSample], out_dir: str,
                 manifest_name: str = "manifest.txt", start_index: int = 0) -> str:
    """Write samples plus a tab-separated left/right/gt manifest; returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    lines = []
    for i, sample in enumerate(samples, start_index):
        left_path = os.path.join(out_dir, LEFT_PATTERN % i)
        right_path = os.path.join(out_dir, RIGHT_PATTERN % i)
        gt_path = os.path.join(out_dir, GT_PATTERN % i)
        write_pnm(denormalize_image(sample.left), left_path)
        write_pnm(denormalize_image(sample.right), right_path)
        write_pfm(sample.gt, gt_path)
        lines.append(f"{left_path}\t{right_path}\t{gt_path}")
    manifest_path = os.path.join(out_dir, manifest_name)
    with open(manifest_path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + ("\n" if lines else ""))
    return manifest_path


def read_manifest(path: str, columns: int = 3) -> list[tuple[str, ...]]:
    """The path tuples of a UTF-8 manifest, ``columns`` tab-separated paths
    a line: (left, right, gt) by default. ParseError on an unreadable file
    or a line with another number of paths."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except (OSError, ValueError) as e:  # ValueError: undecodable text, a NUL byte
        raise ParseError(f"cannot read manifest {path}: {e}")
    entries = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        parts = tuple(line.split("\t"))
        if len(parts) != columns:
            raise ParseError(f"{path}:{lineno}: expected {columns} tab-separated paths, "
                             f"got {len(parts)}")
        entries.append(parts)
    return entries


def load_dataset(manifest_path: str, max_disparity: int) -> list[StereoSample]:
    """Load samples named by a manifest, each with its :func:`valid_mask`."""
    samples = []
    for left_path, right_path, gt_path in read_manifest(manifest_path):
        left = normalize_image(read_pnm(left_path))
        right = normalize_image(read_pnm(right_path))
        gt = read_pfm(gt_path)
        if left.shape != right.shape:
            raise ShapeError(f"{left_path} vs {right_path}: image extents differ "
                             f"{left.shape} vs {right.shape}")
        if left.shape[1:] != gt.shape:
            raise ShapeError(f"{left_path} vs {gt_path}: image {left.shape[1:]} "
                             f"and ground truth {gt.shape} extents differ")
        samples.append(StereoSample(left=left, right=right, gt=gt,
                                    valid=valid_mask(gt, max_disparity)))
    return samples
