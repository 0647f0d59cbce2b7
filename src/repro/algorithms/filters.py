"""Data-filtering algorithms (paper Section 3.6).

Noise reduction via moving / exponential moving averages on scalar
streams, and FFT-based low/high-pass filtering on frames.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.algorithms.base import StreamAlgorithm, StreamShape, register
from repro.algorithms.kernels import batched_window_means, window_means
from repro.algorithms.transforms import fft_cycles
from repro.errors import ParameterError
from repro.sensors.samples import BatchedChunk, Chunk, ChunkBuffer, StreamKind


@register("movingAvg")
class MovingAverage(StreamAlgorithm):
    """Sliding-window mean over a scalar stream.

    Parameters:
        size: Window length in samples.

    Faithful to the paper's interpreter semantics (Section 3.5): "a
    moving average with a window size of N will not produce a result
    until it has received N data points" — the first output item is
    emitted for the N-th input sample, then one output per input.
    """

    n_inputs = 1
    input_kind = StreamKind.SCALAR
    output_kind = StreamKind.SCALAR
    chunk_invariant = True
    incremental = True
    param_order = ("size",)

    def __init__(self, size: int):
        super().__init__(size=size)
        self.size = self._require_positive_int("size", size)
        self._carry = ChunkBuffer()

    def process(self, chunks: Sequence[Chunk]) -> Chunk:
        (chunk,) = chunks
        self._carry.extend(chunk)
        n = len(self._carry)
        if n < self.size:
            return Chunk.empty(StreamKind.SCALAR, chunk.rate_hz)
        # Each output is the mean of exactly its window's samples,
        # summed left to right (`window_means`).  Unlike a running
        # cumulative sum — whose rounding depends on where the carry
        # buffer happens to start — every window mean is a pure function
        # of the window contents with a fixed operation order, which is
        # what makes this opcode bitwise chunk-invariant and eligible
        # for the compiled and incremental paths.
        means = window_means(self._carry.values, self.size)
        times = self._carry.times[self.size - 1:]
        # Keep the last size-1 samples as carry for the next chunk.
        self._carry.consume(n - (self.size - 1))
        return Chunk.scalars(times, means, chunk.rate_hz)

    def lower(self, chunks: Sequence[Chunk]) -> Chunk:
        """Whole-trace window means; the carry buffer collapses away."""
        (chunk,) = chunks
        if len(chunk) < self.size:
            return Chunk.empty(StreamKind.SCALAR, chunk.rate_hz)
        return Chunk.view(
            StreamKind.SCALAR,
            chunk.times[self.size - 1:],
            window_means(chunk.values, self.size),
            chunk.rate_hz,
        )

    def lower_batched(self, batches: Sequence[BatchedChunk]) -> BatchedChunk:
        """Per-row window means in one 2-D pass.

        The batched kernel accumulates the same contiguous column
        slices in the same order as the per-trace kernel, so every
        row's valid windows are bitwise identical; rows shorter than
        the window simply get length 0.
        """
        (batch,) = batches
        if batch.n_max < self.size:
            rows = batch.batch_size
            return BatchedChunk.view(
                StreamKind.SCALAR,
                np.zeros((rows, 0)),
                np.zeros((rows, 0)),
                np.zeros(rows, dtype=np.int64),
                batch.rate_hz,
            )
        return BatchedChunk.view(
            StreamKind.SCALAR,
            batch.times[:, self.size - 1:],
            batched_window_means(batch.values, self.size),
            np.maximum(batch.lengths - (self.size - 1), 0),
            batch.rate_hz,
        )

    def reset(self) -> None:
        self._carry.clear()

    def incremental_retention(self, merged: Chunk, seen: int) -> int:
        """Keep the last ``size - 1`` samples: too few for a window on
        their own, exactly the predecessors every future window needs."""
        return min(seen, self.size - 1)

    def cycles_per_item(self, in_shapes: Sequence[StreamShape]) -> float:
        # Running-sum implementation: add, subtract, divide per sample.
        return 12.0


@register("expMovingAvg")
class ExponentialMovingAverage(StreamAlgorithm):
    """First-order IIR smoother ``y[n] = a*x[n] + (1-a)*y[n-1]``.

    Parameters:
        alpha: Smoothing factor in ``(0, 1]``.  Larger alpha tracks the
            input more closely; smaller alpha smooths more aggressively.

    Emits one output per input starting with the very first sample
    (seeded with that sample).
    """

    n_inputs = 1
    input_kind = StreamKind.SCALAR
    output_kind = StreamKind.SCALAR
    # Deliberately NOT chunk-invariant: the loop path (short chunks) and
    # the blockwise closed-form path (longer chunks) accumulate rounding
    # in a different order, so re-chunking can change results at ulp
    # level.  Any graph containing this opcode therefore stays on the
    # round-by-round interpreter.
    chunk_invariant = False
    param_order = ("alpha",)

    #: Samples per closed-form block on the vectorized path.  Bounds the
    #: largest decay power ever computed at ``(1-alpha)**_BLOCK``, so
    #: long audio chunks can neither underflow nor cost O(n^2) work the
    #: way a whole-chunk convolution did.
    _BLOCK = 64

    def __init__(self, alpha: float):
        super().__init__(alpha=alpha)
        self.alpha = self._require_float("alpha", alpha)
        if not 0.0 < self.alpha <= 1.0:
            raise ParameterError(f"expMovingAvg: alpha must be in (0, 1], got {alpha}")
        self._state: float | None = None
        self._lower_triangle: np.ndarray | None = None

    def process(self, chunks: Sequence[Chunk]) -> Chunk:
        (chunk,) = chunks
        if chunk.is_empty:
            return chunk
        x = chunk.values
        prev = x[0] if self._state is None else self._state
        decay = 1.0 - self.alpha
        if len(x) > self._BLOCK:
            out = self._scan_blockwise(x, prev)
        else:
            out = np.empty_like(x)
            y = prev
            for i, xi in enumerate(x):
                y = self.alpha * xi + decay * y
                out[i] = y
        self._state = float(out[-1])
        return Chunk.scalars(chunk.times, out, chunk.rate_hz)

    def _scan_blockwise(self, x: np.ndarray, prev: float) -> np.ndarray:
        """O(n) closed-form scan, one fixed-size block at a time.

        Within a block of ``B`` samples the recurrence has the closed
        form ``y[k] = (1-a)^(k+1) * prev + a * sum_{j<=k} (1-a)^(k-j)
        x[j]``; the inner sums for *all* blocks are one matmul against a
        precomputed lower-triangular decay matrix, and the carry from
        block to block follows the scalar recurrence ``prev' = (1-a)^B
        * prev + a * local[-1]``.  Total work is O(n * B) with
        contiguous BLAS-friendly operands — linear in the chunk, unlike
        the previous full-length convolution (quadratic, and its
        ``decay ** arange(n)`` powers underflowed on long audio
        chunks).
        """
        n = len(x)
        block = self._BLOCK
        decay = 1.0 - self.alpha
        if self._lower_triangle is None:
            offsets = np.arange(block)
            exponents = offsets[:, None] - offsets[None, :]
            self._lower_triangle = np.where(
                exponents >= 0, decay ** np.maximum(exponents, 0), 0.0
            )
        n_blocks = -(-n // block)
        padded = np.zeros(n_blocks * block, dtype=np.float64)
        padded[:n] = x
        # local[i, k] = sum_{j<=k} decay^(k-j) * x[i*B + j]
        local = padded.reshape(n_blocks, block) @ self._lower_triangle.T
        # Scalar carry recurrence across blocks (n/B plain-float steps).
        decay_block = decay ** block
        tail = self.alpha * local[:, -1]
        carries = np.empty(n_blocks, dtype=np.float64)
        carry = prev
        for i, t in enumerate(tail.tolist()):
            carries[i] = carry
            carry = decay_block * carry + t
        powers = decay ** np.arange(1, block + 1)
        out = powers[None, :] * carries[:, None] + self.alpha * local
        return out.reshape(-1)[:n]

    def reset(self) -> None:
        self._state = None

    def cycles_per_item(self, in_shapes: Sequence[StreamShape]) -> float:
        return 10.0


class _FFTBandFilter(StreamAlgorithm):
    """Shared implementation for FFT-based low/high-pass filtering.

    Each input frame is transformed, bins outside the pass band are
    zeroed, and the frame is transformed back.  ``cutoff_hz`` maps to a
    bin index through the frame's underlying sample rate.
    """

    n_inputs = 1
    input_kind = StreamKind.FRAME
    output_kind = StreamKind.FRAME
    # Per-frame transform: each output frame depends only on its input
    # frame, never on chunk boundaries.
    chunk_invariant = True
    incremental = True
    param_order = ("cutoff_hz",)

    #: True keeps bins below the cutoff (low-pass); False keeps above.
    keep_low = True

    def __init__(self, cutoff_hz: float):
        super().__init__(cutoff_hz=cutoff_hz)
        self.cutoff_hz = self._require_float("cutoff_hz", cutoff_hz)
        if self.cutoff_hz <= 0:
            raise ParameterError(f"{self.opcode}: cutoff_hz must be positive")

    def process(self, chunks: Sequence[Chunk]) -> Chunk:
        (chunk,) = chunks
        if chunk.is_empty:
            return chunk
        width = chunk.values.shape[1]
        spectra = np.fft.rfft(chunk.values, axis=1)
        freqs = np.fft.rfftfreq(width, d=1.0 / chunk.rate_hz)
        mask = freqs <= self.cutoff_hz if self.keep_low else freqs >= self.cutoff_hz
        spectra[:, ~mask] = 0.0
        filtered = np.fft.irfft(spectra, n=width, axis=1)
        return Chunk(StreamKind.FRAME, chunk.times, filtered, chunk.rate_hz)

    def lower(self, chunks: Sequence[Chunk]) -> Chunk:
        """Stateless per-frame transform: the whole trace is one process call."""
        return self.process(chunks)

    def lower_batched(self, batches: Sequence[BatchedChunk]) -> BatchedChunk:
        """Itemwise: each frame filters independently, so the batch
        axis folds into the item axis (padding frames are zeros)."""
        return self._lower_batched_itemwise(batches)

    def cycles_per_item(self, in_shapes: Sequence[StreamShape]) -> float:
        # Forward FFT + masking + inverse FFT per frame.
        width = in_shapes[0].width
        return 2.0 * fft_cycles(width) + 4.0 * width


@register("lowPass")
class LowPassFilter(_FFTBandFilter):
    """FFT-based low-pass filter keeping content at or below ``cutoff_hz``."""

    keep_low = True


@register("highPass")
class HighPassFilter(_FFTBandFilter):
    """FFT-based high-pass filter keeping content at or above ``cutoff_hz``.

    The siren detector's first stage (a 750 Hz high-pass removing most
    non-siren sound, Section 3.7.2) is an instance of this algorithm.
    """

    keep_low = False
