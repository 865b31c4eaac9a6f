"""Linear regression models used at every level of the RMI.

The paper uses plain linear regression (``y = a * x + b``) for the root, the
inner nodes, and the leaf nodes, because a linear model needs only two
parameters (16 bytes) and one multiply + one add per inference, and because
retraining it is cheap enough to do on every node expansion (Section 3.3.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class LinearModel:
    """A one-dimensional linear regression model ``y = slope * x + intercept``.

    The model maps a key to a (fractional) position.  Callers round/clamp the
    prediction into their array bounds via :meth:`predict_pos`.
    """

    slope: float = 0.0
    intercept: float = 0.0

    def predict(self, key: float) -> float:
        """Return the raw (unrounded, unclamped) predicted position."""
        return self.slope * key + self.intercept

    def predict_pos(self, key: float, size: int) -> int:
        """Return the predicted position rounded down and clamped to
        ``[0, size - 1]``.  Non-finite predictions (infinite keys, NaN)
        clamp to the nearest edge."""
        pos = self.slope * key + self.intercept
        if not (pos > 0):  # catches NaN and -inf too
            return 0
        if pos >= size:
            return size - 1
        return int(pos)

    def predict_pos_vec(self, keys: np.ndarray, size: int) -> np.ndarray:
        """Vectorized :meth:`predict_pos` for bulk operations."""
        pos = self.slope * keys + self.intercept
        pos = np.clip(pos, 0, size - 1)       # clamp before the int cast so
        pos = np.nan_to_num(pos, nan=0.0)     # non-finite values stay legal
        return pos.astype(np.int64)

    def scale(self, factor: float) -> None:
        """Rescale the output range by ``factor`` in place.

        Used by Algorithm 3: after a node expansion the model trained to
        predict positions in ``[0, num_keys)`` is multiplied by
        ``expanded_size / num_keys`` so that it predicts into the expanded
        array.
        """
        self.slope *= factor
        self.intercept *= factor

    def copy(self) -> "LinearModel":
        """Return an independent copy of this model."""
        return LinearModel(self.slope, self.intercept)

    @classmethod
    def train(cls, keys: np.ndarray, positions: np.ndarray) -> "LinearModel":
        """Fit ``positions ≈ slope * keys + intercept`` by least squares.

        Every sum is a strictly sequential float64 sum (``np.cumsum``'s
        last element, never a pairwise mean or a BLAS ``dot``), so the
        compiled leaf-build kernel, which runs the same loop in C without
        multiply-add contraction, reproduces the exact bits.  Degenerate
        inputs — no keys, all keys equal, or keys so far apart that the
        centred sum of squares or the slope is not finite — produce a flat
        model that predicts the mean position, which downstream code
        treats as "model is uninformative" and compensates for with
        search.
        """
        n = len(keys)
        if n == 0:
            return cls(0.0, 0.0)
        keys = np.asarray(keys, dtype=np.float64)
        positions = np.asarray(positions, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            key_mean = np.cumsum(keys)[-1] / n
            pos_mean = np.cumsum(positions)[-1] / n
            centered = keys - key_mean
            denom = np.cumsum(centered * centered)[-1]
            num = np.cumsum(centered * (positions - pos_mean))[-1]
            if not np.isfinite(denom) or denom == 0.0:
                return cls(0.0, float(pos_mean))
            slope = num / denom
            if not np.isfinite(slope):
                return cls(0.0, float(pos_mean))
            return cls(float(slope), float(pos_mean - slope * key_mean))

    @classmethod
    def train_cdf(cls, keys: np.ndarray, n_positions: int) -> "LinearModel":
        """Fit a model mapping sorted ``keys`` onto ``[0, n_positions)``.

        This is the standard "learn the CDF" construction: key ``keys[i]``
        is regressed against the scaled rank ``i * (n_positions /
        len(keys))``.  It is the reference for the kernels' ``fit_cdf``
        and for the fit inside ``fit_place``.
        """
        n = len(keys)
        if n == 0:
            return cls(0.0, 0.0)
        ranks = np.arange(n, dtype=np.float64) * (n_positions / n)
        return cls.train(keys, ranks)

    @classmethod
    def train_endpoints(cls, lo_key: float, hi_key: float, n_positions: int) -> "LinearModel":
        """Fit a model that maps ``[lo_key, hi_key]`` linearly onto
        ``[0, n_positions)`` (pure interpolation, used for key-space
        partitioning at inner nodes)."""
        if hi_key <= lo_key:
            return cls(0.0, 0.0)
        slope = n_positions / (hi_key - lo_key)
        return cls(slope, -slope * lo_key)

    SIZE_BYTES = 16  # two float64 parameters, per Section 5.1

    def size_bytes(self) -> int:
        """Storage footprint of the model parameters (paper Section 5.1)."""
        return self.SIZE_BYTES
