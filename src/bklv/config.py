"""Architecture description for the toy GQA decoder."""

import math
import numbers
from dataclasses import dataclass, fields

from .errors import ConfigError

MAX_SIZE = 2**31 - 1  # so a budget total of any real plan fits its int64 matrix


@dataclass(frozen=True)
class ModelConfig:
    """Shape of the model. Defaults are the desk-scale configuration used
    throughout the test suite: small enough that every pipeline stage runs
    in seconds, large enough that heads and layers behave differently.

    `num_q_heads` query heads share `num_kv_heads` key/value stores
    (grouped-query attention); consecutive query heads map to the same
    KV group.
    """

    num_layers: int = 4
    num_q_heads: int = 8
    num_kv_heads: int = 4
    head_dim: int = 16
    d_model: int = 128
    d_ff: int = 256
    vocab_size: int = 257
    max_context: int = 512
    rope_theta: float = 10000.0
    seed: int = 0

    @property
    def group_size(self) -> int:
        """Query heads per KV group."""
        return self.num_q_heads // self.num_kv_heads

    def validate(self) -> None:
        """The config rules, wherever a config comes from: integer fields are
        integers (not bool, str or float), sizes in [1, MAX_SIZE], seed >= 0,
        and rope_theta a finite positive real number."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "rope_theta":
                real = isinstance(value, numbers.Real) and not isinstance(value, bool)
                if not real or not 0 < value < math.inf:
                    raise ConfigError(f"rope_theta must be finite and positive, got {value!r}")
            elif isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            elif f.name == "seed" and value < 0:
                raise ConfigError(f"seed must be >= 0, got {value}")
            elif f.name != "seed" and not 1 <= value <= MAX_SIZE:
                raise ConfigError(f"{f.name} must be in [1, {MAX_SIZE}], got {value}")
        if self.num_q_heads % self.num_kv_heads != 0:
            raise ConfigError(
                f"num_q_heads not multiple of num_kv_heads "
                f"({self.num_q_heads} vs {self.num_kv_heads})"
            )
        if self.d_model != self.num_q_heads * self.head_dim:
            raise ConfigError(
                f"d_model must equal num_q_heads * head_dim "
                f"({self.d_model} != {self.num_q_heads} * {self.head_dim})"
            )
        if self.head_dim % 2 != 0:
            raise ConfigError(f"head_dim must be even for rotary positions, got {self.head_dim}")
        if self.max_context < 8:
            raise ConfigError(f"max_context must be >= 8, got {self.max_context}")
