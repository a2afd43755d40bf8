"""Closed-form parameter counts of the adaptive mechanisms, the oracle that
the model's parameter accounting is checked against."""

from axvector.model import ArchConfig


def conv_param_count(kernel: int, in_dim: int, out_dim: int) -> int:
    return kernel * in_dim * out_dim + out_dim


def acnn_param_overhead(config: ArchConfig) -> int:
    """Extra parameters of the adaptive conv layer over its static twin."""
    i = config.acnn_layer_index - 1
    in_dim = config.input_dim if i == 0 else config.frame_dims[i - 1]
    out_dim = config.frame_dims[i]
    kernel = config.kernel_sizes[i]
    h = config.attention_hidden
    n = config.pool_size
    attention = (in_dim * h + h) + h + (2 * in_dim * n + n)
    return (n - 1) * conv_param_count(kernel, in_dim, out_dim) + attention


def abn_param_overhead(config: ArchConfig) -> int:
    """Extra parameters of adaptive normalization over plain BN, summed over
    the frame layers that carry it under the configured variant."""
    if config.variant == "abn":
        layers_with_abn = list(range(1, 6))
    elif config.variant == "acnn_abn":
        layers_with_abn = [i for i in range(1, 6) if i != config.acnn_layer_index]
    else:
        return 0
    h = config.attention_hidden
    total = 0
    for i in layers_with_abn:
        c = config.frame_dims[i - 1]
        # ctx map + two generator maps, minus the dropped fixed gamma/beta
        total += (c * h + h) + 2 * (h * c + c) - 2 * c
    return total
