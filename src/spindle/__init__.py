"""Absorbing-state discrete text diffusion with a per-token spindle schedule.

Allocator policy: importing the package pins glibc's mmap threshold at
32 MiB and its trim threshold at 64 MiB, and keeps every thread on one
malloc arena (`_keep_freed_heap`). Training, evaluation and sampling run
the same array shapes call after call, and each call frees its tensors
before the next one allocates them again. Under glibc's default sliding
thresholds that freed heap goes back to the kernel and the next call
faults every page of it back in: over 10k minor page faults per desk
training step, and a tenth or more of the step spent in the kernel. With
the thresholds pinned the freed blocks stay in the process and are reused;
peak memory is unchanged, and so is every result. Loss calls run their
length groups on two threads: forward-only calls two groups at once,
training calls one group's backward beside the next group's forward. The
sampler runs the two halves of a multi-chain call's chains at once, each
a forward and its top-k. Under glibc's default each thread gets an arena
of its own, whose freed blocks the others cannot reuse: desk benchmark
runs on a 2-core x86_64 box, with only forward-only loss calls threaded,
then peaked at 164 MB, against 115 MB on one arena (3 runs each).
"""

import ctypes
import os

# glibc's mallopt parameter numbers (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


def _keep_freed_heap(libc) -> None:
    """Pin glibc's mmap and trim thresholds through `libc.mallopt`, at the
    ceilings glibc's own sliding thresholds reach (32 MiB for mmap, twice
    that for trim), and cap its arenas at one. Blocks under 32 MiB then come
    from the one heap every thread shares, and freed ones are reused instead
    of being unmapped or trimmed. Both thresholds are set: setting either
    alone turns glibc's sliding rule off and leaves the other threshold at
    its small default. A libc without mallopt, or a mallopt that refuses a
    value, changes nothing."""
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)
        mallopt(_M_ARENA_MAX, 1)


if os.name == "posix":
    _keep_freed_heap(ctypes.CDLL(None))

from .corpus import (  # noqa: E402
    CLS_ID,
    MASK_ID,
    PAD_ID,
    UNK_ID,
    SurprisalTable,
    Vocab,
    build_vocab,
    detokenize,
    surprisal_table,
    tokenize,
)
from .denoiser import (  # noqa: E402
    Checkpoint,
    DenoiserConfig,
    DenoiserParams,
    backward,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .diffusion import ScheduleParams, spindle_alpha_raw  # noqa: E402
from .evaluation import (  # noqa: E402
    bleu4,
    elbo_eval,
    exact_elbo,
    model_predict_fn,
    quality_diversity_sweep,
    self_bleu4,
)
from .sampling import GenerationResult, SampleConfig, generate_batch, top_k_filter  # noqa: E402
from .training import (  # noqa: E402
    AdamState,
    LossBreakdown,
    TrainConfig,
    TrainResult,
    adam_step,
    diffusion_loss_batch,
    learning_rate_at,
    mlm_pretrain_step,
    run_training,
)

__version__ = "0.1.0"
