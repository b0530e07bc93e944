"""Absorbing-state discrete text diffusion with a per-token spindle schedule."""

from .corpus import (
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
from .denoiser import (
    Checkpoint,
    DenoiserConfig,
    DenoiserParams,
    backward,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .diffusion import ScheduleParams, spindle_alpha_raw
from .evaluation import (
    MetricsReport,
    bleu4,
    elbo_eval,
    exact_elbo,
    model_predict_fn,
    quality_diversity_sweep,
    self_bleu4,
    sentence_bleu,
)
from .sampling import GenerationResult, SampleConfig, generate_batch, top_k_filter
from .training import (
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
