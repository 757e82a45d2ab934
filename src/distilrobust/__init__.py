"""Robust knowledge distillation for speech representations at desk scale:
online contamination with a progressive schedule, layer-wise distillation,
multi-task waveform enhancement, and a minimal autodiff core to train it all.
"""

from .audio import (
    DEFAULT_SAMPLE_RATE_HZ,
    RoomImpulseResponse,
    Waveform,
    convolve_rir,
    mix_at_snr,
    read_wav,
    rms,
    white_noise,
    write_wav,
)
from .augment import (
    AugmentAction,
    AugmentPlan,
    CurriculumState,
    apply_plan,
    augment_batch,
    load_manifest,
    load_noise_bank,
    load_rir_bank,
    reverb_threshold,
    sample_plan,
    snr_lower_bound,
    stable_hash,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateSignalError,
    DistilRobustError,
    NumericError,
    ParameterError,
    SampleRateError,
    ShapeError,
    UnsupportedWavError,
    WavFormatError,
)
from .gradchecks import gradcheck
from .losses import (
    IDENTITY_COSINE_TERM,
    KDLossParts,
    LossBreakdown,
    combined_loss,
    kd_loss,
    kd_loss_parts,
    l1_freq,
    l1_wav,
)
from .model import (
    StudentModel,
    StudentOutput,
    TeacherSurrogate,
    init_student_from_teacher,
    parameter_checksum,
    student_forward,
    teacher_forward,
)
from .tensor import (
    Tensor,
    backward,
    hann_window,
    tensor_from_bytes,
    tensor_to_bytes,
)
from .trainer import (
    AdamMoments,
    PAPER_SCALE_RECIPE,
    TrainConfig,
    TrainState,
    adamw_step,
    export_student,
    load_checkpoint,
    load_exported,
    load_metrics,
    lr_at,
    save_checkpoint,
    smoothed_loss,
    train,
)

__version__ = "0.1.0"
