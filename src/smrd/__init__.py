"""Risk-tuned annealed Langevin sampling for multicoil compressed-sensing
MRI reconstruction, with synthetic phantoms and analytic priors so the
whole pipeline is verifiable end to end."""

from .config import ExperimentConfig
from .forward import (
    ForwardModel,
    NoiseSpec,
    NormalOperator,
    SamplingMask,
    add_kspace_noise,
    apply_adjoint,
    apply_forward,
    make_equispaced_mask,
    make_poisson_disc_mask,
)
from .metrics import psnr, ssim
from .phantom import PhantomSpec, make_phantom, make_synth_coils
from .priors import NoiseSchedule, ScorePrior
from .sampler import (
    METHODS,
    ReconReport,
    SamplerConfig,
    cg_solve,
    csgm_step,
    run_reconstruction,
    write_trace_csv,
)
from .sure import NumericalError, TttConfig
from .tensorfile import TensorFileError, load_tensor, save_tensor

__version__ = "0.1.0"
