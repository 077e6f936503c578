"""Risk-tuned annealed Langevin sampling for multicoil compressed-sensing
MRI reconstruction, with synthetic phantoms and analytic priors so the
whole pipeline is verifiable end to end."""

from .config import ExperimentConfig, derive_seed, load_config, parse_config_text
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
from .fourier import fft2c, ifft2c, norm2
from .metrics import psnr, ssim
from .phantom import PhantomSpec, coil_lobe_centers, make_phantom, make_synth_coils
from .priors import NoiseSchedule, ScorePrior, score
from .sampler import (
    METHODS,
    ReconReport,
    SamplerConfig,
    TraceRow,
    cg_solve,
    csgm_step,
    langevin_step,
    run_reconstruction,
    write_trace_csv,
)
from .sure import (
    NumericalError,
    TttConfig,
    TttState,
    draw_probe,
    early_stop_check,
    grad_sure_lambda,
    mc_sure,
    sure_known_sigma,
    update_lambda,
)
from .tensorfile import TensorFileError, load_tensor, save_tensor

__version__ = "0.1.0"
