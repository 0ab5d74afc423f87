"""Structure certificates for small-doubling sets in finite abelian groups.

Given a finite subset of a product of cyclic groups, the pipeline shrinks
the ambient group around the set, localizes 2A-2A spectrally to a Bohr
set, extracts a proper coset progression through the geometry of numbers,
transports it back, and covers the set by translates, emitting a
certificate whose every bound can be re-verified independently.
"""

from .errors import DomainError, InvariantError, ResourceLimitError, StructureError
from .groups import (
    Character,
    CyclicDecomposition,
    GroupElement,
    GroupSpec,
    Subgroup,
    enumerate_group,
    kernel_of_characters,
    subgroup_closure,
    subgroup_decomposition,
)
from .sumsets import (
    DoublingReport,
    GroupSet,
    difference_set,
    doubling,
    iterated_sumset,
    plunnecke_check,
    sumset,
)
from .fourier import (
    BohrSpec,
    BogolyubovReport,
    Cube,
    RieszFunction,
    SpecThresholdSet,
    Spectrum,
    bogolyubov_bohr,
    chang_bound_check,
    convolution_power_at,
    dissociation_witness,
    indicator_transform,
    is_dissociated,
    max_dissociated,
    riesz_moment_check,
    spec_threshold,
)
from .bohr import (
    BohrExtraction,
    CosetProgression,
    MinimaReport,
    bohr_set,
    materialize,
    progression_from_bohr,
    successive_minima,
    to_one_sided,
)
from .freiman import (
    FreimanMap,
    induced_difference_iso,
    is_freiman_hom,
    is_freiman_iso,
    transport_progression,
)
from .models import (
    ModelTrace,
    f2_shrink,
    find_concentrating_character,
    minimize_model,
    shrink_model_step,
    z_model,
)
from .covering import CoverInput, CoverTrace, chang_cover, greedy_disjoint_translates
from .generators import (
    explore_multiple_cover_sumset,
    gen_counterexample,
    gen_progression,
    gen_random,
    gen_random_in_progression,
    gen_subgroup,
)
from .pipeline import (
    PipelineCertificate,
    PipelineConfig,
    read_certificate,
    run_pipeline,
    verify_certificate,
    write_certificate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
