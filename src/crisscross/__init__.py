"""Deletion correcting codes for two-dimensional arrays.

A library for codes protecting n x n arrays against combined row and column
deletions: three code constructions with syndrome decoders, redundancy
bounds, exhaustive and randomized verification tools, and text serialization
for arrays and code parameters.
"""

from .bounds import (
    BoundDetail,
    CountReport,
    caro_wei_witness,
    count_good_exact,
    count_valid,
    gv_upper_bound,
    max_constant_composition_class,
    sp_lower_bound,
)
from .code_c1 import C1Params, c1_check, c1_decode, c1_enumerate, c1_syndromes
from .code_c2 import C2Params, c2_check, c2_decode, c2_syndromes, default_band_height
from .code_c3 import C3Params, c3_check, c3_decode, c3_syndromes
from .core_array import (
    Array2D,
    BurstPattern,
    DeletionPattern,
    array_from_text,
    array_to_text,
    burst_deletion_ball,
    deletion_ball,
    delete_rows_cols,
    enumerate_arrays,
    extract_residue_subarray,
    interleave_residue_subarrays,
    transpose,
)
from .errors import (
    AmbiguityError,
    CapacityError,
    CodePropertyError,
    CrissCrossError,
    InvalidParameterError,
    NotACodewordError,
    NotInstantiableError,
    SamplingError,
)
from .onedim import (
    comp_rank,
    composition,
    inversions,
    signature,
    signature_syndrome,
    vt_decode_known_symbol,
    vt_syndromes,
)
from .outcome import DecodeOutcome
from .params_io import (
    codebook_from_text,
    codebook_to_text,
    params_from_text,
    params_to_text,
)
from .reprs import ccr, cir, is_good, is_l_valid, is_l_weakly_valid, rir, rows_are_distinct
from .verify import (
    TrialConfig,
    TrialStats,
    VerificationReport,
    decode_by_codebook,
    duality_check,
    sample_good,
    sample_valid,
    sample_weakly_valid,
    simulate_trials,
    verify_codebook,
)

__version__ = "0.1.0"
