"""Simple generative logic grammars from finite partition logics.

Parse a logic, enumerate its two-valued states, compile the generative
grammar, derive the token artifact, and render it (SVG tiles, incidence
schema, ANSI, HTML, logic-program source, or event stream); optionally
verify a Hilbert-space realization of the logic.
"""

from .errors import LogicFileError, NotSeparatingError, SglgError, ValidationError
from .grammar import (
    Derivation,
    Grammar,
    IncidenceReport,
    Production,
    RowViolation,
    check_incidence,
    compile_grammar,
    derive,
    production_text,
    productions_json,
)
from .logic import (
    BaseSetSpec,
    LogicFile,
    PartitionLogic,
    StateSet,
    enumerate_states,
    is_admissible,
    is_separating,
    logic_from_partitions,
    parse_logic_file,
    partition_representation,
    pinned_state_set,
    resolve_states,
    supports,
)
from .orthorep import (
    CheckResult,
    FaithfulnessReport,
    VectorRealization,
    build_v_realization,
    load_vector_file,
    verify_faithful,
)
from .render import (
    Backend,
    EventStream,
    RenderSpec,
    default_palette,
    emit_events,
    emit_logic_program,
    render_schema,
    render_text,
    render_tiles,
)

__version__ = "0.1.0"

# The public names are the ones imported above.
__all__ = sorted(
    name
    for name, value in globals().items()
    if getattr(value, "__module__", "").startswith(f"{__name__}.")
)
