"""Lending Petri nets, Horn contract logic, and the translation between them.

The package models nets whose places can lend tokens, composes them by
fusing equally labeled transitions and places, reads certain nets as
multiparty contracts, and compiles Horn contract theories into such nets so
that agreement, weak termination, and urgency can be decided on either side.
"""

from .analysis import (
    HONORED_GOAL,
    MarkingPredicate,
    Node,
    ReachGraph,
    backward_closure,
    explore,
    honored_always_reachable,
    is_occurrence_net,
    trace_set,
    urgent_at,
    urgent_for_done_set,
    weakly_terminates,
)
from .compiler import (
    agreement_via_net,
    clause_tid,
    compile_compose_commutes,
    compile_contract,
    delivery_pid,
    extend_with_facts,
    star_pid,
    urgent_via_net,
)
from .compose import (
    approximates,
    compatibility_problems,
    compatible,
    compose_many,
    is_strategy,
    oplus,
    tag_net,
    trace_equivalent,
    widen_alphabet,
)
from .contracts import (
    Configuration,
    ContractNet,
    Violation,
    agreement_reachable,
    compose_contract_nets,
    configuration,
    configuration_from_marking,
    honored_done_sets,
    reachable_configurations,
    urgent,
    validate,
    weakly_terminates_covering,
    weakly_terminates_in,
)
from .dot import export_dot
from .errors import (
    CompositionError,
    ContractError,
    DocumentError,
    FiringError,
    IncompleteExplorationError,
    NetStructureError,
    ToolkitError,
)
from .formats import (
    NetDocument,
    combine_goals,
    conjoin,
    contract_net_document,
    detect_kind,
    parse_contract,
    parse_net,
    serialize_contract,
    serialize_net,
)
from .logic import (
    HornClause,
    PCLContract,
    admits_agreement,
    compose_contracts,
    concat,
    contract,
    dedupe,
    fact,
    interleave,
    proof_traces,
    provable_atoms,
    trace_atom_sets,
    urgent_atoms,
    urgent_logic,
    with_facts,
)
from .nets import (
    DEFAULT_BUDGET,
    Atom,
    FiringSequence,
    LendingNet,
    Marking,
    Outcome,
    PlaceId,
    TransitionId,
    Verdict,
    enabled,
    enabled_transitions,
    fire,
    is_correctly_labeled,
    is_honored,
    is_safe,
    marking_of_state,
    run,
    state_of,
    subnet,
    trace_of,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
