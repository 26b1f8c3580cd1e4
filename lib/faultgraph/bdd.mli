(** Binary decision diagrams over fault graphs.

    The classic fault-tree analysis literature the paper builds on
    (Vesely et al.; Ramamoorthy et al.) is dominated today by BDD
    methods: compile the top event's structure function into a reduced
    ordered BDD, then compute the exact top-event probability in time
    linear in the BDD — no 2^m inclusion–exclusion over minimal risk
    groups, no Monte-Carlo error. This module provides that third
    exact path and the ablation benchmark compares all three.

    Variables are the graph's basic events, ordered by topological
    position. Hash-consing keeps the diagram reduced; [apply] is
    memoized per operation. *)

type manager
type node

val of_graph : Graph.t -> manager * node
(** Compiles the top event. AND/OR/k-of-n gates are supported. *)

val of_family : manager -> Graph.node_id array list -> node
(** The union of the given risk groups — an OR of ANDs over basic
    events of the compiled graph — built in the same manager, so its
    probability comes from {!probability}. An empty list is the
    constant false. Raises [Not_found] on an id that is not a basic
    event of the graph. *)

val size : manager -> int
(** Unique decision nodes allocated in the manager. *)

val node_count : manager -> node -> int
(** Decision nodes reachable from [node]. *)

val evaluate : manager -> node -> failed:(Graph.node_id -> bool) -> bool
(** Follows the decision path for one assignment. *)

val probability : manager -> node -> prob_of:(Graph.node_id -> float) -> float
(** Exact [Pr(top event)] under independent basic-event failure
    probabilities. *)

val graph_probability : Graph.t -> float
(** Convenience: compile and evaluate with the graph's attached
    probabilities. Raises
    {!Probability.Missing_probability} if a reachable basic event
    has none. *)

val sat_count : manager -> node -> vars:int -> float
(** Number of failure states: assignments of [vars] variables under
    which the top event occurs (as a float — it can exceed 2^62). *)

val prob_of_var : manager -> node -> Graph.node_id
(** The decision variable of an internal node. Raises
    [Invalid_argument] on a terminal. *)

val is_terminal : manager -> node -> bool option
(** [Some b] when the node is the constant [b]; [None] otherwise. *)

(** {1 Minimal risk groups}

    The second RG engine (besides {!Cutset.minimal_risk_groups}):
    compile the top event into a BDD, then extract its minimal
    solutions with Rauzy's [without]/[minsol] pass. Families are held
    in a zero-suppressed sub-store of the manager, and [minsol],
    [union] and [without] are all memoized there, so shared fault-graph
    structure is minimized once — no explicit family enumeration until
    the final read-out. Sound for the monotone functions fault graphs
    denote (AND/OR/k-of-n over positive events). *)

val minimal_risk_groups :
  ?max_size:int -> Graph.t -> Graph.node_id array list
(** All minimal RGs of the top event, in {!Cutset.sort_family} order —
    the same family (and order) the enumeration engine returns.

    @param max_size drop RGs larger than this bound from the result
    (the symbolic pass itself is unbounded). *)

val minimal_rg_count : Graph.t -> int
(** Number of minimal RGs, counted on the shared family structure
    without materializing any of them. *)
