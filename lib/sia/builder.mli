(** Fault-graph construction from dependency data — the auditing
    agent's Steps 1–6 of paper §4.1.1.

    Given the client's server list and the DepDB contents, builds the
    deployment's fault graph:

    - the top event is the failure of the whole redundancy deployment
      (a k-of-n gate over the servers: with [required] replicas needed
      alive out of [m], the deployment fails once [m - required + 1]
      servers fail; the default [required = 1] is the plain AND of
      Figure 4);
    - each server fails when its network, hardware or software fails
      (OR);
    - the network fails when every redundant path fails (AND), a path
      failing when any device on it fails (OR);
    - hardware fails when any physical component fails (OR);
    - software fails when any program fails, a program failing when
      any of its packages fails (OR over ORs).

    Components with equal identifiers are shared across the whole
    graph — that is precisely how common dependencies appear. *)

type spec = {
  servers : string list;  (** the redundant units to audit *)
  required : int;
      (** replicas that must stay alive; [1 <= required <= #servers] *)
  component_probability : string -> float option;
      (** failure probability per component identifier; return [None]
          for the unweighted (component-set / plain fault graph)
          levels of detail *)
}

val spec :
  ?required:int ->
  ?component_probability:(string -> float option) ->
  string list ->
  spec
(** [spec servers] with defaults: [required = 1], no probabilities. *)

val uniform_probability : float -> string -> float option
(** [uniform_probability p] assigns [p] to every component — the
    §6.2.1 cross-check assumption. *)

exception Unknown_server of string
(** A server with no records at all in the database: auditing a
    machine the DAMs never saw is a specification error, not an
    independent deployment. *)

val unknown_server_message : string -> string
(** ["Builder.build: no dependency records for server \"S\""] — the
    text the daemon answers {!Unknown_server} with. *)

val build : Indaas_depdata.Depdb.t -> spec -> Indaas_faultgraph.Graph.t
(** Raises {!Unknown_server} for a server without records, and
    [Invalid_argument] if [spec.servers] is empty or [required] is out
    of range. *)

val expected_rg_size : spec -> int
(** The intended minimal RG size: [#servers - required + 1]. A
    minimal RG strictly smaller is an {e unexpected RG} (§1). *)
