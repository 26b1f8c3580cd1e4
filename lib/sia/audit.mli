(** The Structural Independence Auditing protocol (paper §4.1):
    build the dependency graph, determine risk groups, rank them, and
    produce a report — for one deployment or across all candidate
    deployments. *)

module Graph = Indaas_faultgraph.Graph
module Cutset = Indaas_faultgraph.Cutset
module Bdd = Indaas_faultgraph.Bdd
module Sampling = Indaas_faultgraph.Sampling

(** RG-determination backend (§4.1.2). *)
type rg_algorithm =
  | Minimal_rg
      (** exact: BDD compilation + Rauzy's minimal-solutions pass
          ({!Bdd.minimal_risk_groups}); no family budget. Returns the
          family {!Cutset.minimal_risk_groups} enumerates, in the same
          canonical order. *)
  | Failure_sampling of Sampling.config  (** linear-time, incomplete *)

val minimal_rg : rg_algorithm
(** [Minimal_rg]. *)

val failure_sampling : rounds:int -> rg_algorithm
(** Sampling with the paper's fair coins and witness shrinking. *)

val risk_groups :
  ?rng:Indaas_util.Prng.t -> ?algorithm:rg_algorithm -> Graph.t -> Cutset.rg list
(** The minimal RGs of [graph] under [algorithm] (default
    {!minimal_rg}), computed inside a [minimize] span. Every audit
    path — {!audit}, the daemon's [rg-query], [indaas dot
    --highlight-rg], [indaas importance] and [indaas coverage] —
    determines its RGs here. [rng] drives sampling only. *)

(** Ranking discipline (§4.1.3). *)
type ranking = Size_based | Probability_based

type request = {
  spec : Builder.spec;
  algorithm : rg_algorithm;
  ranking : ranking;
  top_n : int option;  (** RGs included in the independence score *)
}

val request :
  ?required:int ->
  ?component_probability:(string -> float option) ->
  ?algorithm:rg_algorithm ->
  ?ranking:ranking ->
  ?top_n:int ->
  string list ->
  request
(** Defaults: exact minimal-RG algorithm, size-based ranking, all RGs
    scored. *)

val uniform_request :
  required:int ->
  algorithm:[ `Minimal | `Sampling ] ->
  rounds:int ->
  prob:float option ->
  string list ->
  request
(** The request the [indaas sia]/[compare] flags and the daemon's
    audit parameters describe: the exact engine, or [rounds] rounds of
    failure sampling; a uniform component failure probability [prob]
    switches to probability-based ranking. *)

type deployment_report = {
  servers : string list;
  graph : Graph.t;
  ranked : Rank.ranked list;
  unexpected : Rank.ranked list;
      (** minimal RGs smaller than the intended size — empty for a
          truly independent deployment *)
  independence_score : float;
  failure_probability : float option;
      (** [Pr(T)] when probability ranking was used *)
  expected_rg_size : int;
  diagnostics : Indaas_lint.Diagnostic.t list;
      (** static-analysis findings over the deployment's fault graph
          (error and warning severities; hints are dropped) — the
          linter's structural pre-checks attached to every report *)
}

val audit :
  ?rng:Indaas_util.Prng.t -> Indaas_depdata.Depdb.t -> request -> deployment_report
(** Audit one deployment. [rng] drives sampling and Monte-Carlo
    estimation (defaults to a fixed seed for reproducibility). *)

val compare_reports : deployment_report -> deployment_report -> int
(** Deployment preference order for the final report: fewest
    unexpected RGs first, then lower failure probability (when
    available), then higher independence score, then server names. *)

val audit_candidates :
  ?rng:Indaas_util.Prng.t ->
  Indaas_depdata.Depdb.t ->
  candidates:string list list ->
  request ->
  deployment_report list
(** Audits every candidate server set (the request's own server list
    is ignored) and returns the reports best-first. This is how the
    client picks “the most independent redundancy deployment”
    (§4.1.4). *)

val choose_best :
  ?rng:Indaas_util.Prng.t ->
  Indaas_depdata.Depdb.t ->
  candidates:string list list ->
  request ->
  deployment_report
(** First element of {!audit_candidates}. Raises [Invalid_argument]
    on an empty candidate list. *)
