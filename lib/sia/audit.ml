module Graph = Indaas_faultgraph.Graph
module Cutset = Indaas_faultgraph.Cutset
module Bdd = Indaas_faultgraph.Bdd
module Sampling = Indaas_faultgraph.Sampling
module Prng = Indaas_util.Prng
module Obs = Indaas_obs.Registry

type rg_algorithm = Minimal_rg | Failure_sampling of Sampling.config

let minimal_rg = Minimal_rg

let failure_sampling ~rounds =
  Failure_sampling { Sampling.default_config with Sampling.rounds }

type ranking = Size_based | Probability_based

type request = {
  spec : Builder.spec;
  algorithm : rg_algorithm;
  ranking : ranking;
  top_n : int option;
}

let request ?required ?component_probability ?(algorithm = minimal_rg)
    ?(ranking = Size_based) ?top_n servers =
  {
    spec = Builder.spec ?required ?component_probability servers;
    algorithm;
    ranking;
    top_n;
  }

let uniform_request ~required ~algorithm ~rounds ~prob servers =
  let algorithm =
    match algorithm with
    | `Minimal -> minimal_rg
    | `Sampling -> failure_sampling ~rounds
  in
  let component_probability = Option.map Builder.uniform_probability prob in
  let ranking = if prob = None then Size_based else Probability_based in
  request ~required ?component_probability ~algorithm ~ranking servers

type deployment_report = {
  servers : string list;
  graph : Graph.t;
  ranked : Rank.ranked list;
  unexpected : Rank.ranked list;
  independence_score : float;
  failure_probability : float option;
  expected_rg_size : int;
  diagnostics : Indaas_lint.Diagnostic.t list;
}

let algorithm_label = function
  | Minimal_rg -> "minimal_rg"
  | Failure_sampling _ -> "failure_sampling"

let risk_groups ?(rng = Prng.of_int 0xD1CE) ?(algorithm = minimal_rg) graph =
  Obs.with_span "minimize" ~attrs:[ ("algorithm", algorithm_label algorithm) ]
  @@ fun () ->
  let rgs =
    match algorithm with
    | Minimal_rg -> Bdd.minimal_risk_groups graph
    | Failure_sampling config ->
        (Sampling.run ~config rng graph).Sampling.risk_groups
  in
  Obs.span_attr "risk_groups" (string_of_int (List.length rgs));
  rgs

let audit ?(rng = Prng.of_int 0xD1CE) db request =
  let graph = Builder.build db request.spec in
  let rgs = risk_groups ~rng ~algorithm:request.algorithm graph in
  let ranked, score, failure_probability =
    Obs.with_span "rank" @@ fun () ->
    if Obs.on () then
      List.iter
        (fun rg ->
          Obs.observe
            ~bounds:[| 1.; 2.; 3.; 5.; 8.; 13.; 21. |]
            "rg.size"
            (float_of_int (Array.length rg)))
        rgs;
    match request.ranking with
    | Size_based ->
        let ranked = Rank.size_based graph rgs in
        (ranked, Rank.independence_score_size ?top_n:request.top_n ranked, None)
    | Probability_based ->
        let ranked = Rank.probability_based rng graph rgs in
        ( ranked,
          Rank.independence_score_importance ?top_n:request.top_n ranked,
          Some (Rank.top_probability rng graph rgs) )
  in
  let expected_rg_size = Builder.expected_rg_size request.spec in
  (* Structural pre-checks ride along with every report (hints are
     noise at this level: built graphs legitimately contain
     single-child pass-through gates). *)
  let diagnostics =
    Indaas_lint.Lint.run [ Indaas_lint.Lint.Fault_graph graph ]
    |> List.filter (fun d ->
           d.Indaas_lint.Diagnostic.severity <> Indaas_lint.Diagnostic.Hint)
  in
  {
    servers = request.spec.Builder.servers;
    graph;
    ranked;
    unexpected = Rank.unexpected ~expected_size:expected_rg_size ranked;
    independence_score = score;
    failure_probability;
    expected_rg_size;
    diagnostics;
  }

let compare_reports a b =
  match compare (List.length a.unexpected) (List.length b.unexpected) with
  | 0 -> (
      match (a.failure_probability, b.failure_probability) with
      | Some pa, Some pb when pa <> pb -> compare pa pb
      | _ ->
          (* Size-based score: higher is more independent. Full ties
             keep candidate order (stable sort below). *)
          compare b.independence_score a.independence_score)
  | c -> c

let audit_candidates ?rng db ~candidates request =
  List.map
    (fun servers ->
      audit ?rng db { request with spec = { request.spec with Builder.servers } })
    candidates
  |> List.stable_sort compare_reports

let choose_best ?rng db ~candidates request =
  match audit_candidates ?rng db ~candidates request with
  | best :: _ -> best
  | [] -> invalid_arg "Audit.choose_best: no candidates"
