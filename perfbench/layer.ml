(* Per-layer metrics for the traced run.

   Each probe calls one layer's public functions on the inputs of an
   operation the workload just ran, outside that operation's timing,
   inside a [bench.*] span of a registry that runs on the CPU clock.
   A metric of a layer a workload never reaches reads 0. *)

module Json = Indaas_util.Json
module Prng = Indaas_util.Prng
module Obs = Indaas_obs.Registry
module Span = Indaas_obs.Span
module Depdb = Indaas_depdata.Depdb
module Dependency = Indaas_depdata.Dependency
module Graph = Indaas_faultgraph.Graph
module Bdd = Indaas_faultgraph.Bdd
module Cutset = Indaas_faultgraph.Cutset
module Builder = Indaas_sia.Builder
module Rank = Indaas_sia.Rank
module Sia_audit = Indaas_sia.Audit
module Report = Indaas_sia.Report
module Lint = Indaas_lint.Lint
module Frame = Indaas_service.Frame
module Client = Indaas_service.Client
module Snapshot = Indaas_service.Snapshot
module Cache = Indaas_service.Cache
module Commutative = Indaas_crypto.Commutative
module Oracle = Indaas_crypto.Oracle
module Digest = Indaas_crypto.Digest

(* The program's own spans, summarized per traced operation. *)
let program_spans =
  [ "service.request"; "service.compute"; "build"; "minimize"; "rank";
    "rg.enum"; "rg.bdd"; "pia.round" ]

let metrics =
  [
    ("frame.codec_us", "us"); ("frame.bytes_per_req", "B");
    ("server.hit_ms", "ms"); ("server.miss_ms", "ms");
    ("server.submit_ms", "ms"); ("server.stats_ms", "ms");
    ("cache.hit_ratio", "ratio"); ("cache.invalidated", "count");
    ("cache.evicted", "count");
    ("snapshot.submit_ms", "ms"); ("snapshot.get_ms", "ms");
    ("depdb.digest_ms", "ms"); ("depdb.parse_ms", "ms");
    ("depdb.records", "count");
    ("builder.build_ms", "ms"); ("graph.basic_events", "count");
    ("lint.graph_ms", "ms");
    ("bdd.compile_ms", "ms"); ("bdd.nodes", "count"); ("bdd.minsol_ms", "ms");
    ("enum.rg_ms", "ms"); ("rg.count", "count");
    ("rank.size_ms", "ms"); ("rank.prob_ms", "ms");
    ("probability.top_ms", "ms"); ("probability.exact_ms", "ms");
    ("report.render_ms", "ms"); ("report.kb", "KB");
    ("psop.eval_ms", "ms"); ("psop.crypto_ops", "count");
    ("psop.traffic_kb", "KB");
    ("commutative.encrypt_us", "us"); ("oracle.hash_to_group_us", "us");
    ("commutative.params_ms", "ms"); ("sha256.mb_per_s", "MB/s");
    ("trace.overhead_pct", "%");
  ]
  @ List.concat_map
      (fun s ->
        [
          ("span." ^ s ^ ".count", "count");
          ("span." ^ s ^ ".total_ms", "ms");
          ("span." ^ s ^ ".self_ms", "ms");
        ])
      program_spans

(* Samples per metric; a metric reports their mean. *)
type t = (string, float list) Hashtbl.t

let create () : t = Hashtbl.create 64

let add (t : t) name v =
  if not (List.mem_assoc name metrics) then invalid_arg ("Layer.add: " ^ name);
  Hashtbl.replace t name (v :: (try Hashtbl.find t name with Not_found -> []))

let value (t : t) name =
  match Hashtbl.find_opt t name with
  | Some samples -> Measure.mean (Array.of_list samples)
  | None -> 0.

(* One timed call, in milliseconds, inside its benchmark span. *)
let time t name f =
  Obs.with_span ("bench." ^ name) @@ fun () ->
  let r, s = Measure.timed f in
  add t name (s *. 1000.);
  r

(* CPU seconds per call of a call too short to time once: repeats it
   until [min_s] of CPU time has accrued. *)
let per_call ?(min_s = 0.02) f =
  let rec go n =
    let (), s = Measure.timed (fun () -> for _ = 1 to n do f () done) in
    if s >= min_s then s /. float_of_int n else go (2 * n)
  in
  go 1

(* --- program spans ------------------------------------------------------ *)

let span_summary t reg ~ops =
  let table = Hashtbl.create 8 in
  let rec visit span =
    let name = span.Span.name in
    if List.mem name program_spans then begin
      let dur = Span.duration_seconds span in
      let kids =
        List.fold_left (fun acc c -> acc +. Span.duration_seconds c) 0.
          (Span.children span)
      in
      let n, total, self =
        try Hashtbl.find table name with Not_found -> (0, 0., 0.)
      in
      Hashtbl.replace table name (n + 1, total +. dur, self +. dur -. kids)
    end;
    List.iter visit (Span.children span)
  in
  List.iter visit (Obs.roots reg);
  let per_op x = x /. float_of_int (max 1 ops) in
  List.iter
    (fun name ->
      let n, total, self =
        try Hashtbl.find table name with Not_found -> (0, 0., 0.)
      in
      add t ("span." ^ name ^ ".count") (per_op (float_of_int n));
      add t ("span." ^ name ^ ".total_ms") (per_op (total *. 1000.));
      add t ("span." ^ name ^ ".self_ms") (per_op (self *. 1000.)))
    program_spans

(* --- service layers ----------------------------------------------------- *)

(* Encode and decode one request and its response, as both ends of the
   wire do. *)
let codec t (exchanges : Wire.exchange list) =
  let pairs =
    List.map
      (fun (e : Wire.exchange) ->
        (e.Wire.sent, List.hd (Client.decode_responses e.Wire.received)))
      exchanges
  in
  let one (req, resp) =
    let dec = Frame.decoder () in
    Frame.feed dec (Frame.encode_request req);
    (match Frame.next dec with
    | Some j -> ignore (Frame.request_of_json j)
    | None -> failwith "codec probe: no frame");
    ignore (Client.decode_responses (Frame.encode_response resp))
  in
  let s =
    Obs.with_span "bench.frame.codec_us" @@ fun () ->
    per_call (fun () -> List.iter one pairs)
  in
  let n = float_of_int (max 1 (List.length pairs)) in
  add t "frame.codec_us" (s *. 1e6 /. n);
  let bytes (e : Wire.exchange) =
    String.length (Frame.encode_request e.Wire.sent) + String.length e.Wire.received
  in
  add t "frame.bytes_per_req"
    (float_of_int (List.fold_left (fun acc e -> acc + bytes e) 0 exchanges) /. n)

(* Service time by kind and the cache's counters, from the untraced
   phase ([phase_stats] holds the cache counters at the start of each
   phase, newest first), and the codec over one round's exchanges. *)
let service t ~untraced ~phase_stats ~exchanges =
  (match List.rev phase_stats with
  | (before : Cache.stats) :: (after : Cache.stats) :: _ ->
      List.iter
        (fun kind ->
          let l = Measure.latencies ~kind untraced in
          if Array.length l > 0 then
            add t ("server." ^ kind ^ "_ms") (Measure.mean l *. 1000.))
        [ "hit"; "miss"; "submit"; "stats" ];
      let hits = after.Cache.hits - before.Cache.hits in
      let lookups = hits + after.Cache.misses - before.Cache.misses in
      if lookups > 0 then
        add t "cache.hit_ratio" (float_of_int hits /. float_of_int lookups);
      let per_round n =
        float_of_int n /. float_of_int (max 1 untraced.Measure.rounds)
      in
      add t "cache.invalidated"
        (per_round (after.Cache.invalidated - before.Cache.invalidated));
      add t "cache.evicted" (per_round (after.Cache.evicted - before.Cache.evicted))
  | _ -> ());
  codec t (List.filter_map Fun.id (Array.to_list exchanges))

let sha256 t text =
  let s =
    Obs.with_span "bench.sha256.mb_per_s" @@ fun () ->
    per_call (fun () -> ignore (Digest.sha256 text))
  in
  add t "sha256.mb_per_s" (float_of_int (String.length text) /. s /. 1e6)

(* A mirror snapshot store fed the workload's submissions: [initial]
   are the set-up submissions, [deltas] those of one round. Returns the
   union DB for the audit probes. *)
let snapshot_and_depdb t ~initial ~deltas =
  let store = Snapshot.create () in
  let submit ~timed (source, text) =
    let records = time t "depdb.parse_ms" (fun () -> Dependency.of_xml_many text) in
    let go () = Snapshot.submit store ~snapshot:"default" ~source records in
    ignore (if timed then time t "snapshot.submit_ms" go else go ())
  in
  List.iter (submit ~timed:(deltas = [])) initial;
  List.iter (submit ~timed:true) deltas;
  let view = ref None in
  for _ = 1 to 5 do
    view := time t "snapshot.get_ms" (fun () -> Snapshot.get store ~snapshot:"default")
  done;
  let db = (Option.get !view).Snapshot.db in
  for _ = 1 to 3 do
    ignore (time t "depdb.digest_ms" (fun () -> Depdb.digest db))
  done;
  add t "depdb.records" (float_of_int (Depdb.size db));
  sha256 t (Depdb.to_string db);
  db

(* --- audit layers --------------------------------------------------------- *)

let audit_layers t db ~servers ?prob () =
  let component_probability = Option.map Builder.uniform_probability prob in
  let spec = Builder.spec ?component_probability servers in
  let graph = time t "builder.build_ms" (fun () -> Builder.build db spec) in
  add t "graph.basic_events" (float_of_int (Array.length (Graph.basic_ids graph)));
  ignore (time t "lint.graph_ms" (fun () -> Lint.run [ Lint.Fault_graph graph ]));
  let (m, _), compile_s =
    Obs.with_span "bench.bdd.compile_ms" @@ fun () ->
    Measure.timed (fun () -> Bdd.of_graph graph)
  in
  add t "bdd.compile_ms" (compile_s *. 1000.);
  add t "bdd.nodes" (float_of_int (Bdd.size m));
  let _, bdd_s =
    Obs.with_span "bench.bdd.minsol_ms" @@ fun () ->
    Measure.timed (fun () -> Bdd.minimal_risk_groups graph)
  in
  add t "bdd.minsol_ms" ((bdd_s -. compile_s) *. 1000.);
  let rgs = time t "enum.rg_ms" (fun () -> Cutset.minimal_risk_groups graph) in
  add t "rg.count" (float_of_int (List.length rgs));
  ignore (time t "rank.size_ms" (fun () -> Rank.size_based graph rgs));
  (match prob with
  | None -> ()
  | Some _ ->
      let rng = Prng.of_int 42 in
      ignore (time t "rank.prob_ms" (fun () -> Rank.probability_based rng graph rgs));
      ignore (time t "probability.top_ms" (fun () -> Rank.top_probability rng graph rgs));
      ignore (time t "probability.exact_ms" (fun () -> Bdd.graph_probability graph)));
  let ranking =
    match prob with None -> Sia_audit.Size_based | Some _ -> Sia_audit.Probability_based
  in
  (* The report layer needs a whole report; an audit that raises (the
     3-way probability fault) has none to render. *)
  match
    Sia_audit.audit db (Sia_audit.request ?component_probability ~ranking servers)
  with
  | report ->
      let text =
        time t "report.render_ms" (fun () ->
            Json.to_string (Report.deployment_to_json report))
      in
      add t "report.kb" (float_of_int (String.length text) /. 1000.)
  | exception _ -> ()

(* --- crypto layers -------------------------------------------------------- *)

let crypto_layers t rng params elements =
  let modulus = Commutative.modulus params in
  let key = Commutative.generate_key rng params in
  let group =
    List.map (fun e -> Oracle.hash_to_group e ~modulus) elements
  in
  let n = float_of_int (List.length elements) in
  let s =
    Obs.with_span "bench.oracle.hash_to_group_us" @@ fun () ->
    per_call (fun () ->
        List.iter (fun e -> ignore (Oracle.hash_to_group e ~modulus)) elements)
  in
  add t "oracle.hash_to_group_us" (s *. 1e6 /. n);
  let s =
    Obs.with_span "bench.commutative.encrypt_us" @@ fun () ->
    per_call (fun () ->
        List.iter (fun m -> ignore (Commutative.encrypt params key m)) group)
  in
  add t "commutative.encrypt_us" (s *. 1e6 /. n);
  ignore
    (time t "commutative.params_ms" (fun () ->
         Commutative.params_pohlig_hellman ~bits:256 rng));
  sha256 t (String.concat "\n" elements)

(* --- output --------------------------------------------------------------- *)

let print_table t =
  List.iter
    (fun (name, unit) ->
      Printf.printf "  %-30s %14.4f %s\n" name (value t name) unit)
    metrics
