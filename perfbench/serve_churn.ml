(* serve-churn: a request stream against one daemon over the v1 wire
   protocol. The snapshot is a k=8 fat-tree holding the route records
   of all 128 servers, one source per pod. A round of 200 requests
   mixes audits and rg-queries over a skewed pool of 2-way deployments,
   four submit-deps deltas that rewrite one pod's source, and four
   stats requests. *)

module Prng = Indaas_util.Prng
module Dependency = Indaas_depdata.Dependency
module Client = Indaas_service.Client
module Server = Indaas_service.Server
module Frame = Indaas_service.Frame
module Cache = Indaas_service.Cache

let name = "serve-churn"
let tail = 0.99
let warmup = true
let quiesce = false
let k = 8
let round_length = 200
let pool_size = 12

type query = { meth : string; cls : Fat.cls; servers : string list }

(* A delta drops one route record of a server outside the pool, or
   restores it. Either way every audited answer stays the same. *)
type delta = { source : string; text : string; count : int; restore : bool }

type op = Query of query | Delta of delta | Stats

type t = {
  fat : Fat.t;
  srv : Server.t;
  ops : op array;
  requests : Frame.request array;
  sources : (string * string) list;  (** initial per-pod wire text *)
  total : int;  (** records in the initial snapshot *)
  base_digest : string;
  mutable digest : string;  (** the digest the snapshot should have now *)
  altered : (string, string) Hashtbl.t;  (** delta source -> its digest *)
  first : (string * string list, string) Hashtbl.t;
      (** (method, servers) -> the first payload seen *)
  last : Wire.exchange option array;  (** one round's, for the codec probe *)
  mutable phase_stats : Cache.stats list;  (** newest first *)
}

let pod_servers (fat : Fat.t) pod =
  List.init (fat.Fat.h * fat.Fat.h) (fun i -> (pod * fat.Fat.h * fat.Fat.h) + i)

(* The classes rotate through the popularity ranks, so each seed's pool
   has the same make-up; the seed picks the servers. *)
let pool_classes = [| Fat.Same_rack; Fat.Same_pod; Fat.Cross_pod 2 |]

(* Zipf(1) popularity over the pool, and the request schedule, come from
   a fixed stream: every seed runs the same mix of kinds, classes and
   popularity ranks. *)
let schedule () =
  let rng = Prng.of_int 0x5e7e in
  let weights = Array.init pool_size (fun r -> 1. /. float_of_int (r + 1)) in
  let total = Array.fold_left ( +. ) 0. weights in
  let draw () =
    let x = Prng.float rng *. total in
    let rec go r acc =
      if r = pool_size - 1 || acc +. weights.(r) > x then r else go (r + 1) (acc +. weights.(r))
    in
    go 0 0.
  in
  Array.init round_length (fun p ->
      if p mod 50 = 0 then `Delta (p / 50)
      else if p mod 50 = 25 then `Stats
      else
        let meth = if Prng.float rng < 0.7 then "audit" else "rg-query" in
        `Query (meth, draw ()))

let setup ~seed =
  let rng = Prng.of_int seed in
  let fat = Fat.create ~k in
  let pods = Fat.pods fat in
  let pod_records = Array.init pods (fun p -> List.concat_map (Fat.records fat) (pod_servers fat p)) in
  let sources =
    List.init pods (fun p ->
        (Printf.sprintf "pod%d" p, Dependency.to_xml_many pod_records.(p)))
  in
  let pool =
    Array.fold_left
      (fun taken i ->
        let cls = pool_classes.(i mod Array.length pool_classes) in
        taken @ [ (cls, Fat.pick rng fat cls ~taken:(List.map snd taken)) ])
      []
      (Array.init pool_size Fun.id)
    |> Array.of_list
  in
  let in_pool s = Array.exists (fun (_, d) -> List.mem s d) pool in
  (* Two delta targets in distinct pods, each a server outside the pool
     losing one of its routes. *)
  let target_pods = Prng.sample_without_replacement rng 2 (Array.init pods Fun.id) in
  let deltas =
    Array.to_list target_pods
    |> List.concat_map (fun pod ->
           let candidates = List.filter (fun s -> not (in_pool s)) (pod_servers fat pod) in
           let server = List.nth candidates (Prng.int rng (List.length candidates)) in
           let victim =
             List.nth (Fat.records fat server) (Prng.int rng (fat.Fat.h * fat.Fat.h))
           in
           let kept = List.filter (fun r -> not (Dependency.equal r victim)) pod_records.(pod) in
           let source = Printf.sprintf "pod%d" pod in
           [
             { source; text = Dependency.to_xml_many kept; count = List.length kept; restore = false };
             {
               source;
               text = List.assoc source sources;
               count = List.length pod_records.(pod);
               restore = true;
             };
           ])
    |> Array.of_list
  in
  let ops =
    Array.map
      (function
        | `Delta j -> Delta deltas.(j)
        | `Stats -> Stats
        | `Query (meth, r) ->
            let cls, d = pool.(r) in
            Query { meth; cls; servers = List.map (Fat.name fat) d })
      (schedule ())
  in
  let requests =
    Array.mapi
      (fun i op ->
        let id = i + 1 in
        match op with
        | Query { meth = "audit"; servers; _ } -> Client.audit ~id ~servers ()
        | Query { servers; _ } -> Client.rg_query ~id ~servers ()
        | Delta d -> Client.submit_deps ~id ~source:d.source ~records:d.text ()
        | Stats -> Client.stats ~id)
      ops
  in
  let srv = Server.create () in
  let digest =
    List.fold_left
      (fun _ (source, records) ->
        let reply = Wire.call srv (Client.submit_deps ~id:0 ~source ~records ()) in
        match Wire.ok_json reply with
        | Some j -> Wire.string_at [ "digest" ] j
        | None -> failwith ("serve-churn: initial submission refused: " ^ source))
      "" sources
  in
  {
    fat;
    srv;
    ops;
    requests;
    sources;
    total = Array.fold_left (fun acc rs -> acc + List.length rs) 0 pod_records;
    base_digest = digest;
    digest;
    altered = Hashtbl.create 4;
    first = Hashtbl.create 32;
    last = Array.make round_length None;
    phase_stats = [];
  }

let length _ = round_length

let check_query t (q : query) reply =
  let label = Printf.sprintf "%s %s [%s]" q.meth (Fat.cls_name q.cls) (String.concat "," q.servers) in
  match (Wire.ok_payload reply, Wire.ok_json reply) with
  | Some payload, Some json -> (
      match Hashtbl.find_opt t.first (q.meth, q.servers) with
      | Some earlier ->
          (* Hit or miss, under whichever digest: the same bytes. *)
          Measure.check (payload = earlier) "%s: answer differs from the first one" label
      | None ->
          Hashtbl.replace t.first (q.meth, q.servers) payload;
          if q.meth = "audit" then
            Fat.check_audit t.fat ~label ~cls:q.cls ~servers:q.servers json
          else Fat.check_rg_query t.fat ~label ~cls:q.cls ~servers:q.servers json)
  | _ -> Measure.problem "%s: error response" label

let check_delta t d reply =
  match Wire.ok_json reply with
  | None -> Measure.problem "submit-deps %s refused" d.source
  | Some j ->
      let sent = Wire.int_at [ "sources"; d.source ] j in
      Measure.check (sent = d.count) "submit-deps %s: %d records reported, %d sent"
        d.source sent d.count;
      let want_total = if d.restore then t.total else t.total - 1 in
      Measure.check
        (Wire.int_at [ "records" ] j = want_total)
        "submit-deps %s: snapshot holds %d records, want %d" d.source
        (Wire.int_at [ "records" ] j) want_total;
      let digest = Wire.string_at [ "digest" ] j in
      if d.restore then
        Measure.check (digest = t.base_digest)
          "submit-deps %s: restoring the content did not restore the digest" d.source
      else begin
        Measure.check (digest <> t.base_digest)
          "submit-deps %s: a changed record set kept its digest" d.source;
        match Hashtbl.find_opt t.altered d.source with
        | Some earlier ->
            Measure.check (digest = earlier)
              "submit-deps %s: equal content, different digest" d.source
        | None -> Hashtbl.replace t.altered d.source digest
      end;
      t.digest <- digest

let check_stats t reply =
  match Wire.ok_json reply with
  | None -> Measure.problem "stats refused"
  | Some j ->
      let digests =
        List.map (fun s -> Wire.string_at [ "digest" ] s) (Wire.list_at [ "snapshots" ] j)
      in
      Measure.check (digests = [ t.digest ]) "stats: snapshot digest is not the current one"

let op t i =
  let before = Server.cache_stats t.srv in
  let reply, cpu_s = Measure.timed (fun () -> Wire.call t.srv t.requests.(i)) in
  let after = Server.cache_stats t.srv in
  t.last.(i) <- Some (Wire.exchange reply);
  let kind =
    match t.ops.(i) with
    | Query q ->
        check_query t q reply;
        if after.Cache.hits > before.Cache.hits then "hit" else "miss"
    | Delta d ->
        check_delta t d reply;
        "submit"
    | Stats ->
        check_stats t reply;
        "stats"
  in
  { Measure.status = Measure.Ok kind; cpu_s; bytes = Wire.bytes reply }

let begin_phase t = t.phase_stats <- Server.cache_stats t.srv :: t.phase_stats

let layers t l ~untraced =
  Layer.service l ~untraced ~phase_stats:t.phase_stats ~exchanges:t.last;
  let deltas =
    Array.to_list t.ops
    |> List.filter_map (function Delta d -> Some (d.source, d.text) | _ -> None)
  in
  let db = Layer.snapshot_and_depdb l ~initial:t.sources ~deltas in
  (* The audit layers behind a miss, once per deployment class. *)
  let seen = ref [] in
  Array.iter
    (function
      | Query q when not (List.mem q.cls !seen) ->
          seen := q.cls :: !seen;
          Layer.audit_layers l db ~servers:q.servers ()
      | _ -> ())
    t.ops
