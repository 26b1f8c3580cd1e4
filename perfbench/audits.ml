(* Cold audit requests over the v1 wire protocol: every request states
   its own audit seed, so no spec repeats and each one misses the result
   cache. Without probabilities the default engine's answer does not
   depend on that seed, so a deployment's later answers must equal its
   first byte for byte. A Monte-Carlo Pr(T) does depend on it, so under
   probability ranking every answer gets the full check instead.

   Two workloads share this code: audit-fattree (k=16, Table 3
   topology A) and audit-prob (k=8, probability ranking). *)

module Prng = Indaas_util.Prng
module Dependency = Indaas_depdata.Dependency
module Client = Indaas_service.Client
module Server = Indaas_service.Server
module Cache = Indaas_service.Cache

module type CONFIG = sig
  val name : string
  val k : int
  val prob : float option
  val tail : float
  val warmup : bool

  val classes : Fat.cls list
  (** One seeded deployment per entry, one request each per round. *)

  val fixed : (Fat.t -> int list) list
  (** Deployments that do not depend on the seed, requested with the
      daemon's default audit seed. *)
end

(* The fault audit-prob keeps on purpose: a 3-way deployment's true
   Pr(T) is about 1e-6, the 200k-round Monte-Carlo estimate is 0, every
   importance is left [None], and the importance score raises
   [Invalid_argument], which the daemon answers as bad-request. *)
let fault = "Rank.independence_score_importance: missing importance"

module Make (C : CONFIG) = struct
  let name = C.name
  let tail = C.tail
  let warmup = C.warmup
  let quiesce = true

  type deployment = {
    cls : Fat.cls;
    servers : string list;
    seeded : bool;
  }

  type t = {
    fat : Fat.t;
    srv : Server.t;
    deployments : deployment array;
    source : string;
    seed : int;
    mutable round : int;
    first : (string list, string) Hashtbl.t;
    last : Wire.exchange option array;  (** one round's, for the codec probe *)
    mutable phase_stats : Cache.stats list;
  }

  let setup ~seed =
    let rng = Prng.of_int seed in
    let fat = Fat.create ~k:C.k in
    let seeded =
      List.fold_left
        (fun taken cls -> taken @ [ (cls, Fat.pick rng fat cls ~taken:(List.map snd taken)) ])
        [] C.classes
    in
    let fixed = List.map (fun f -> let d = f fat in (Fat.Cross_pod (List.length d), d)) C.fixed in
    let deployments =
      List.map (fun (cls, d) -> (cls, d, true)) seeded
      @ List.map (fun (cls, d) -> (cls, d, false)) fixed
      |> List.map (fun (cls, d, seeded) -> { cls; servers = List.map (Fat.name fat) d; seeded })
      |> Array.of_list
    in
    (* The snapshot holds exactly the audited servers' records. *)
    let servers =
      List.sort_uniq compare (List.concat_map snd seeded @ List.concat_map snd fixed)
    in
    let source = Dependency.to_xml_many (List.concat_map (Fat.records fat) servers) in
    (* Every request misses, so the cache keeps only the latest result.
       With the default 1024 entries the retained reports (300 KB each
       at k=16), not the audits, would set the heap, it would grow with
       the run, and the collector would scan them during every audit. *)
    let srv =
      Server.create ~config:{ Server.default_config with cache_capacity = 1 } ()
    in
    let reply = Wire.call srv (Client.submit_deps ~id:0 ~source:"fattree" ~records:source ()) in
    if Wire.ok_json reply = None then failwith (name ^ ": initial submission refused");
    {
      fat;
      srv;
      deployments;
      source;
      seed;
      round = 0;
      first = Hashtbl.create 16;
      last = Array.make (Array.length deployments) None;
      phase_stats = [];
    }

  let length t = Array.length t.deployments

  let request t i =
    let d = t.deployments.(i) in
    let seed =
      if d.seeded then Some ((t.seed * 1_000_003) + (t.round * length t) + i) else None
    in
    Client.audit ~id:(i + 1)
      ~options:{ Client.audit_options with prob = C.prob; seed }
      ~servers:d.servers ()

  let check t d reply =
    let label = Printf.sprintf "%s %s [%s]" name (Fat.cls_name d.cls) (String.concat "," d.servers) in
    match (Wire.ok_payload reply, Wire.ok_json reply) with
    | Some payload, Some json -> (
        match Hashtbl.find_opt t.first d.servers with
        | Some earlier when C.prob = None ->
            Measure.check (payload = earlier) "%s: answer differs from the first one" label
        | _ ->
            Hashtbl.replace t.first d.servers payload;
            Fat.check_audit t.fat ~label ~cls:d.cls ~servers:d.servers ?prob:C.prob json)
    | _ -> ()

  let op t i =
    let d = t.deployments.(i) in
    let req = request t i in
    let before = Server.cache_stats t.srv in
    let reply, cpu_s = Measure.timed (fun () -> Wire.call t.srv req) in
    let after = Server.cache_stats t.srv in
    t.last.(i) <- Some (Wire.exchange reply);
    if i = length t - 1 then t.round <- t.round + 1;
    let status =
      match Wire.error reply with
      | Some ("bad-request", msg) when msg = fault && not d.seeded -> Measure.Failed fault
      | Some (code, msg) ->
          Measure.problem "%s [%s]: %s: %s" name (String.concat "," d.servers) code msg;
          Measure.Wrong msg
      | None ->
          check t d reply;
          if d.seeded then
            Measure.check (after.Cache.misses = before.Cache.misses + 1)
              "%s: a request with a fresh seed did not miss the cache" name;
          Measure.Ok (if after.Cache.hits > before.Cache.hits then "hit" else "miss")
    in
    { Measure.status; cpu_s; bytes = Wire.bytes reply }

  let begin_phase t = t.phase_stats <- Server.cache_stats t.srv :: t.phase_stats

  let layers t l ~untraced =
    Layer.service l ~untraced ~phase_stats:t.phase_stats ~exchanges:t.last;
    let db = Layer.snapshot_and_depdb l ~initial:[ ("fattree", t.source) ] ~deltas:[] in
    let seen = ref [] in
    Array.iter
      (fun d ->
        if not (List.mem d.cls !seen) then begin
          seen := d.cls :: !seen;
          Layer.audit_layers l db ~servers:d.servers ?prob:C.prob ()
        end)
      t.deployments
end

module Fattree = Make (struct
  let name = "audit-fattree"
  let k = 16
  let prob = None
  (* A run has 48-54 samples: p75 keeps at least ten beyond it. *)
  let tail = 0.75

  (* The first round grows the heap to its working size; later rounds
     reuse it. *)
  let warmup = true

  (* Sorted by cost the round is SR SP CP CP 3W 3W: the median falls
     inside the 2-way cross-pod samples and p75 inside the 3-way ones. *)
  let classes = Fat.[ Same_rack; Same_pod; Cross_pod 2; Cross_pod 2; Cross_pod 3; Cross_pod 3 ]

  let fixed = []
end)

module Prob = Make (struct
  let name = "audit-prob"
  let k = 8
  let prob = Some 0.01
  (* A run has about 28 successful operations: p60 is the highest
     percentile with ten of them beyond it. *)
  let tail = 0.6
  let warmup = false

  (* Successes sorted by cost are CP CP CP CP SR: the median and p60
     fall inside the Monte-Carlo samples. *)
  let classes = Fat.[ Same_rack; Cross_pod 2; Cross_pod 2; Cross_pod 2; Cross_pod 2 ]

  (* One server in each of pods 0, 3 and 6. *)
  let fixed = [ (fun fat -> [ Fat.server_in fat ~pod:0 ~rack:0 ~slot:0;
                              Fat.server_in fat ~pod:3 ~rack:1 ~slot:2;
                              Fat.server_in fat ~pod:6 ~rack:3 ~slot:1 ]) ]
end)
