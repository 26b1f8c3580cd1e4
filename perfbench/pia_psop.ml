(* pia-psop: each operation is one P-SOP evaluation through
   [Pia.Audit.audit] on one Table 2 deployment of the four clouds. A
   round evaluates the six 2-way and four 3-way deployments, plus the
   deployment Table 2 ranks first (Cloud2 & Cloud4) a second time, in a
   seeded order. The odd count puts the median on one deployment's
   samples, and the make-up is the same for every seed. The 256-bit
   Pohlig-Hellman parameters are generated once, in set-up. *)

module Prng = Indaas_util.Prng
module Obs = Indaas_obs.Registry
module Metrics = Indaas_obs.Metrics
module Commutative = Indaas_crypto.Commutative
module Pia_audit = Indaas_pia.Audit
module Componentset = Indaas_pia.Componentset
module Psop = Indaas_pia.Psop
module Transport = Indaas_pia.Transport
module SS = Set.Make (String)

let name = "pia-psop"
let tail = 0.8
let warmup = false
let quiesce = true

type t = {
  params : Commutative.params;
  groups : Pia_audit.provider list array;
  rng : Prng.t;
  results : (string list * float) option array;  (** this round's Jaccards *)
}

let subsets k l =
  let rec go k l =
    match (k, l) with
    | 0, _ -> [ [] ]
    | _, [] -> []
    | k, x :: rest -> List.map (fun s -> x :: s) (go (k - 1) rest) @ go k rest
  in
  go k l

let names group = List.map (fun p -> p.Pia_audit.name) group

let setup ~seed =
  let rng = Prng.of_int seed in
  let providers = Indaas.Scenario.software_case_providers () in
  let params = Commutative.params_pohlig_hellman ~bits:256 rng in
  let pairs = subsets 2 providers in
  let best = List.find (fun g -> names g = [ "Cloud2"; "Cloud4" ]) pairs in
  let groups = Array.of_list ((best :: pairs) @ subsets 3 providers) in
  Prng.shuffle rng groups;
  { params; groups; rng; results = Array.make (Array.length groups) None }

let length t = Array.length t.groups
let components p = SS.of_list (Componentset.to_list p.Pia_audit.components)

(* The cleartext answer, from the benchmark's own set operations. *)
let cleartext group =
  let sets = List.map components group in
  let inter = List.fold_left SS.inter (List.hd sets) (List.tl sets) in
  let union = List.fold_left SS.union SS.empty sets in
  (SS.cardinal inter, SS.cardinal union)

(* P-SOP traffic is only visible through the program's own [pia.bytes]
   counter, so an untraced evaluation runs in a registry of its own on
   a constant clock: it counts, and its spans cost no clock reads. *)
let pia_bytes () = Metrics.counter (Obs.metrics (Obs.current ())) "pia.bytes"

let evaluate t group =
  let audit () =
    Pia_audit.audit ~protocol:(Pia_audit.Psop { params = Some t.params })
      ~rng:(Prng.split t.rng) ~way:(List.length group) group
  in
  if Obs.on () then begin
    let before = pia_bytes () in
    let report, cpu_s = Measure.timed audit in
    (report, cpu_s, pia_bytes () - before)
  end
  else
    let (report, cpu_s), reg =
      Obs.with_scope ~clock:(fun () -> 0L) (fun _ -> Measure.timed audit)
    in
    (report, cpu_s, Metrics.counter (Obs.metrics reg) "pia.bytes")

(* Rank by Jaccard, most independent first, names breaking ties. *)
let ranking l = List.map fst (List.sort (fun (na, a) (nb, b) -> compare (a, na) (b, nb)) l)

let check_round t =
  let measured = List.filter_map Fun.id (Array.to_list t.results) |> List.sort_uniq compare in
  let clear =
    List.map
      (fun (group_names, _) ->
        let group = List.find (fun g -> names g = group_names) (Array.to_list t.groups) in
        let inter, union = cleartext group in
        (group_names, float_of_int inter /. float_of_int union))
      measured
  in
  Measure.check (ranking measured = ranking clear)
    "pia-psop: the Jaccard ranking differs from the cleartext one"

let op t i =
  let group = t.groups.(i) in
  let label = String.concat "&" (names group) in
  let report, cpu_s, bytes = evaluate t group in
  let inter, union = cleartext group in
  (match (report.Pia_audit.results, report.Pia_audit.failures) with
  | [ r ], [] ->
      Measure.check
        (r.Pia_audit.intersection = Some inter && r.Pia_audit.union = Some union)
        "pia-psop %s: |inter|,|union| = %s, cleartext gives %d,%d" label
        (match (r.Pia_audit.intersection, r.Pia_audit.union) with
        | Some a, Some b -> Printf.sprintf "%d,%d" a b
        | _ -> "none")
        inter union;
      let j = float_of_int inter /. float_of_int union in
      Measure.check (Fat.close r.Pia_audit.jaccard j) "pia-psop %s: Jaccard %g, want %g" label
        r.Pia_audit.jaccard j;
      Measure.check (r.Pia_audit.correlated = (j >= 0.75))
        "pia-psop %s: correlated flag disagrees with the Jaccard" label;
      t.results.(i) <- Some (names group, r.Pia_audit.jaccard)
  | _ -> Measure.problem "pia-psop %s: no single result" label);
  if i = length t - 1 then check_round t;
  Measure.check (bytes > 0) "pia-psop %s: no P-SOP traffic counted" label;
  { Measure.status = Measure.Ok "eval"; cpu_s; bytes }

let begin_phase _ = ()

let layers t l ~untraced:_ =
  let rng = Prng.of_int 0x9e3 in
  let seen = ref [] in
  Array.iter
    (fun group ->
      let way = List.length group in
      if not (List.mem way !seen) then begin
        seen := way :: !seen;
        let datasets =
          Array.of_list (List.map (fun p -> Componentset.to_list p.Pia_audit.components) group)
        in
        let r = Layer.time l "psop.eval_ms" (fun () -> Psop.run ~params:t.params rng datasets) in
        Layer.add l "psop.crypto_ops" (float_of_int r.Psop.crypto_ops);
        Layer.add l "psop.traffic_kb"
          (float_of_int (Transport.total_bytes r.Psop.transport) /. 1000.)
      end)
    t.groups;
  Layer.crypto_layers l rng t.params
    (Componentset.to_list (List.hd t.groups.(0)).Pia_audit.components)
