(* Fat-tree inputs and the benchmark's own risk-group checks.

   Inputs are Table 1 route records from the fat-tree generator. The
   checks never call the program's audit code: they evaluate reported
   risk groups directly over the route records the benchmark sent, and
   compare counts with closed forms for these placements. *)

module Fattree = Indaas_topology.Fattree
module Dependency = Indaas_depdata.Dependency
module Prng = Indaas_util.Prng
module Json = Indaas_util.Json

type t = {
  tree : Fattree.t;
  h : int;  (** k/2: servers per rack, racks per pod *)
  routes : (string, string list list) Hashtbl.t;  (** server -> routes *)
}

let create ~k =
  { tree = Fattree.create ~k; h = k / 2; routes = Hashtbl.create 64 }

let name t i = Fattree.server_name t.tree i
let pods t = 2 * t.h

(* The records of one server; the evaluator learns its routes from
   exactly the records that go on the wire. *)
let records t server =
  let rs = Fattree.network_records t.tree ~server in
  List.iter
    (function
      | Dependency.Network n ->
          let prev = try Hashtbl.find t.routes n.Dependency.src with Not_found -> [] in
          if not (List.mem n.Dependency.route prev) then
            Hashtbl.replace t.routes n.Dependency.src (n.Dependency.route :: prev)
      | _ -> ())
    rs;
  rs

(* --- deployments --------------------------------------------------------- *)

type cls = Same_rack | Same_pod | Cross_pod of int

let cls_name = function
  | Same_rack -> "2-way same-rack"
  | Same_pod -> "2-way same-pod"
  | Cross_pod m -> Printf.sprintf "%d-way cross-pod" m

let server_in t ~pod ~rack ~slot = (((pod * t.h) + rack) * t.h) + slot

(* A fresh deployment of class [cls], as sorted server indices, distinct
   from every deployment in [taken]. *)
let rec pick rng t cls ~taken =
  let r n = Prng.int rng n in
  let d =
    match cls with
    | Same_rack ->
        let pod = r (pods t) and rack = r t.h in
        let a = r t.h in
        let b = (a + 1 + r (t.h - 1)) mod t.h in
        [ server_in t ~pod ~rack ~slot:a; server_in t ~pod ~rack ~slot:b ]
    | Same_pod ->
        let pod = r (pods t) in
        let ra = r t.h in
        let rb = (ra + 1 + r (t.h - 1)) mod t.h in
        [
          server_in t ~pod ~rack:ra ~slot:(r t.h);
          server_in t ~pod ~rack:rb ~slot:(r t.h);
        ]
    | Cross_pod m ->
        let ps = Prng.sample_without_replacement rng m (Array.init (pods t) Fun.id) in
        Array.to_list
          (Array.map (fun pod -> server_in t ~pod ~rack:(r t.h) ~slot:(r t.h)) ps)
  in
  let d = List.sort compare d in
  if List.mem d taken then pick rng t cls ~taken else d

(* --- closed forms ------------------------------------------------------- *)

(* Minimal RG counts for route-only fat-tree deployments (h = k/2):
   both servers in one pod share every aggregation switch, leaving the
   2^h agg/core cuts plus the ToR cut; m servers in m distinct pods
   give (2^m - 1) 2^h - 2^m + 3. *)
let expected_rg_count t = function
  | Same_rack | Same_pod -> (1 lsl t.h) + 1
  | Cross_pod m -> (((1 lsl m) - 1) * (1 lsl t.h)) - (1 lsl m) + 3

let size = function Same_rack | Same_pod -> 2 | Cross_pod m -> m

(* --- the independent evaluator ----------------------------------------- *)

module S = Set.Make (String)

(* With every replica required down (the default [required = 1]), the
   deployment is down when each server has lost every route. Removing
   one element [x] of a failure set revives a server exactly when one of
   its routes meets the set in [x] alone, so the set is minimal when
   every element is such a sole hit. Returns (down, minimal). *)
let analyse t servers failed =
  let down = ref true and sole = Hashtbl.create 16 in
  List.iter
    (fun s ->
      List.iter
        (fun route ->
          match List.filter (fun d -> S.mem d failed) route with
          | [] -> down := false
          | [ x ] -> Hashtbl.replace sole x ()
          | _ -> ())
        (try Hashtbl.find t.routes s with Not_found -> [ [] ]))
    servers;
  (!down, S.for_all (Hashtbl.mem sole) failed)

let check_family t ~label ~cls ~servers (rgs : string list list) =
  let open Measure in
  let want = expected_rg_count t cls in
  check (List.length rgs = want) "%s: %d risk groups, closed form gives %d"
    label (List.length rgs) want;
  let sets = List.map S.of_list rgs in
  check
    (List.length (List.sort_uniq S.compare sets) = List.length sets)
    "%s: duplicate risk groups" label;
  List.iter
    (fun rg ->
      let down, minimal = analyse t servers rg in
      let show = String.concat "," (S.elements rg) in
      if not down then problem "%s: {%s} does not take the deployment down" label show
      else if not minimal then problem "%s: {%s} is not minimal" label show)
    sets;
  let small = List.filter (fun rg -> S.cardinal rg < size cls) sets in
  match cls with
  | Same_rack ->
      check
        (match small with [ rg ] -> S.cardinal rg = 1 | _ -> false)
        "%s: %d unexpected risk groups, want exactly one of size 1" label
        (List.length small)
  | _ -> check (small = []) "%s: %d unexpected risk groups, want none" label
           (List.length small)

(* The estimator behind a reported Monte-Carlo Pr(T) draws this many
   samples; the probability bounds widen by [z] of its standard
   errors while the program may still report an estimate. *)
let mc_rounds = 200_000.
let z = 4.

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b)

(* An [audit] result: the RG family, the unexpected RGs, and under
   probability ranking each RG's p^|RG| and Pr(T) within the
   first-order Bonferroni bounds max p^|RG| <= Pr(T) <= sum p^|RG|. *)
let check_audit t ~label ~cls ~servers ?prob payload =
  let open Measure in
  let risk_groups = Wire.list_at [ "risk_groups" ] payload in
  let rgs = List.map (fun rg -> Wire.strings (Option.value ~default:Json.Null (Json.member "components" rg))) risk_groups in
  check_family t ~label ~cls ~servers rgs;
  check
    (Wire.int_at [ "expected_rg_size" ] payload = size cls)
    "%s: expected_rg_size is not %d" label (size cls);
  let unexpected = List.length (Wire.list_at [ "unexpected" ] payload) in
  let want = match cls with Same_rack -> 1 | _ -> 0 in
  check (unexpected = want) "%s: %d unexpected RGs reported, want %d" label
    unexpected want;
  match prob with
  | None -> ()
  | Some p ->
      let probs =
        List.map
          (fun (rg, names) ->
            let want = p ** float_of_int (List.length names) in
            (match Wire.float_at [ "probability" ] rg with
            | Some got when close got want -> ()
            | got ->
                problem "%s: RG {%s} has probability %s, want %g" label
                  (String.concat "," names)
                  (match got with Some g -> Printf.sprintf "%g" g | None -> "none")
                  want);
            want)
          (List.combine risk_groups rgs)
      in
      let lower = List.fold_left Float.max 0. probs in
      let upper = List.fold_left ( +. ) 0. probs in
      let slack = z *. sqrt (upper *. (1. -. upper) /. mc_rounds) in
      (match Wire.float_at [ "failure_probability" ] payload with
      | Some pr ->
          check
            (pr >= lower -. slack && pr <= upper +. slack)
            "%s: Pr(T) = %g outside [%g, %g] widened by %g" label pr lower upper
            slack
      | None -> problem "%s: no failure probability" label)

(* An [rg-query] result: the same family, as bare name lists. *)
let check_rg_query t ~label ~cls ~servers payload =
  let rgs = List.map Wire.strings (Wire.list_at [ "risk_groups" ] payload) in
  Measure.check
    (Wire.int_at [ "count" ] payload = List.length rgs)
    "%s: count field disagrees with the list" label;
  check_family t ~label ~cls ~servers rgs
