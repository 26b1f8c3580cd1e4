(* Clocks, per-operation outcomes, the round loop and order statistics.

   Every timing is process CPU time ([Sys.time], microsecond
   resolution): each layer is single-threaded, in memory and CPU-bound,
   so CPU time is the program's service time and leaves out time the
   hypervisor steals. The wall clock only bounds how long a phase runs
   and feeds the reference-only wall-clock figures. *)

let cpu = Sys.time
let wall = Unix.gettimeofday

let timed f =
  let t0 = cpu () in
  let r = f () in
  (r, cpu () -. t0)

(* A registry clock on CPU time, so spans measure service time too. *)
let cpu_clock = Indaas_obs.Registry.clock_of_seconds cpu

(* What one operation did. [Ok kind] names its class for the per-layer
   split (hit, miss, submit, stats, eval). *)
type status =
  | Ok of string
  | Failed of string  (** the known, named fault: counted in [failed] *)
  | Wrong of string  (** any other error response; also a check problem *)

type outcome = { status : status; cpu_s : float; bytes : int }

(* Output checks never raise out of a workload: they report here and the
   run's [correct] flag drops. *)
let problems = ref []

let problem fmt =
  Printf.ksprintf
    (fun msg ->
      if List.length !problems < 20 then prerr_endline ("check failed: " ^ msg);
      problems := msg :: !problems)
    fmt

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then problem "%s" msg) fmt

(* --- phases ------------------------------------------------------------ *)

type phase = {
  mutable outcomes : outcome list;  (** newest first *)
  mutable rounds : int;
  mutable wall_s : float;
  mutable total_cpu_s : float;  (** output checks included *)
}

(* Runs whole rounds of [op 0 .. len-1] until [seconds] of wall time
   are spent: a new round starts only while the run, if that round
   takes as long as the last one, ends at most half a round late. Every
   run therefore attempts the same operations a whole number of times. *)
let run_rounds ~seconds ~len op =
  let phase = { outcomes = []; rounds = 0; wall_s = 0.; total_cpu_s = 0. } in
  let start = wall () and cpu0 = cpu () in
  let last_round = ref 0. in
  while phase.rounds = 0 || wall () -. start +. (!last_round /. 2.) < seconds do
    let t0 = wall () in
    for i = 0 to len - 1 do
      phase.outcomes <- op i :: phase.outcomes
    done;
    phase.rounds <- phase.rounds + 1;
    last_round := wall () -. t0
  done;
  phase.wall_s <- wall () -. start;
  phase.total_cpu_s <- cpu () -. cpu0;
  phase

let succeeded o = match o.status with Ok _ -> true | _ -> false
let failed o = match o.status with Failed _ -> true | _ -> false
let attempted p = List.length p.outcomes
let failures p = List.length (List.filter failed p.outcomes)
let busy_s p = List.fold_left (fun acc (o : outcome) -> acc +. o.cpu_s) 0. p.outcomes

let latencies ?kind p =
  List.filter_map
    (fun o ->
      match (o.status, kind) with
      | Ok k, Some want when k <> want -> None
      | Ok _, _ -> Some o.cpu_s
      | _ -> None)
    p.outcomes
  |> Array.of_list

(* Linear interpolation between order statistics, the same rule as
   Python's [statistics.quantiles(method="inclusive")]. *)
let percentile values q =
  let n = Array.length values in
  if n = 0 then 0.
  else begin
    let a = Array.copy values in
    Array.sort compare a;
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let median values = percentile values 0.5

let mean values =
  let n = Array.length values in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. values /. float_of_int n

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6
