(* The INDaaS benchmark runner: one workload per process.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   Set-up runs several times and reports its median. With
   --trace 0 the timed phase runs for S seconds untraced and the last
   line of standard output is the end-to-end result; with --trace 1
   half the time runs untraced and half under a CPU-clock obs registry,
   then the per-layer probes run, and the last line is the per-layer
   result. *)

module Json = Indaas_util.Json
module Obs = Indaas_obs.Registry

let workloads : (module Workload.S) list =
  [ (module Serve_churn); (module Audits.Fattree); (module Audits.Prob); (module Pia_psop) ]

(* Set-up repeats until it has run [min_setups] times and for
   [setup_budget_s] CPU seconds (at most [max_setups] times), and
   reports the median. Earlier repetitions draw their inputs from seeds
   derived from the run's seed, so the median covers several draws of
   seeded set-up work (the P-SOP prime search varies a lot); the last
   one uses the run's seed, and its state is what the run measures. *)
let min_setups = 9
let max_setups = 60
let setup_budget_s = 0.5

let end_to_end =
  [ ("setup_s", "s"); ("ops_per_cpu_s", "1/s"); ("latency_p50_ms", "ms");
    ("latency_tail_ms", "ms"); ("peak_heap_mb", "MB"); ("traffic_kb_per_op", "KB") ]

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: serve-churn, audit-fattree, audit-prob, pia-psop";
  exit 2

let ops_per_cpu_s (p : Measure.phase) =
  let ok = List.length (List.filter Measure.succeeded p.Measure.outcomes) in
  float_of_int ok /. Float.max 1e-9 (Measure.busy_s p)

let info (module W : Workload.S) (p : Measure.phase) label =
  let ok = List.length (List.filter Measure.succeeded p.Measure.outcomes) in
  Printf.printf
    "%s %s: %d round(s), %d attempted, %d failed, %d successful latencies \
     (tail = p%.0f); wall clock %.2f ops/s, CPU/wall %.3f\n"
    W.name label p.Measure.rounds (Measure.attempted p) (Measure.failures p) ok
    (W.tail *. 100.)
    (float_of_int ok /. p.Measure.wall_s)
    (p.Measure.total_cpu_s /. p.Measure.wall_s)

let result ~attempted ~failed metrics =
  let finite v = if Float.is_finite v then v else 0. in
  Json.Obj
    [
      ("correct", Json.Bool (!Measure.problems = []));
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, unit, v) ->
               (name, Json.Obj [ ("value", Json.Float (finite v)); ("unit", Json.String unit) ]))
             metrics) );
    ]

let run (module W : Workload.S) ~seed ~seconds ~trace =
  let rec setups acc n spent =
    if n + 1 >= min_setups && (spent >= setup_budget_s || n + 1 >= max_setups) then
      let t, s = Measure.timed (fun () -> W.setup ~seed) in
      (t, Measure.median (Array.of_list (s :: acc)))
    else
      let _, s = Measure.timed (fun () -> W.setup ~seed:(seed + (1_000_003 * (n + 1)))) in
      setups (s :: acc) (n + 1) (spent +. s)
  in
  let t, setup_s = setups [] 0 0. in
  let len = W.length t in
  if W.warmup then for i = 0 to len - 1 do ignore (W.op t i) done;
  let phase seconds =
    W.begin_phase t;
    Measure.run_rounds ~seconds ~len (fun i ->
        if W.quiesce then Gc.compact ();
        W.op t i)
  in
  if not trace then begin
    let p = phase seconds in
    info (module W) p "timed";
    let ok = Measure.latencies p in
    let metrics =
      [
        setup_s;
        ops_per_cpu_s p;
        Measure.median ok *. 1000.;
        Measure.percentile ok W.tail *. 1000.;
        Measure.peak_heap_mb ();
        float_of_int (List.fold_left (fun acc o -> acc + o.Measure.bytes) 0 p.Measure.outcomes)
        /. float_of_int (Measure.attempted p) /. 1000.;
      ]
    in
    result ~attempted:(Measure.attempted p) ~failed:(Measure.failures p)
      (List.map2 (fun (name, unit) v -> (name, unit, v)) end_to_end metrics)
  end
  else begin
    let untraced = phase (seconds /. 2.) in
    info (module W) untraced "untraced";
    let traced, reg = Obs.with_scope ~clock:Measure.cpu_clock (fun _ -> phase (seconds /. 2.)) in
    info (module W) traced "traced";
    let l = Layer.create () in
    Layer.span_summary l reg ~ops:(Measure.attempted traced);
    Layer.add l "trace.overhead_pct"
      ((ops_per_cpu_s untraced /. ops_per_cpu_s traced -. 1.) *. 100.);
    ignore (Obs.with_scope ~clock:Measure.cpu_clock (fun _ -> W.layers t l ~untraced));
    Printf.printf "%s per-layer metrics (per operation where a count or time):\n" W.name;
    Layer.print_table l;
    result
      ~attempted:(Measure.attempted untraced + Measure.attempted traced)
      ~failed:(Measure.failures untraced + Measure.failures traced)
      (List.map (fun (name, unit) -> (name, unit, Layer.value l name)) Layer.metrics)
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref "0" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_string trace, "0|1 end-to-end (0) or per-layer (1) run");
    ]
    (fun _ -> usage ())
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun (module W : Workload.S) -> W.name = !workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  let trace = match !trace with "0" -> false | "1" -> true | _ -> usage () in
  if !seconds <= 0. then usage ();
  let json = run w ~seed:!seed ~seconds:!seconds ~trace in
  print_endline (Json.to_string json)
