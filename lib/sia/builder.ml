module Depdb = Indaas_depdata.Depdb
module Dependency = Indaas_depdata.Dependency
module Graph = Indaas_faultgraph.Graph
module Obs = Indaas_obs.Registry

type spec = {
  servers : string list;
  required : int;
  component_probability : string -> float option;
}

let spec ?(required = 1) ?(component_probability = fun _ -> None) servers =
  { servers; required; component_probability }

let uniform_probability p _ = Some p

exception Unknown_server of string

let unknown_server_message server =
  Printf.sprintf "Builder.build: no dependency records for server %S" server

let expected_rg_size s = List.length s.servers - s.required + 1

let build db s =
  let m = List.length s.servers in
  if m = 0 then invalid_arg "Builder.build: no servers";
  if s.required < 1 || s.required > m then
    invalid_arg "Builder.build: required out of range";
  Obs.with_span "build" ~attrs:[ ("servers", string_of_int m) ] @@ fun () ->
  let b = Graph.Builder.create () in
  let basic name = Graph.Builder.add_basic b ?prob:(s.component_probability name) name in
  let server_gate server =
    (* Step 5: network — redundant paths under an AND, devices on a
       path under an OR. *)
    let paths = Depdb.network_paths db ~src:server in
    let network =
      match paths with
      | [] -> None
      | _ ->
          let path_gates =
            List.mapi
              (fun i (p : Dependency.network) ->
                let devices = List.map basic p.Dependency.route in
                match devices with
                | [] ->
                    (* A recorded route with no intermediate device is a
                       direct link: it cannot fail through a component,
                       so the path-AND can never fire. Model it as an
                       unfailable leaf is wrong; instead skip the whole
                       network gate below by signalling with None. *)
                    None
                | _ ->
                    Some
                      (Graph.Builder.add_gate b
                         ~name:(Printf.sprintf "%s/path%d" server i)
                         Graph.Or devices))
              paths
          in
          if List.exists Option.is_none path_gates then None
          else
            Some
              (Graph.Builder.add_gate b
                 ~name:(server ^ "/network")
                 Graph.And
                 (List.map Option.get path_gates))
    in
    (* Step 4: hardware — any component failure fails the server. *)
    let hw_records = Depdb.hardware_of db ~machine:server in
    let hardware =
      match hw_records with
      | [] -> None
      | _ ->
          let components =
            List.map (fun (h : Dependency.hardware) -> basic h.Dependency.dep) hw_records
          in
          Some (Graph.Builder.add_gate b ~name:(server ^ "/hardware") Graph.Or components)
    in
    (* Step 6: software — OR over programs, each an OR over its
       packages. *)
    let sw_records = Depdb.software_on db ~machine:server in
    let software =
      match sw_records with
      | [] -> None
      | _ ->
          let program_gates =
            List.map
              (fun (sw : Dependency.software) ->
                match sw.Dependency.deps with
                | [] -> basic sw.Dependency.pgm (* leaf program: its own failure event *)
                | deps ->
                    Graph.Builder.add_gate b
                      ~name:(Printf.sprintf "%s/%s" server sw.Dependency.pgm)
                      Graph.Or
                      (List.map basic deps))
              sw_records
          in
          Some (Graph.Builder.add_gate b ~name:(server ^ "/software") Graph.Or program_gates)
    in
    (* Step 3: the server fails when any dependency category fails. *)
    match List.filter_map Fun.id [ network; hardware; software ] with
    | [] -> raise (Unknown_server server)
    | children -> Graph.Builder.add_gate b ~name:server Graph.Or children
  in
  (* Step 2: servers under the redundancy gate. *)
  let server_gates = List.map server_gate s.servers in
  let threshold = m - s.required + 1 in
  let gate = if threshold = m then Graph.And else Graph.Kofn threshold in
  let top = Graph.Builder.add_gate b ~name:"deployment" gate server_gates in
  let g = Graph.Builder.build b ~top in
  if Obs.on () then begin
    let nodes = Graph.node_count g in
    let basics = Array.length (Graph.basic_ids g) in
    Obs.incr ~by:(nodes - basics) "build.gates";
    Obs.incr ~by:basics "build.basic_events";
    Obs.span_attr "nodes" (string_of_int nodes)
  end;
  g
