type component_importance = {
  component : Graph.node_id;
  component_name : string;
  birnbaum : float;
  fussell_vesely : float;
}

let prob_exn g id =
  match Graph.prob_of g id with
  | Some p -> p
  | None -> raise (Probability.Missing_probability (Graph.name_of g id))

(* Both measures read one compiled diagram: Birnbaum conditions the
   top event on the component, Fussell–Vesely evaluates the union of
   the RGs containing it, built in the same manager. *)
type compiled = {
  m : Bdd.manager;
  top : Bdd.node;
  prob_of : Graph.node_id -> float;
  pr_top : float;
}

let compile g =
  let m, top = Bdd.of_graph g in
  let prob_of = prob_exn g in
  { m; top; prob_of; pr_top = Bdd.probability m top ~prob_of }

let birnbaum_in c ~component =
  let conditioned value =
    Bdd.probability c.m c.top ~prob_of:(fun id ->
        if id = component then (if value then 1. else 0.) else c.prob_of id)
  in
  conditioned true -. conditioned false

let fussell_vesely_in c ~rgs ~component =
  if c.pr_top <= 0. then 0.
  else
    let containing = List.filter (Array.exists (fun id -> id = component)) rgs in
    Bdd.probability c.m (Bdd.of_family c.m containing) ~prob_of:c.prob_of
    /. c.pr_top

let birnbaum g ~component = birnbaum_in (compile g) ~component

let fussell_vesely g ~rgs ~component =
  fussell_vesely_in (compile g) ~rgs ~component

let rank_components g ~rgs =
  let c = compile g in
  Array.to_list (Graph.basic_ids g)
  |> List.map (fun component ->
         {
           component;
           component_name = Graph.name_of g component;
           birnbaum = birnbaum_in c ~component;
           fussell_vesely = fussell_vesely_in c ~rgs ~component;
         })
  |> List.sort (fun a b ->
         match compare b.birnbaum a.birnbaum with
         | 0 -> compare a.component_name b.component_name
         | c -> c)

let render importances =
  let t =
    Indaas_util.Table.create
      ~aligns:
        [ Indaas_util.Table.Right; Indaas_util.Table.Left;
          Indaas_util.Table.Right; Indaas_util.Table.Right ]
      [ "rank"; "component"; "Birnbaum"; "Fussell-Vesely" ]
  in
  List.iteri
    (fun i c ->
      Indaas_util.Table.add_row t
        [
          string_of_int (i + 1);
          c.component_name;
          Printf.sprintf "%.6g" c.birnbaum;
          Printf.sprintf "%.6g" c.fussell_vesely;
        ])
    importances;
  Indaas_util.Table.render t
